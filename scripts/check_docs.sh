#!/usr/bin/env bash
# Documentation consistency checks (registered as the ctest "DocsCheck"):
#
#   1. every relative markdown link in the repo's *.md files resolves to
#      an existing file;
#   2. every metric name emitted by the source tree — any string literal
#      passed to registry .counter(" / .gauge(" / .histogram(" — is
#      documented in docs/OBSERVABILITY.md;
#   3. every command-line flag sintra_node parses appears in README.md;
#   4. every benchmark scenario recorded in a BENCH_*.json at the repo
#      root is mentioned in README.md or docs/, so published numbers
#      always have prose explaining what they measure;
#   5. every public header under src/bignum opens with a file-level doc
#      comment (the crypto substrate is the part of the tree where an
#      undocumented invariant becomes a key-corrupting bug);
#   6. every backticked src/, tests/, bench/, scripts/, examples/ or docs/
#      path in README.md, DESIGN.md and docs/*.md exists, so prose cannot
#      keep naming a deleted or renamed file.
#
# Grep-based on purpose: no build products needed, so it runs in any
# checkout and catches drift at review time.
set -u

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# --- 1. markdown links -----------------------------------------------------
# Matches ](path) targets; ignores http(s), mailto, pure #anchors, and
# anything with a space (those are C++ lambdas inside code blocks, not
# markdown links).
while IFS=: read -r file target; do
  [ -n "$target" ] || continue
  case "$target" in
    http://*|https://*|mailto:*|\#*|*" "*) continue ;;
  esac
  path="${target%%#*}"          # strip an anchor suffix
  [ -n "$path" ] || continue
  base="$(dirname "$file")"
  if [ ! -e "$base/$path" ] && [ ! -e "$path" ]; then
    fail "$file links to missing file: $target"
  fi
done < <(grep -oHE '\]\([^)]+\)' --include='*.md' -r . \
           --exclude-dir=build --exclude-dir=.git \
         | sed -E 's/\]\(([^)]*)\)$/\1/')

# --- 2. metric names documented --------------------------------------------
OBS_DOC="docs/OBSERVABILITY.md"
if [ ! -f "$OBS_DOC" ]; then
  fail "$OBS_DOC does not exist"
else
  metric_names="$(grep -rhoE '\.(counter|gauge|histogram)\("[^"]+"' \
                    src examples 2>/dev/null \
                  | sed -E 's/.*\("([^"]+)"/\1/' | sort -u)"
  if [ -z "$metric_names" ]; then
    fail "found no emitted metric names under src/ — check_docs.sh grep drifted"
  fi
  while IFS= read -r name; do
    if ! grep -qF "$name" "$OBS_DOC"; then
      fail "metric \"$name\" is emitted in the source but not documented in $OBS_DOC"
    fi
  done <<< "$metric_names"

  # Trace event names likewise.
  for event in send recv round_start transition coin_release decide deliver \
               park shed; do
    if ! grep -qF "\`$event\`" "$OBS_DOC"; then
      fail "trace event \"$event\" is not documented in $OBS_DOC"
    fi
  done
fi

# --- 3. sintra_node flags documented ---------------------------------------
# Every command-line flag sintra_node parses (the `arg == "--..."`
# literals) must appear somewhere in README.md, so the deployment
# walkthrough can't silently drift from the binary.
NODE_SRC="examples/sintra_node.cpp"
if [ -f "$NODE_SRC" ]; then
  node_flags="$(grep -oE '== "--[a-z-]+"' "$NODE_SRC" \
                | sed -E 's/== "(--[a-z-]+)"/\1/' | sort -u)"
  if [ -z "$node_flags" ]; then
    fail "found no flags in $NODE_SRC — check_docs.sh grep drifted"
  fi
  while IFS= read -r flag; do
    if ! grep -qF -- "$flag" README.md; then
      fail "sintra_node flag \"$flag\" is not documented in README.md"
    fi
  done <<< "$node_flags"
fi

# --- 4. bench scenarios documented -----------------------------------------
# Every scenario name recorded in a BENCH_*.json at the repo root (keys of
# its "benchmarks" or "runs" object; google-benchmark /arg suffixes are
# stripped) must be mentioned in README.md or somewhere under docs/ —
# numbers we publish need prose saying what they measure.
for bench in BENCH_*.json; do
  [ -f "$bench" ] || continue
  bench_names="$(python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
names = set()
for key in ("benchmarks", "runs"):
    for name in d.get(key, {}):
        names.add(name.split("/")[0])
print("\n".join(sorted(names)))' "$bench")"
  if [ -z "$bench_names" ]; then
    fail "$bench records no benchmarks/runs — check_docs.sh extraction drifted"
    continue
  fi
  while IFS= read -r name; do
    if ! grep -qrF -- "$name" README.md docs/; then
      fail "bench scenario \"$name\" ($bench) is not described in README.md or docs/"
    fi
  done <<< "$bench_names"
done

# --- 5. bignum headers carry file-level doc comments ------------------------
# The crypto substrate's invariants (limb layout, CIOS bounds, work-unit
# definition) live in header prose; a bare header is a review failure.
for hdr in src/bignum/*.hpp; do
  [ -f "$hdr" ] || continue
  if ! head -n 1 "$hdr" | grep -qE '^//'; then
    fail "$hdr has no file-level doc comment (first line must be // prose)"
  fi
done

# --- 6. backticked source paths exist --------------------------------------
# Inline code spans only.  `a.{hpp,cpp}` expands to both files, globs must
# match something, a `:line` suffix is ignored, and a binary name such as
# `bench/crypto_micro` counts when bench/crypto_micro.cpp exists.
if ! path_problems="$(python3 - README.md DESIGN.md docs/*.md <<'PY'
import glob, os, re, sys

path_re = re.compile(r"(?<![\w./-])(?:src|tests|bench|scripts|examples|docs)"
                     r"/[\w./{},*+-]*")

def expand(path):
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    return [p for alt in m.group(1).split(",")
            for p in expand(path[:m.start()] + alt + path[m.end():])]

def exists(path):
    if "*" in path:
        return bool(glob.glob(path))
    return os.path.exists(path) or os.path.exists(path + ".cpp")

checked = 0
for doc in sys.argv[1:]:
    with open(doc) as f:
        text = f.read()
    for span in re.findall(r"`([^`\n]+)`", text):
        for raw in path_re.findall(span):
            checked += 1
            path = re.sub(r"(:\d+)+$", "", raw).rstrip(".,:")
            if not all(exists(p) for p in expand(path)):
                print(f"{doc} names missing path `{raw}`")
if not checked:
    print("found no backticked paths - check_docs.sh extraction drifted")
PY
)"; then
  fail "backticked-path check did not run"
fi
while IFS= read -r problem; do
  [ -n "$problem" ] && fail "$problem"
done <<< "$path_problems"

if [ "$failures" -ne 0 ]; then
  echo "check_docs.sh: $failures problem(s)" >&2
  exit 1
fi
echo "check_docs.sh: OK"
