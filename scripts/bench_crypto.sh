#!/usr/bin/env bash
# Runs the crypto-substrate microbenchmarks and distills them into
# BENCH_crypto.json at the repo root: ns/op and Montgomery work units per
# operation for every benchmark (the hash and Montgomery-kernel rows also
# record their kernel, the hash rows MB/s), plus the work-unit speedup
# ratios of the combine-first and fixed-base fast paths, the same-run
# dispatched-vs-portable Montgomery kernel ratio, and the wall-clock
# before/after for the 64-bit limb rework, measured against the recorded
# 32-bit modexp figure in scripts/bench_baselines.json (docs/CRYPTO.md
# explains the gates).
#
# Usage: scripts/bench_crypto.sh [build_dir]   (default: ./build)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

if [[ ! -d "$build_dir" ]]; then
  cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$build_dir" --target crypto_micro -j"$(nproc)"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

"$build_dir/bench/crypto_micro" \
  --benchmark_format=json \
  --benchmark_min_time="${SINTRA_BENCH_MIN_TIME:-0.2}" \
  --benchmark_out="$raw" \
  --benchmark_out_format=json

python3 - "$raw" "$repo_root/BENCH_crypto.json" \
  "$repo_root/scripts/bench_baselines.json" <<'PY'
import json
import os
import platform
import sys

raw_path, out_path, baselines_path = sys.argv[1], sys.argv[2], sys.argv[3]
with open(raw_path) as f:
    raw = json.load(f)

benchmarks = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    benchmarks[b["name"]] = {
        "ns_per_op": round(b["real_time"], 1),
        "work_units_per_op": round(b.get("work_per_op", 0.0)),
    }
    # The hash and Montgomery rows name the kernel that ran (portable,
    # sha_ni or mulx_adx); the hash rows also record their throughput.
    if b.get("label"):
        benchmarks[b["name"]]["kernel"] = b["label"]
    if "bytes_per_second" in b:
        benchmarks[b["name"]]["mb_per_s"] = round(b["bytes_per_second"] / 1e6)

def ratio(seed, fast):
    s, f = benchmarks.get(seed), benchmarks.get(fast)
    if not s or not f or not f["work_units_per_op"]:
        return None
    return round(s["work_units_per_op"] / f["work_units_per_op"], 2)

out = {
    "description": "Crypto microbenchmarks: wall-clock ns/op and Montgomery "
                   "work-counter units/op (the unit driving simulated time). "
                   "*Fast benchmarks use the shipped multi-exp/comb paths; "
                   "BM_Sha1/BM_Sha256/BM_HmacSha1 run the portable "
                   "(dispatched:0) or the dispatched (dispatched:1) "
                   "compression kernel, BM_Modexp/BM_RsaSignCrt/"
                   "BM_CoinRelease the portable or the dispatched "
                   "Montgomery kernel set, named in 'kernel'.",
    "context": {
        "date": raw.get("context", {}).get("date"),
        # The build type crypto_micro was compiled with (libbenchmark's
        # own library_build_type describes libbenchmark).
        "build_type": raw.get("context", {}).get("sintra_build_type"),
        "group": "dl_p=1024, dl_q=160, n=4, t=1, hash=sha1",
    },
    "benchmarks": benchmarks,
    "speedups_work_units": {
        "fixed_base_exp": ratio("BM_SingleExp", "BM_SingleExpFixedBase"),
        # Eager per-share verification vs the combine-first fast paths
        # (fault-free trace; the acceptance bar for both is >= 2x).
        "threshold_combine": ratio("BM_ThresholdCombine_Eager/512",
                                   "BM_ThresholdCombine_Optimistic/512"),
        "threshold_combine_1024": ratio("BM_ThresholdCombine_Eager/1024",
                                        "BM_ThresholdCombine_Optimistic/1024"),
        "coin_assemble": ratio("BM_CoinAssemble_Eager",
                               "BM_CoinAssemble_Optimistic"),
    },
}

# --- 64-bit limb rework: wall-clock before/after (PR 8) ---
# "Before" is the 32-bit limb layer's 1024-bit modexp as recorded in
# scripts/bench_baselines.json (that layer has been deleted).  The PR 7
# numbers recorded in the pre-rework BENCH_crypto.json are kept alongside
# for reference.
PR7_RECORDED_NS = {"BM_Modexp/1024": 2066479.3,
                   "BM_Tdh2DecryptShare": 2465605.1}

def wall_ns(name):
    """ns/op of a row; a name without a kernel suffix means the row that
    runs the kernel this CPU dispatches to."""
    b = benchmarks.get(name) or benchmarks.get(name + "/dispatched:1")
    return b["ns_per_op"] if b else None

# --- Montgomery kernels: same-run dispatched vs portable ---
kernel_rows = {}
for name in ("BM_Modexp/1024", "BM_Modexp/512", "BM_RsaSignCrt/1024",
             "BM_CoinRelease"):
    portable = benchmarks.get(name + "/dispatched:0")
    dispatched = benchmarks.get(name + "/dispatched:1")
    if portable and dispatched:
        kernel_rows[name] = {
            "kernel": dispatched.get("kernel"),
            "portable_ns": portable["ns_per_op"],
            "dispatched_ns": dispatched["ns_per_op"],
            "speedup": round(portable["ns_per_op"]
                             / dispatched["ns_per_op"], 2),
        }
out["montgomery_kernels"] = kernel_rows

# --- Recorded baselines (PR 9): scripts/bench_baselines.json holds the
# PR 8 wall-clock figures: the 32-bit modexp "before" figure for the gate
# below, and on a matching machine every live figure must stay within
# regression_tolerance of its baseline.
with open(baselines_path) as f:
    baselines = json.load(f)

before_ns = baselines["wall_clock_ns"]["BM_ModexpRef32/1024"]
live_ns = wall_ns("BM_Modexp/1024")
tdh2_ns = wall_ns("BM_Tdh2DecryptShare")
out["limb_rework_wall_clock"] = {
    "modexp_1024_before_ns": before_ns,
    "modexp_1024_after_ns": live_ns,
    "modexp_1024_speedup": (round(before_ns / live_ns, 2)
                            if live_ns else None),
    "tdh2_decrypt_share_after_ns": tdh2_ns,
    "tdh2_decrypt_share_speedup_vs_pr7": (
        round(PR7_RECORDED_NS["BM_Tdh2DecryptShare"] / tdh2_ns, 2)
        if tdh2_ns else None),
    "pr7_recorded_ns": PR7_RECORDED_NS,
}

with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

sp = out["speedups_work_units"]
print(f"wrote {out_path}")
print(f"  threshold_combine speedup (work units): {sp['threshold_combine']}x")
print(f"  coin_assemble speedup (work units):     {sp['coin_assemble']}x")
for key in ("threshold_combine", "coin_assemble"):
    if sp[key] is None or sp[key] < 2.0:
        sys.exit(f"FAIL: {key} optimistic speedup {sp[key]}x is below the "
                 "2x acceptance bar")
# --- Montgomery kernel gate: a ratio of two rows of this run, so it
# holds on any machine; it applies when the CPU dispatches to MULX/ADX.
mk = kernel_rows.get("BM_Modexp/1024")
if mk is None:
    sys.exit("FAIL: BM_Modexp/1024 portable/dispatched rows missing")
print(f"  Montgomery kernels ({mk['kernel']}): modexp-1024 "
      f"{mk['speedup']}x over portable in this run")
if mk["kernel"] != "portable" and mk["speedup"] < 1.8:
    sys.exit(f"FAIL: dispatched Montgomery kernels {mk['speedup']}x over "
             "portable on 1024-bit modexp, below the 1.8x acceptance bar")

# --- Gates against recorded figures: they divide numbers measured on
# another machine, so they apply only on one that matches the record.
rec = baselines.get("recorded", {})
same_machine = (rec.get("machine") == platform.machine()
                and rec.get("cores") == os.cpu_count())
wall = out["limb_rework_wall_clock"]["modexp_1024_speedup"]
print(f"  limb rework wall-clock speedup (modexp-1024, vs 32-bit "
      f"baseline): {wall}x")
if same_machine and (wall is None or wall < 2.0):
    sys.exit(f"FAIL: 64-bit limb rework wall-clock speedup {wall}x on "
             "1024-bit modexp is below the 2x acceptance bar")
tol = baselines.get("regression_tolerance", 1.5)
worst = []
for name, base_ns in baselines["wall_clock_ns"].items():
    cur = wall_ns(name)
    if cur is None:  # recorded only (the deleted 32-bit layer) — fine
        continue
    ratio = cur / base_ns
    if ratio > tol:
        worst.append(f"{name}: {cur:.0f}ns vs baseline {base_ns:.0f}ns "
                     f"({ratio:.2f}x > {tol}x)")
if same_machine:
    if worst:
        sys.exit("FAIL: wall-clock regression vs "
                 "scripts/bench_baselines.json:\n  " + "\n  ".join(worst))
    print(f"  recorded-baseline gate: all tracked benchmarks within "
          f"{tol}x of the PR {rec.get('pr')} figures")
else:
    print("  recorded-baseline and limb-rework gates: skipped (different "
          "machine: "
          f"{platform.machine()}/{os.cpu_count()} cores vs recorded "
          f"{rec.get('machine')}/{rec.get('cores')})")
    if worst:
        print("  note (informational): " + "; ".join(worst))
PY
