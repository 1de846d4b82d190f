#!/usr/bin/env bash
# Group-size scaling benchmark, distilled into BENCH_scale.json (repo root
# by default; DESIGN.md §14; README "Scaling the group").
#
# Three measurement families:
#   scale-nN        bench/scale_sweep --sweep on the discrete-event
#                   simulator at n ∈ {4, 7, 10, 16, 31}: deliveries/sec
#                   (virtual AND wall clock), crypto work units per
#                   delivery, and datagrams-per-delivery (= syscalls per
#                   delivery on the unbatched transport, 2 kernel
#                   round-trips per datagram).
#   fallback-n16    the crypto-layer gate: at n=16 one Byzantine share
#                   forces per-share verification, timed serial (the
#                   pre-PR path) vs WorkPool-parallel in one process.
#   cluster-n7-*    a real 7-process loopback cluster (sintra_node over
#                   UDP, via scripts/run_local_cluster.sh) run twice —
#                   with the default sendmmsg/recvmmsg transport
#                   (cluster-n7-mmsg) and with --no-mmsg
#                   (cluster-n7-sendto) — comparing measured
#                   syscalls-per-delivery from the net.tx_syscalls /
#                   net.rx_syscalls gauges.
#
# Gate (>= 2x, optimized vs pre-PR baseline, measured in the same run):
# on machines with >= 4 hardware threads the basis is the fallback-n16
# wall-clock speedup (parallel share verification); on smaller machines —
# where a parallel verify physically cannot beat serial — the basis is
# the cluster-n7 syscall reduction, which batching delivers regardless
# of core count.  Both figures are always recorded.
#
# Usage: scripts/bench_scale.sh [build_dir [out_json]]
#   build_dir defaults to ./build; out_json to BENCH_scale.json at the
#   repo root (the recorded trajectory).  ctest passes a path in the
#   build dir.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_json="${2:-$repo_root/BENCH_scale.json}"

if [[ ! -d "$build_dir" ]]; then
  cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$build_dir" --target scale_sweep sintra_node dealer_tool \
  udp_chaos_proxy -j"$(nproc)"

bench="$build_dir/bench/scale_sweep"
raw="$(mktemp)"
mdir_mmsg="$(mktemp -d)"
mdir_sendto="$(mktemp -d)"
trap 'rm -rf "$raw" "$mdir_mmsg" "$mdir_sendto"' EXIT

# Simulator sweep: message counts taper with n so the n=31 run (whose
# real crypto is ~100x a n=4 delivery) keeps the suite quick.
for spec in 4:40 7:32 10:24 16:16 31:8; do
  n="${spec%%:*}"; msgs="${spec##*:}"
  echo "# scale: sweep n=$n" >&2
  "$bench" --sweep --n "$n" --messages "$msgs" >>"$raw"
done

echo "# scale: fallback gate n=16" >&2
"$bench" --fallback-gate --n 16 --reps 3 >>"$raw"

# Real-cluster datapoint: identical n=7 workload, batched vs unbatched
# syscalls.  Wall time is recorded but the cross-run comparison is the
# syscall counters — loopback wall clock is scheduler noise at this size.
cluster_send="${SINTRA_BENCH_SCALE_SEND:-4}"
echo "# scale: cluster n=7 (mmsg)" >&2
t0="$(date +%s.%N)"
"$repo_root/scripts/run_local_cluster.sh" --n 7 --send "$cluster_send" \
  --build-dir "$build_dir" --metrics-dir "$mdir_mmsg" >&2
t1="$(date +%s.%N)"
mmsg_wall="$(awk "BEGIN{printf \"%.3f\", $t1-$t0}")"

echo "# scale: cluster n=7 (--no-mmsg)" >&2
t0="$(date +%s.%N)"
"$repo_root/scripts/run_local_cluster.sh" --n 7 --send "$cluster_send" \
  --no-mmsg --build-dir "$build_dir" --metrics-dir "$mdir_sendto" >&2
t1="$(date +%s.%N)"
sendto_wall="$(awk "BEGIN{printf \"%.3f\", $t1-$t0}")"

python3 - "$raw" "$mdir_mmsg" "$mdir_sendto" "$mmsg_wall" "$sendto_wall" \
  "$out_json" <<'PY'
import glob
import json
import os
import sys

raw_path, mdir_mmsg, mdir_sendto, mmsg_wall, sendto_wall, out_path = \
    sys.argv[1:7]

runs = {}
fallback = None
with open(raw_path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        r = json.loads(line)
        if r["mode"] == "sweep":
            runs[f"scale-n{r['n']}"] = r
            if not r.get("completed"):
                sys.exit(f"FAIL: sweep n={r['n']} did not complete")
        else:
            fallback = r
            runs["fallback-n16"] = r
if fallback is None:
    sys.exit("FAIL: no fallback-gate record")

def cluster_point(mdir, wall_s):
    with open(os.path.join(mdir, "cluster.json")) as f:
        summary = json.load(f)
    tx = rx = 0.0
    snapshots = sorted(glob.glob(os.path.join(mdir, "metrics.*.json")))
    if not snapshots:
        sys.exit(f"FAIL: no metrics snapshots in {mdir}")
    for path in snapshots:
        with open(path) as f:
            doc = json.load(f)
        for g in doc.get("gauges", []):
            if g["name"] == "net.tx_syscalls":
                tx += g["value"]
            elif g["name"] == "net.rx_syscalls":
                rx += g["value"]
    deliveries = summary["deliveries"]
    if deliveries <= 0 or tx + rx <= 0:
        sys.exit(f"FAIL: empty cluster datapoint in {mdir}")
    summary.update(
        nodes=len(snapshots),
        wall_s=float(wall_s),
        tx_syscalls=int(tx),
        rx_syscalls=int(rx),
        # Group-wide kernel round-trips per totally-ordered delivery.
        syscalls_per_delivery=round((tx + rx) / deliveries, 1),
    )
    return summary

mmsg = cluster_point(mdir_mmsg, mmsg_wall)
sendto = cluster_point(mdir_sendto, sendto_wall)
runs["cluster-n7-mmsg"] = mmsg
runs["cluster-n7-sendto"] = sendto

syscall_reduction = round(
    sendto["syscalls_per_delivery"] / mmsg["syscalls_per_delivery"], 2)

threads = fallback["threads"]
if threads >= 4:
    basis, measured = "parallel_fallback", fallback["speedup"]
else:
    basis, measured = "syscall_batching", syscall_reduction
gate = {
    "required": 2.0,
    "basis": basis,
    "measured": measured,
    "parallel_fallback_speedup": fallback["speedup"],
    "threads": threads,
    "cluster_syscall_reduction": syscall_reduction,
    "pass": measured >= 2.0,
}

out = {
    "description": "Group-size scaling (n = 4..31): scale-nN rows are the "
                   "discrete-event simulator sweep (deliveries/sec in "
                   "virtual and wall clock, crypto work units per "
                   "delivery, datagrams per delivery); fallback-n16 times "
                   "the Byzantine-share verification fallback serial vs "
                   "WorkPool-parallel in one process; cluster-n7-mmsg / "
                   "cluster-n7-sendto are a real 7-process loopback "
                   "cluster with the batched-syscall transport on vs off, "
                   "compared by measured syscalls per delivery.  The gate "
                   "requires the optimized path to beat the pre-PR "
                   "baseline 2x in the same run (basis picked by core "
                   "count; see scripts/bench_scale.sh).",
    "runs": runs,
    "gate": gate,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
for name in sorted(k for k in runs if k.startswith("scale-")):
    r = runs[name]
    print(f"  {name}: virtual {r['virtual_del_per_sec']}/s, "
          f"wall {r['wall_del_per_sec']}/s, "
          f"{r['datagrams_per_delivery']} datagrams/delivery")
print(f"  fallback-n16: serial {fallback['serial_ms']}ms, parallel "
      f"{fallback['parallel_ms']}ms ({fallback['speedup']}x, "
      f"{threads} threads)")
print(f"  cluster-n7: {sendto['syscalls_per_delivery']} -> "
      f"{mmsg['syscalls_per_delivery']} syscalls/delivery "
      f"({syscall_reduction}x reduction)")
print(f"  gate[{basis}]: {measured}x (need >= 2.0)")
if not gate["pass"]:
    sys.exit(f"FAIL: scaling gate {measured}x is below the 2x acceptance bar")
PY
