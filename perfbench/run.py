#!/usr/bin/env python3
"""SINTRA-cpp benchmark: client latency and capacity on a real loopback
cluster, CPU per delivery at n=7 on the simulator, per-layer counters.

    python3 perfbench/run.py --workload cluster-open --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The first run builds sintra_node,
dealer_tool and perfbench's own sintra_perf into .bench_build/ (CMake, from
source).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run.  --trace 1
runs the workload untraced and then traced (node --trace-out, the
benchmark's own request spans), and reports the per-layer metrics of the
traced run plus obs.trace_overhead.  Every ratio is printed above the
JSON line with its numerator and denominator, and the full breakdown,
the spans (Chrome trace-event JSON) and all raw inputs stay in
.bench_build/runs/<workload>-s<seed>-<pid>-{plain,traced}/.  See
perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
RUNS = BUILD / "runs"
# Build targets and where CMake puts them inside BUILD.
TARGETS = {"sintra_node": "sintra/examples/sintra_node",
           "dealer_tool": "sintra/examples/dealer_tool",
           "sintra_perf": "sintra_perf"}

N, T = 4, 1
CLK_TCK = os.sysconf("SC_CLK_TCK")
SETUP_REPS = 3
# Group keys come from one fixed dealer seed (sintra_perf sim uses the
# same): how long a seed's prime search happens to take would otherwise
# dominate set-up time.  --seed drives the load (arrivals, client keys,
# payloads, simulator jitter).
DEALER_SEED = 1
# Generator timer lateness above this marks a run invalid: the offered
# load was not the one asked for.
GEN_LATE_LIMIT_MS = 20.0

WORKLOADS = {
    "cluster-open": {"kind": "cluster", "mode": "open", "clients": 256,
                     "rate": 100.0, "headline": "req_p50_ms",
                     "p99_limit_ms": 500.0},
    # By hand only, not in BENCHMARK.json: too noisy on a shared host (see
    # README.md).  The closed loop issues a fixed number of requests per
    # client, sized to take about --seconds at today's capacity, so every
    # run executes the same work (peak RSS grows with requests executed).
    "cluster-closed": {"kind": "cluster", "mode": "closed", "clients": 64,
                       "per_client_per_s": 4.0, "headline": "req_per_s"},
    "sim-n7": {"kind": "sim", "headline": "req_per_s"},
}
HIGHER_IS_BETTER = {"req_per_s"}

END_TO_END_UNITS = {
    "req_p50_ms": "ms", "req_per_s": "req/s",
    "node_cpu_ms_per_req": "ms", "rss_mb": "MB", "setup_s": "s",
}

# Per-layer metrics that do not apply to a kind of workload report 0.
NOT_APPLICABLE = {"cluster": ("sim.",),
                  "sim": ("client.", "link.", "net.", "node.", "gen.")}

# Crypto operations whose per-delivery counts are reported.
CRYPTO_OPS = ["multi_sig.sign_share", "multi_sig.verify_share",
              "coin.release", "coin.verify_share", "coin.assemble"]


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no SINTRA-cpp source tree at {ROOT}")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build_log = BUILD / "build.log"
        with open(build_log, "a") as out:
            if not (BUILD / "CMakeCache.txt").is_file():
                subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                               stdout=out, stderr=subprocess.STDOUT, check=False)
            jobs = str(max(1, min(4, os.cpu_count() or 1)))
            rc = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                                 "--target", *TARGETS],
                                stdout=out, stderr=subprocess.STDOUT).returncode
        if rc != 0:
            tail = build_log.read_text(errors="replace").splitlines()[-30:]
            raise BenchError("build failed:\n" + "\n".join(tail))
    for t in TARGETS:
        if not Path(binary(t)).is_file():
            raise BenchError(f"build produced no {t}")


def binary(name):
    return str(BUILD / TARGETS[name])


# -------------------------------------------------------- process helpers

class Procs:
    """Every child process of a run; reaped on every exit path."""

    def __init__(self):
        self.procs = []

    def start(self, args, **kw):
        p = subprocess.Popen(args, **kw)
        self.procs.append(p)
        return p

    def stop(self, procs=None, grace_s=5.0):
        procs = self.procs if procs is None else procs
        for p in procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + grace_s
        for p in procs:
            try:
                p.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = [p for p in self.procs if p not in procs]


def proc_cpu_s(pid):
    """user+sys CPU seconds of a process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def ports_free(ports):
    socks = []
    try:
        for p in ports:
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            socks.append(s)
            s.bind(("0.0.0.0", p))
        return True
    except OSError:
        return False
    finally:
        for s in socks:
            s.close()


def pick_ports(rng):
    """Replica ports base..base+3 and client lanes base+4..base+7, from a
    per-process random base, checked free.  The range stays below the
    kernel's ephemeral ports: nodes bind with SO_REUSEADDR, which would let
    a node share a port the kernel just handed to another process's
    socket.  A node that still loses a bind race exits at once, and the
    set-up retries on fresh ports."""
    low, _ = map(int, Path("/proc/sys/net/ipv4/ip_local_port_range")
                 .read_text().split())
    for _ in range(64):
        base = rng.randrange(10000, max(low, 20000) - 2 * N)
        ports = list(range(base, base + 2 * N))
        if ports_free(ports):
            return base
    raise BenchError("no free UDP port range")


# ------------------------------------------------------ metrics snapshots

def load_snapshot(path):
    """Parses an obs::Snapshot JSON file into {(kind, name, labels): value}.
    Histograms map to (count, sum)."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for kind in ("counters", "gauges"):
        for m in doc.get(kind, []):
            labels = tuple(sorted(m.get("labels", {}).items()))
            out[(kind, m["name"], labels)] = m["value"]
    for m in doc.get("histograms", []):
        labels = tuple(sorted(m.get("labels", {}).items()))
        out[("histograms", m["name"], labels)] = (m["count"], m["sum"])
    return out


def snap_delta(after, before):
    d = {}
    for k, v in after.items():
        b = before.get(k)
        if isinstance(v, tuple):
            b = b or (0, 0.0)
            d[k] = (v[0] - b[0], v[1] - b[1])
        else:
            d[k] = v - (b or 0)
    return d


def select(d, kind, name, **labels):
    """Values of metric `name` whose labels include `labels`."""
    want = set((k, str(v)) for k, v in labels.items())
    return [v for (k, n, lab), v in d.items()
            if k == kind and n == name and want <= set(lab)]


def total(d, kind, name, **labels):
    return sum(select(d, kind, name, **labels))


def hist(d, name, **labels):
    vals = select(d, "histograms", name, **labels)
    return sum(c for c, _ in vals), sum(s for _, s in vals)


def dispatch_class(layer):
    """Groups obs::layer_of pids (cluster.atomic.r*.cb.*, ...) as the
    per-layer metrics name them."""
    if ".cb." in layer:
        return "cb"
    if ".vba." in layer:
        return "vba"
    if layer.endswith(".r*"):
        return "round"
    return "channel"


class Ratios:
    """Per-layer metrics, each kept with its numerator and denominator."""

    def __init__(self):
        self.rows = {}

    def ratio(self, name, num, den):
        self.rows[name] = {"value": num / den if den else 0.0,
                           "num": num, "den": den}

    def value(self, name, value, basis):
        self.rows[name] = {"value": value, "basis": basis}


# ---------------------------------------------------------------- cluster

def write_cluster_config(work, base):
    lines = [f"n = {N}", f"t = {T}", "rsa_bits = 1024", "dl_p_bits = 1024",
             "dl_q_bits = 160", "hash = sha1", "signatures = multi",
             f"seed = {DEALER_SEED}"]
    lines += [f"party.{i} = 127.0.0.1:{base + i}" for i in range(N)]
    (work / "group.conf").write_text("\n".join(lines) + "\n")


def write_client_keys(work, seed, count):
    secret = random.Random(f"client-keys-{seed}").getrandbits(256)
    (work / "clients.keys").write_text(
        f"clients = {count}\nsecret = {secret:064x}\n")


def signal_snapshots(nodes, work, tag, timeout_s=10.0):
    """SIGUSR1 every node, wait for each fresh metrics snapshot, keep a
    copy as metrics.<i>.<tag>.json, and return the parsed snapshots."""
    paths = [work / f"metrics.{i}.json" for i in range(N)]
    before = [(p.stat().st_ino, p.stat().st_mtime_ns) if p.exists() else None
              for p in paths]
    for p in nodes:
        p.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + timeout_s
    snaps = []
    for i, path in enumerate(paths):
        while True:
            if path.exists():
                st = path.stat()
                if (st.st_ino, st.st_mtime_ns) != before[i]:
                    break
            if time.monotonic() > deadline or nodes[i].poll() is not None:
                raise BenchError(f"node {i} wrote no metrics snapshot")
            time.sleep(0.005)
        for _ in range(50):
            try:
                snaps.append(load_snapshot(path))
                break
            except (ValueError, OSError):
                time.sleep(0.01)
        else:
            raise BenchError(f"unreadable snapshot from node {i}")
        shutil.copy(path, work / f"metrics.{i}.{tag}.json")
    return snaps


def wait_client_lanes(nodes, work, timeout_s=30.0):
    """Waits until every node has bound its client lane.  Requests must not
    race node start-up: a gateway that executes a request before the
    client's datagram ever reached it caches no reply, answers the
    client's retransmits with kStale, and a request whose first datagrams
    reached only one replica then never gets its t+1 kOk quorum.  Returns
    the indices of nodes that exited instead."""
    deadline = time.monotonic() + timeout_s
    pending = set(range(N))
    while pending and time.monotonic() < deadline:
        for i in sorted(pending):
            if "client lane on" in (work / f"node.{i}.err").read_text():
                pending.discard(i)
        dead = [i for i, p in enumerate(nodes) if p.poll() is not None]
        if dead:
            return dead
        time.sleep(0.002)
    if pending:
        raise BenchError(f"nodes {sorted(pending)} never bound a client lane")
    return []


def launch_cluster(procs, work, base, traced):
    nodes = []
    for i in range(N):
        args = [binary("sintra_node"), str(work / "group.conf"),
                str(work / "keys" / f"party-{i}.keys"),
                "--channel", "atomic", "--send", "0", "--linger", "-1",
                "--batch-count", "64", "--pipeline-depth", "4",
                "--crypto-threads", "0",
                "--client-port", str(base + N + i),
                "--client-keys", str(work / "clients.keys"),
                # Admission far above this load: nothing is shed.
                "--client-rate", "100000", "--client-pending", "65536",
                "--out", str(work / f"out.{i}"),
                "--metrics-out", str(work / f"metrics.{i}.json")]
        if traced:
            args += ["--trace-out", str(work / f"trace.{i}.jsonl")]
        with open(work / f"node.{i}.err", "w") as err:
            nodes.append(procs.start(args, stdout=subprocess.DEVNULL,
                                     stderr=err, cwd=work))
    return nodes


def run_cluster_once(cfg, seed, seconds, traced, work):
    """Three set-ups, the last of which is measured.  Returns (figures,
    ratios, outputs-correct, attempted, failed)."""
    procs = Procs()
    rng = random.Random(f"{os.getpid()}-{time.monotonic_ns()}")
    try:
        setups = []
        nodes = gen = None
        attempt = 0
        while len(setups) < SETUP_REPS:
            final = len(setups) == SETUP_REPS - 1
            base = pick_ports(rng)
            for stale in work.glob("*"):
                if stale.is_file():
                    stale.unlink()
            t0 = time.monotonic()
            write_cluster_config(work, base)
            subprocess.run([binary("dealer_tool"), str(work / "group.conf"),
                            str(work / "keys")], check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            write_client_keys(work, seed, cfg["clients"] + 1)
            nodes = launch_cluster(procs, work, base, traced and final)
            dead = wait_client_lanes(nodes, work)
            if dead:
                procs.stop()
                attempt += 1
                if attempt < 5:
                    log(f"# nodes {dead} exited during set-up; new ports")
                    continue
                raise BenchError(f"nodes {dead} keep exiting during set-up")
            targets = ",".join(f"127.0.0.1:{base + N + i}" for i in range(N))
            gen_args = [binary("sintra_perf"), "gen",
                        "--keys", str(work / "clients.keys"),
                        "--targets", targets,
                        "--mode", cfg["mode"], "--clients", str(cfg["clients"]),
                        "--rate", str(cfg.get("rate", 0)),
                        "--requests-per-client",
                        str(round(cfg.get("per_client_per_s", 0) * seconds)),
                        "--seconds", str(seconds), "--seed", str(seed),
                        "--result", str(work / "gen.json")]
            if not final:
                gen_args.append("--warmup-only")
            if traced and final:
                gen_args += ["--spans", str(work / "spans.json")]
            with open(work / "gen.err", "w") as err:
                gen = procs.start(gen_args, stdout=subprocess.PIPE,
                                  stderr=err, text=True, cwd=work)
            line = gen.stdout.readline().split()
            if not line or line[0] != "READY":
                raise BenchError("cluster never answered the warm-up request")
            setups.append(float(line[1]) / 1000.0 - t0)
            if not final:
                gen.wait()
                procs.stop()

        # Measured run: the generator prints START after its own warm-up
        # load and END once every request it issued has settled.
        line = gen.stdout.readline().split()
        if not line or line[0] != "START":
            raise BenchError("generator died before the measured window")
        cpu0 = [proc_cpu_s(p.pid) for p in nodes]
        t_start = time.monotonic()
        snaps0 = signal_snapshots(nodes, work, "start")
        line = gen.stdout.readline().split()
        if not line or line[0] != "END":
            raise BenchError("generator died inside the measured window")
        gen.wait(timeout=60)
        with open(work / "gen.json") as f:
            g = json.load(f)

        # Convergence: every node has executed every request (client lane
        # traffic is the only load, so equal executed counts mean equal
        # logs if the order is total).
        want = g["completed"]
        deadline = time.monotonic() + 30
        while True:
            snaps1 = signal_snapshots(nodes, work, "end")
            executed = [total(s, "counters", "client.executed") for s in snaps1]
            if all(e >= want for e in executed):
                break
            if time.monotonic() > deadline:
                raise BenchError(f"nodes did not converge: {executed} < {want}")
            time.sleep(0.05)
        cpu1 = [proc_cpu_s(p.pid) for p in nodes]
        wall = time.monotonic() - t_start
        rss = sum(proc_hwm_mb(p.pid) for p in nodes)
        procs.stop(nodes)
        gen_rc = gen.returncode
        procs.stop()
    finally:
        procs.stop()

    checks = check_cluster_outputs(work, g, gen_rc)
    base_n = g["measured"]
    cpu_ms = sum(b - a for a, b in zip(cpu0, cpu1)) * 1000.0
    figures = {
        "req_p50_ms": g["p50_ms"],
        "req_per_s": g["req_per_s"],
        "node_cpu_ms_per_req": cpu_ms / base_n if base_n else 0.0,
        "rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    if g["gen_late_p99_ms"] > GEN_LATE_LIMIT_MS:
        raise BenchError(
            f"generator fell behind (timer lateness p99 "
            f"{g['gen_late_p99_ms']:.1f} ms > {GEN_LATE_LIMIT_MS} ms): "
            "run invalid")
    ratios = cluster_ratios(snaps0, snaps1, g, cpu_ms, wall)
    attempted = g["requests"]
    failed = g["failed"]
    log(f"# {cfg['mode']}: {attempted} requests, {failed} failed, "
        f"{g['measured']} measured, p50 {g['p50_ms']:.1f} ms, p99 "
        f"{g['p99_ms']:.1f} ms, {g['req_per_s']:.1f} req/s, gen lateness p99 "
        f"{g['gen_late_p99_ms']:.2f} ms, setup {figures['setup_s']:.3f} s")
    limit = cfg.get("p99_limit_ms")
    if limit is not None:
        log(f"# latency limit p99 <= {limit:.0f} ms: "
            f"{'met' if g['p99_ms'] <= limit and failed == 0 else 'MISSED'}")
    return figures, ratios, checks, attempted, failed


def check_cluster_outputs(work, g, gen_rc):
    """Every request reached a t+1 kOk quorum, the completed requests'
    global_seqs are distinct, and all nodes logged the same executed
    sequence — the one the replies' global_seqs describe."""
    problems = []
    if gen_rc != 0 or not g["complete"]:
        problems.append("generator did not complete its load")
    if g["failed"]:
        problems.append(f"{g['failed']} requests without a kOk quorum")
    if not g["global_seq_distinct"]:
        problems.append("two requests share a global_seq")
    logs = []
    for i in range(N):
        lines = (work / f"out.{i}").read_text().splitlines()
        logs.append([ln[len("DELIVER "):] for ln in lines
                     if ln.startswith("DELIVER ")])
    if any(lg != logs[0] for lg in logs[1:]):
        problems.append("node logs differ")
    replies = {}
    for ln in (work / "gen.json.log").read_text().splitlines():
        gseq, payload = ln.split(" ")[:2]
        replies[payload] = int(gseq)
    seq = logs[0]
    if len(seq) != len(replies) or len(set(seq)) != len(seq):
        problems.append(f"executed {len(seq)} payloads for "
                        f"{len(replies)} completed requests")
    elif any(seq[gs] != p for p, gs in replies.items() if gs < len(seq)):
        problems.append("a reply's global_seq does not match the log")
    for p in problems:
        log(f"# CHECK FAILED: {p}")
    return not problems


def cluster_ratios(s0, s1, g, cpu_ms, wall_s):
    d = [snap_delta(b, a) for a, b in zip(s0, s1)]
    r = Ratios()
    executed = total(d[0], "counters", "client.executed")
    r.value("client.req_p99_ms", g["p99_ms"],
            f"due time -> t+1 kOk replies, p99 of {g['measured']} requests")
    r.ratio("client.retransmits_per_req", g["registry_retransmits"],
            g["registry_requests"])
    r.ratio("client.orders_per_exec",
            total(d[0], "counters", "channel.deliveries"), executed)
    r.value("client.reply_spread_ms", g["reply_spread_p50_ms"],
            f"p50 over {g['spread_samples']} requests with all {N} replies")
    r.ratio("client.dedup_hits_per_req",
            sum(total(x, "counters", "client.dedup_hits") for x in d),
            executed)
    rounds = total(d[0], "counters", "channel.rounds")
    r.ratio("channel.reqs_per_round", executed, rounds)
    c, s = hist(d[0], "channel.round_ms")
    r.ratio("channel.round_ms", s, c)
    r.ratio("channel.parked_per_round",
            total(d[0], "counters", "channel.parked_batches"), rounds)
    c, s = hist(d[0], "channel.mvba_iterations")
    r.ratio("channel.mvba_iters_per_round", s, c)
    hs = [hist(x, "ba.rounds_to_decide") for x in d]
    r.ratio("ba.rounds_per_decision", sum(s for _, s in hs),
            sum(c for c, _ in hs))
    dispatcher_ratios(r, d, executed)
    r.ratio("dispatcher.early_buffered_per_del",
            sum(total(x, "counters", "dispatcher.early_buffered") for x in d),
            executed)
    data = sum(total(x, "gauges", "link.data_received") for x in d)
    r.ratio("link.retrans_ratio",
            sum(total(x, "gauges", "link.retransmissions") for x in d), data)
    r.ratio("link.dup_drop_ratio",
            sum(total(x, "gauges", "link.drop_duplicate") for x in d), data)
    srtt = [v for x in s1 for v in select(x, "gauges", "link.srtt_ms")]
    r.ratio("link.srtt_ms", sum(srtt), len(srtt))
    r.ratio("net.syscalls_per_req",
            sum(total(x, "gauges", "net.tx_syscalls") +
                total(x, "gauges", "net.rx_syscalls") for x in d),
            executed)
    r.ratio("net.datagrams_per_req",
            sum(total(x, "counters", "net.datagrams_sent") for x in d),
            executed)
    r.ratio("net.bytes_per_req",
            sum(total(x, "counters", "net.bytes_sent") for x in d),
            executed)
    r.ratio("node.cpu_util", cpu_ms / 1000.0, wall_s * N)
    work = sum(total(x, "gauges", "crypto.work_units") for x in d)
    crypto_ratios(r, d, work, executed)
    r.value("gen.late_p99_ms", g["gen_late_p99_ms"],
            "generator timer lateness, p99 over all load requests")
    return r


def dispatcher_ratios(r, d, deliveries):
    per = dict.fromkeys(("channel", "round", "cb", "vba"), 0.0)
    for x in d:
        for (kind, name, labels), v in x.items():
            if kind == "histograms" and name == "dispatcher.handle_ms":
                layer = dict(labels).get("layer", "")
                per[dispatch_class(layer)] += v[1]
    for cls, ms in per.items():
        r.ratio(f"dispatcher.self_ms_per_del.{cls}", ms, deliveries)


def crypto_ratios(r, d, work_units, deliveries):
    r.ratio("crypto.work_per_del", work_units, deliveries)
    scoped = sum(total(x, "counters", "crypto.work") for x in d)
    r.ratio("crypto.unscoped_work_share", work_units - scoped, work_units)
    for op in CRYPTO_OPS:
        r.ratio(f"crypto.ops_per_del.{op}",
                sum(total(x, "counters", "crypto.ops", op=op) for x in d),
                deliveries)


def micro_ratios(r, micro):
    r.value("crypto.rsa_verify_us", micro["rsa_verify_us"],
            "median timed PartyKeys::verify_party_sig on the workload's keys")
    r.value("crypto.sign_share_us", micro["sign_share_us"],
            "median timed sig_agreement->sign_share on the workload's keys")
    r.value("bignum.modexp1024_us", micro["modexp1024_us"],
            "median timed Montgomery::pow, 1024-bit modulus and exponent")


def drop_event_traces(work):
    """The library's event traces only exist to make the traced run pay
    for tracing; they are megabytes per second, so only their size stays."""
    for trace in sorted(work.glob("trace*.jsonl")):
        log(f"# event trace {trace.name}: {trace.stat().st_size} bytes")
        trace.unlink()


def run_cluster(name, cfg, seed, seconds, traced):
    work = new_workdir(name, seed, "traced" if traced else "plain")
    figures, ratios, ok, attempted, failed = run_cluster_once(
        cfg, seed, seconds, traced, work)
    if traced:
        out = work / "micro.json"
        subprocess.run([binary("sintra_perf"), "micro", "--keys",
                        str(work / "keys" / "party-0.keys"),
                        "--result", str(out)], check=True)
        micro_ratios(ratios, json.loads(out.read_text()))
        drop_event_traces(work)
    return figures, ratios, ok, attempted, failed, work


# -------------------------------------------------------------------- sim

def sim_setup_s(work, seed):
    """Dealer + simulator + channels until the first simulated event, in
    a fresh process each time (the dealer memoizes keys per process)."""
    t0 = time.monotonic()
    out = subprocess.run([binary("sintra_perf"), "sim", "--seed", str(seed),
                          "--seconds", "0", "--result", str(work / "setup.json"),
                          "--setup-only"], cwd=work, check=True,
                         stdout=subprocess.PIPE, text=True, timeout=60).stdout
    ready = out.split()
    if len(ready) != 2 or ready[0] != "READY":
        raise BenchError("sim set-up printed no READY line")
    return float(ready[1]) / 1000.0 - t0


def run_sim(name, cfg, seed, seconds, traced):
    work = new_workdir(name, seed, "traced" if traced else "plain")
    setups = [sim_setup_s(work, seed) for _ in range(SETUP_REPS)]
    args = [binary("sintra_perf"), "sim", "--seed", str(seed),
            "--seconds", str(seconds), "--result", str(work / "sim.json")]
    if traced:
        args += ["--snapshot", str(work / "registry.json"),
                 "--spans", str(work / "spans.json"),
                 "--trace-out", str(work / "trace.jsonl"), "--micro"]
    with open(work / "sim.err", "w") as err:
        rc = subprocess.run(args, cwd=work, timeout=170,
                            stdout=subprocess.DEVNULL, stderr=err).returncode
    if not (work / "sim.json").exists():
        raise BenchError(f"sim run produced no result (exit {rc})")
    s = json.loads((work / "sim.json").read_text())
    ok = rc == 0 and s["correct"]
    if not ok:
        log("# CHECK FAILED: live parties' delivery sequences differ or "
            "miss/duplicate a payload")
    p0 = s["p0_deliveries"]
    figures = {
        "req_p50_ms": s["virt_p50_ms"],
        "req_per_s": s["del_per_s"],
        "node_cpu_ms_per_req": s["cpu_ms"] / p0 if p0 else 0.0,
        "rss_mb": s["rss_mb"],
        "setup_s": statistics.median(setups),
    }
    log(f"# sim-n7: {s['reps']} runs, {p0} P0 deliveries, "
        f"{s['del_per_s']:.1f} del/s wall, {s['virt_del_per_s']:.3f} del/s "
        f"virtual, virtual p50 {s['virt_p50_ms']:.0f} ms, run walls "
        f"{[round(w) for w in s['rep_wall_ms']]} ms")
    ratios = None
    if traced:
        ratios = sim_ratios(work, s)
        drop_event_traces(work)
    return figures, ratios, ok, p0, 0 if ok else p0, work


def sim_ratios(work, s):
    d = [snap_delta(load_snapshot(work / "registry.json"),
                    load_snapshot(work / "registry.json.before"))]
    p0 = s["p0_deliveries"]
    r = Ratios()
    p0d = select(d[0], "counters", "channel.deliveries", party="0")
    rounds = total(d[0], "counters", "channel.rounds", party="0")
    r.ratio("channel.reqs_per_round", sum(p0d), rounds)
    c, sm = hist(d[0], "channel.round_ms", party="0")
    r.ratio("channel.round_ms", sm, c)
    r.ratio("channel.parked_per_round",
            total(d[0], "counters", "channel.parked_batches", party="0"),
            rounds)
    c, sm = hist(d[0], "channel.mvba_iterations", party="0")
    r.ratio("channel.mvba_iters_per_round", sm, c)
    c, sm = hist(d[0], "ba.rounds_to_decide")
    r.ratio("ba.rounds_per_decision", sm, c)
    dispatcher_ratios(r, d, p0)
    r.ratio("dispatcher.early_buffered_per_del",
            total(d[0], "counters", "dispatcher.early_buffered"), p0)
    crypto_ratios(r, d, s["work_units"], p0)
    micro_ratios(r, s["micro"])
    r.value("sim.virt_p99_ms", s["virt_p99_ms"],
            "submit -> delivery at each live party, virtual, p99")
    r.ratio("sim.msgs_per_del", s["messages"], p0)
    r.ratio("sim.bytes_per_del", s["bytes"], p0)
    r.ratio("sim.del_per_s", p0, s["wall_ms"] / 1000.0)
    r.ratio("sim.virt_del_per_s", s["virt_deliveries"],
            s["virt_ms"] / 1000.0)
    return r


# ------------------------------------------------------------------- main

def new_workdir(name, seed, tag):
    work = RUNS / f"{name}-s{seed}-{os.getpid()}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def per_layer_units():
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    cfg = WORKLOADS[a.workload]
    runner = run_cluster if cfg["kind"] == "cluster" else run_sim
    figures, _, ok, attempted, failed, _ = runner(
        a.workload, cfg, a.seed, a.seconds, False)
    for k, v in figures.items():
        log(f"{k} = {v:.6g} {END_TO_END_UNITS[k]}")
    if a.trace == 0:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in figures.items()}
    else:
        tfig, ratios, tok, tatt, tfail, work = runner(
            a.workload, cfg, a.seed, a.seconds, True)
        ok, attempted, failed = ok and tok, attempted + tatt, failed + tfail
        head = cfg["headline"]
        plain, traced = figures[head], tfig[head]
        if head in HIGHER_IS_BETTER:
            ratios.ratio("obs.trace_overhead", plain, traced)
        else:
            ratios.ratio("obs.trace_overhead", traced, plain)
        units = per_layer_units()
        for name in units:
            if name.startswith(NOT_APPLICABLE[cfg["kind"]]):
                ratios.value(name, 0.0, "does not apply to this workload")
            elif name not in ratios.rows:
                raise BenchError(f"per-layer metric {name} was not collected")
        report = {"workload": a.workload, "seed": a.seed,
                  "untraced": figures, "traced": tfig, "per_layer": ratios.rows}
        (work / "layers.json").write_text(json.dumps(report, indent=1) + "\n")
        print(f"# per-layer breakdown ({a.workload}, seed {a.seed}, traced "
              f"run; spans in {work.relative_to(ROOT)}/spans.json)")
        for name, row in ratios.rows.items():
            basis = (f"({row['num']:.6g} / {row['den']:.6g})" if "num" in row
                     else row.get("basis", ""))
            print(f"#   {name} = {row['value']:.6g} {units.get(name, '')}  "
                  f"{basis}")
        metrics = {name: {"value": ratios.rows[name]["value"], "unit": unit}
                   for name, unit in units.items()}
    print(json.dumps({"correct": bool(ok), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # A SIGTERM unwinds through the `finally` blocks, which stop and reap
    # every child process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
    except subprocess.CalledProcessError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
