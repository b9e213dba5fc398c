#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness in perfbench/ against the runtime in src/ (into
$CARGO_TARGET_DIR, default .bench_build), runs one workload for the given
time and prints every metric by name and unit.  The last line of standard
output is a JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones, from a run that alternates traced and
untraced repetitions.
The exit code is non-zero when any repetition failed its output check, and
when the harness cannot be built or run (then no result is printed).

perfbench/README.md explains the workloads and every metric.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("host-dag", "cluster-matmul", "cluster-protocol")
HARNESS_TIMEOUT_S = 160

# Metric name -> unit.  BENCHMARK.json declares the same names; selftest.py
# checks that the two agree.
END_TO_END = {
    "wall_time_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer values the harness derives from counter deltas of one traced
# repetition (the median over traced repetitions is reported).
COUNTER_LAYERS = {
    "ompss.spawn_us.p50": "us",
    "ompss.spawn_us.p99": "us",
    "dep.lookups": "count",
    "dep.records_scanned": "count",
    "dep.arcs": "count",
    "dep.scan_ratio": "ratio",
    "sched.steals": "count",
    "sched.lock_collisions": "count",
    "sched.spurious_wakes": "count",
    "sched.spurious_wakes_per_task": "ratio",
    "tasks.spawned": "count",
    "tasks.executed": "count",
    "tasks.failed": "count",
    "rss_bytes_per_task": "B",
    "coh.hits": "count",
    "coh.misses": "count",
    "coh.hit_ratio": "ratio",
    "coh.h2d_bytes": "B",
    "coh.d2h_bytes": "B",
    "coh.evictions": "count",
    "cluster.stagings": "count",
    "cluster.stos_transfers": "count",
    "cluster.mtos_relays": "count",
    "cluster.master_tx_bytes": "B",
    "cluster.stage_latency.mean": "s",
    "cluster.stage_latency.max": "s",
    "cluster.transfer_latency.mean": "s",
    "cluster.transfer_latency.max": "s",
    "cluster.exec_latency.mean": "s",
    "cluster.exec_latency.max": "s",
    "cluster.homed_commits": "count",
    "cluster.master_commit_share": "ratio",
    "cluster.done_replays": "count",
    "cluster.ack_batches": "count",
    "cluster.ack_tickets_per_batch": "ratio",
    "simnet.am_msgs": "count",
    "simnet.am_batches": "count",
    "simnet.am_subs_per_batch": "ratio",
    "simnet.tx_bytes": "B",
    "simnet.master_tx_share": "ratio",
    "simnet.tx_bulk_qlen.mean": "count",
    "simnet.tx_bulk_qlen.max": "count",
    "simcuda.kernel_flops": "flop",
    "simcuda.h2d_bytes": "B",
    "simcuda.d2h_bytes": "B",
}

# Per-layer values computed here, across repetitions or from trace files.
RUN_LAYERS = {
    "ompss.taskwait_s": "s",
    "ompss.env_s": "s",
    "simcuda.gpus": "count",
    "simcuda.kernel_busy_frac": "ratio",
    "simcuda.copy_busy_frac": "ratio",
    "vt_time_s": "s",
    "vt.time_spread": "ratio",
    "vt.reps": "count",
    "apps.gflops": "GFLOPS",
    "trace.overhead_frac": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "fail_frac": "ratio",
    "reps.attempted": "count",
}

PER_LAYER = {**COUNTER_LAYERS, **RUN_LAYERS}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configures (once) and builds the harness; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("runtime sources not found in %s/src; run from a full checkout" % ROOT)
    bdir = os.path.join(build_root, "perfbench")
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compilers write their temporaries here
    log_path = os.path.join(build_root, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed (full log: %s)" % log_path)
    return os.path.join(bdir, "perfbench")


def run_harness(binary, args, trace_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("harness did not finish within %d s (deadlock?)" % HARNESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die("harness exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def span(rep, name):
    for s in rep["spans"]:
        if s["name"] == name:
            return max(0.0, s["end"] - s["start"])  # 0 if a failure left it open
    return 0.0


def spread(values):
    """Interquartile range over the median (0 with fewer than two values)."""
    if len(values) < 2 or median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def busy_fractions(files, vt0, vt_s, gpus):
    """Kernel and copy busy fractions of the GPUs over [vt0, vt0 + vt_s],
    from the runtime's Chrome traces: 'task' spans on a gpuN row (the GPU
    manager from issuing a task's kernel to its completion, which includes
    waiting for its inputs) and 'transfer' spans on a gpuN.xfer row."""
    if gpus == 0 or vt_s <= 0:
        return 0.0, 0.0
    lo, hi = vt0 * 1e6, (vt0 + vt_s) * 1e6
    busy = {"kernel": 0.0, "copy": 0.0}
    for path in files:
        if not os.path.isfile(path):  # its repetition was killed before writing it
            continue
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        rows = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        intervals = {}
        for e in events:
            if e["ph"] != "X":
                continue
            row = rows.get(e["tid"], "")
            if e["cat"] == "task" and re.fullmatch(r"gpu\d+", row):
                kind = "kernel"
            elif e["cat"] == "transfer" and re.fullmatch(r"gpu\d+\.xfer", row):
                kind = "copy"
            else:
                continue
            b, t = max(e["ts"], lo), min(e["ts"] + e["dur"], hi)
            if t > b:
                intervals.setdefault((kind, row), []).append((b, t))
        for (kind, _), ivs in intervals.items():
            end = lo
            for b, t in sorted(ivs):  # union of the row's intervals
                b = max(b, end)
                if t > b:
                    busy[kind] += t - b
                    end = t
    span_us = gpus * vt_s * 1e6
    return busy["kernel"] / span_us, busy["copy"] / span_us


def end_to_end_metrics(reps):
    return {
        "wall_time_s": median([span(r, "timed") for r in reps]),
        "setup_s": median([span(r, "setup") for r in reps]),
        "peak_rss_mb": median([r["peak_rss"] for r in reps]) / 2**20,
    }


def per_layer_metrics(untraced, traced, attempted, failed):
    values = {name: median([r["layers"].get(name, 0.0) for r in traced])
              for name in COUNTER_LAYERS}
    vt = [r["vt_s"] for r in untraced]
    last = traced[-1]
    kernel_busy, copy_busy = busy_fractions(last["trace_files"], last["vt0"], last["vt_s"],
                                            last["gpus"])
    untraced_wall = median([span(r, "timed") for r in untraced])
    traced_wall = median([span(r, "timed") for r in traced])
    vt_time = median(vt)
    values.update({
        "ompss.taskwait_s": median([span(r, "taskwait") for r in traced]),
        "ompss.env_s": median([span(r, "env") for r in traced]),
        "simcuda.gpus": last["gpus"],
        "simcuda.kernel_busy_frac": kernel_busy,
        "simcuda.copy_busy_frac": copy_busy,
        "vt_time_s": vt_time,
        "vt.time_spread": spread(vt),
        "vt.reps": len(vt),
        "apps.gflops": last["flops"] / vt_time / 1e9 if vt_time > 0 else 0.0,
        "trace.overhead_frac": traced_wall / untraced_wall - 1 if untraced_wall > 0 else 0.0,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "fail_frac": failed / attempted,
        "reps.attempted": attempted,
    })
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage every output before its check (self-test)")
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    binary = build(build_root)
    trace_dir = os.path.join(build_root, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    raw = run_harness(binary, args, trace_dir)

    untraced, traced = raw["untraced"], raw["traced"]
    every = untraced + traced
    failed = sum(1 for r in every if not r["ok"])
    for r in every:
        if not r["ok"]:
            print("perfbench: repetition failed: " + r["error"], file=sys.stderr)
    ok_untraced = [r for r in untraced if r["ok"]] or untraced
    if args.trace:
        ok_traced = [r for r in traced if r["ok"]] or traced
        values = per_layer_metrics(ok_untraced, ok_traced, len(every), failed)
        units = PER_LAYER
        with open(os.path.join(trace_dir, args.workload + ".spans.json"), "w") as f:
            json.dump([r["spans"] for r in traced], f)
    else:
        values = end_to_end_metrics(ok_untraced)
        units = END_TO_END

    for name in units:
        print("%-32s %16.6g %s" % (name, values[name], units[name]))
    result = {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
