#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/selftest.py

For every workload it checks that:
  * an untraced run emits exactly the end-to-end metrics BENCHMARK.json
    declares, each with its declared unit and a non-zero value;
  * a traced run emits exactly the declared per-layer metrics with their
    units, and non-zero values for the layers the workload exercises;
  * a run whose output is deliberately corrupted counts every repetition as
    failed, reports correct=false and exits non-zero.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Per-layer metrics that must be non-zero on a workload: the layers it is
# there to exercise (perfbench/README.md has the full table).
MUST_MOVE = {
    "host-dag": ["ompss.spawn_us.p50", "ompss.taskwait_s", "dep.lookups", "dep.arcs",
                 "tasks.executed", "trace.traced_wall_s"],
    "cluster-matmul": ["coh.h2d_bytes", "cluster.stagings", "cluster.stage_latency.mean",
                       "simnet.tx_bytes", "simcuda.kernel_flops", "simcuda.kernel_busy_frac",
                       "vt_time_s", "apps.gflops"],
    "cluster-protocol": ["cluster.homed_commits", "cluster.exec_latency.mean",
                         "simnet.am_msgs", "vt_time_s"],
}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no result from %s:\n%s" % (" ".join(cmd), proc.stderr))
    return proc.returncode, json.loads(lines[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def check_declared(self, result, declared):
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float), m["name"])

    def test_untraced_run_emits_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, res = run(w["name"], 0)
                self.assertEqual(rc, 0)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.check_declared(res, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_run_emits_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, res = run(w["name"], 1)
                self.assertEqual(rc, 0)
                self.assertTrue(res["correct"])
                self.check_declared(res, SPEC["per_layer"])
                for name in MUST_MOVE[w["name"]]:
                    self.assertGreater(res["metrics"][name]["value"], 0, name)
                self.assertEqual(res["metrics"]["fail_frac"]["value"], 0)

    def test_corrupted_output_counts_as_failure(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, res = run(w["name"], 0, "--corrupt")
                self.assertNotEqual(rc, 0)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertEqual(res["failed"], res["attempted"])


if __name__ == "__main__":
    unittest.main()
