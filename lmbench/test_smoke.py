#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny size of each workload.

Run from the repository root:
  python3 lmbench/test_smoke.py

For every workload it asserts that the untraced run prints every
end-to-end metric of BENCHMARK.json with its unit, the traced run every
per-layer metric, that every check passes (correct, failed == 0, exit
0), and that the outcome digest is identical across repeated runs and
across solver widths 1 and 4.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("serve_2d", "churn_3d", "fleet_2d")
TRACE_METRICS = {"trace.loop_s": "s", "trace.untraced_loop_s": "s",
                 "trace.overhead": "ratio"}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=7, threads=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


def digest(lines):
    match = re.search(r"digest=(0x[0-9a-f]+)", lines[-2])
    return match.group(1) if match else None


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, wanted):
        code, lines = run(workload, trace)
        self.assertEqual(code, 0, lines)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines[-2])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, wanted)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        return lines

    def test_end_to_end_metrics(self):
        wanted = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, wanted)

    def test_per_layer_metrics(self):
        wanted = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        self.assertTrue(set(TRACE_METRICS) <= set(wanted))
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, wanted)

    def test_digest_is_deterministic(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                seen = set()
                for threads in (1, 4, 4):
                    code, lines = run(workload, 0, threads=threads)
                    self.assertEqual(code, 0, lines)
                    seen.add(digest(lines))
                self.assertEqual(len(seen), 1, seen)
                self.assertIsNotNone(seen.pop())


if __name__ == "__main__":
    unittest.main()
