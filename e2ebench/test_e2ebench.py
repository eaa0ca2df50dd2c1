#!/usr/bin/env python3
"""Smoke tests of the whole-join host-time benchmark.

Each workload runs at its tiny pinned smoke scale for one second, untraced
and traced. Run from the repository root:

    python3 -m unittest discover -s e2ebench -p 'test_*.py' -v

The first test builds the driver (.bench_build/e2ebench), which takes about a
minute on a 4-core machine.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload, trace, seed=7, env=None, extra=("--smoke",)):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               *extra]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, proc.stderr)
        group = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        # fail_ratio is printed by name with its unit on a summary line.
        fail_lines = [line.split() for line in proc.stdout.splitlines()
                      if line.startswith("# fail_ratio ")]
        self.assertEqual(len(fail_lines), 1, proc.stdout)
        self.assertEqual(float(fail_lines[0][2]), 0.0)
        self.assertEqual(fail_lines[0][3], "ratio")
        return result

    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_traced_run_writes_bench_spans(self):
        self.check_run("rack4_skew", 1)
        spans_file = (ROOT / ".bench_build" / "e2ebench" / "spans" /
                      "rack4_skew-seed7-smoke.json")
        spans = json.loads(spans_file.read_text())
        self.assertEqual(spans["seed"], 7)
        names = {span["name"] for span in spans["spans"]}
        for name in ("workload.generate", "join.exchange", "timing.replay",
                     "timing.replay_spans", "timing.trace_read"):
            self.assertIn(name, names)
        for span in spans["spans"]:
            self.assertLessEqual(span["start_s"], span["end_s"])

    def test_virtual_outputs_repeat_and_ignore_scale_env(self):
        first = result_of(run_bench("rack4_skew", 1))["metrics"]
        env = dict(os.environ, RDMAJOIN_SCALE_UP="1")
        second = result_of(run_bench("rack4_skew", 1, env=env))["metrics"]
        for name in ("timing.virtual_makespan", "timing.sends", "transport.messages",
                     "timing.segments_recorded", "timing.trace_mb"):
            self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_seed_is_recorded(self):
        proc = run_bench("rack4_skew", 0, seed=11)
        self.assertIn("seed=11 ", proc.stdout)

    def test_bad_workload_prints_no_result(self):
        proc = run_bench("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
