#!/usr/bin/env python3
"""Contract tests for the benchmark's entry point and BENCHMARK.json.

Run from the repository root:

    python3 hostbench/tests/test_run.py

The end-to-end cases build the benchmark (into CARGO_TARGET_DIR or
.bench_build, like run.py) and run every workload for one second in both
modes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        ["python3", "hostbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SpecTest(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class EntryPointTest(unittest.TestCase):
    def test_fails_without_the_repository_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "hostbench"),
                            os.path.join(tmp, "hostbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            p = subprocess.run(
                ["python3", "hostbench/run.py", "--workload", "cnn-topk",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)

    def test_every_workload_reports_its_metrics(self):
        spec = load_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for w in spec["workloads"]:
                p = run_bench(ROOT, w["name"], trace)
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                result = json.loads(p.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()}, want)
                # Every metric is also printed by name on its own line.
                for name in want:
                    self.assertIn("metric %s = " % name, p.stdout)

    def test_bad_arguments_exit_nonzero(self):
        p = run_bench(ROOT, "no-such-workload", 0)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
