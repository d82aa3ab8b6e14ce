#!/usr/bin/env python3
"""The pipeline benchmark's own tests.

Run from the repository root:

    python3 -m unittest pipebench/test_pipebench.py

They check that BENCHMARK.json matches the metric and workload
declarations compiled into bench_pipeline, that every metric name and unit
is well formed, that a short run of every workload emits exactly its
declared metrics in both modes with every correctness check passing, and
(through bench_pipeline --self-test) that one seed always yields the same
query sequence and ledger bytes while another seed changes both.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return proc.stdout


class PipebenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.spec = json.loads(run_bench("--spec"))

    def test_benchmark_json_matches_declarations(self):
        for key in ("workloads", "end_to_end", "per_layer"):
            declared = [{k: v for k, v in entry.items() if k != "note"}
                        for entry in self.spec[key]]
            self.assertEqual(self.bench[key], declared, key)

    def test_names_and_units_are_well_formed(self):
        names = [w["name"] for w in self.bench["workloads"]]
        for metric in self.bench["end_to_end"] + self.bench["per_layer"]:
            names.append(metric["name"])
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_self_test(self):
        self.assertIn(", 0 failed", run_bench("--self-test"))

    def test_every_declared_metric_is_emitted(self):
        for workload in self.bench["workloads"]:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    out = run_bench("--workload", workload["name"], "--seed", "3",
                                    "--seconds", "2", "--trace", trace)
                    result = json.loads(out.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in self.bench[key]}
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, declared)


if __name__ == "__main__":
    unittest.main()
