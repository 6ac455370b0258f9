#!/usr/bin/env python3
"""The benchmark's own tests, at smoke scale (--size tiny).

Run from the repository root:

    python3 benchmark/tests/test_benchmark.py

The first test builds gecos_bench (about a minute on 4 cores). Covers:
every workload emits every named metric with its unit, untraced and traced;
a perturbed reference value is reported as failed operations; a second seed
changes the generated inputs and the checks still pass on it; compare.py
refuses runs from hosts whose fingerprints differ.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("sector_ground", "full_ground", "trotter_quench", "serve_jobs")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed=1, trace=0, perturb=False):
    """Runs benchmark/run.py at tiny scale; returns (extra line, result)."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--size", "tiny"]
    if perturb:
        cmd.append("--perturb-reference")
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr}")
    lines = [ln for ln in p.stdout.splitlines() if ln.strip()]
    return json.loads(lines[-2]), json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    def assert_metrics(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_smoke_every_workload_emits_every_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                _, r = run(w)
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                self.assert_metrics(r, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(r["metrics"][m["name"]]["value"], 0)
            with self.subTest(workload=w, trace=1):
                _, r = run(w, trace=1)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assert_metrics(r, SPEC["per_layer"])

    def test_perturbed_reference_is_a_failed_operation(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, r = run(w, perturb=True)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)
                self.assertLessEqual(r["failed"], r["attempted"])

    def test_second_seed_changes_inputs_and_still_passes(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, ra = run(w, seed=1)
                b, rb = run(w, seed=2)
                self.assertNotEqual(a["input_digest"], b["input_digest"])
                self.assertTrue(ra["correct"])
                self.assertTrue(rb["correct"])
                self.assertEqual(rb["failed"], 0)

    def test_compare_refuses_other_host(self):
        _, r = run("sector_ground")
        fp = {"nproc": 4, "l3_bytes": 1 << 20, "simd_tier": "avx2",
              "threads": 4, "compiler": "gcc", "triad_gbs": 40.0}
        rec = {"workload": "sector_ground", "seed": 1, "seconds": 0,
               "trace": 0, "size": "full", "input_digest": "0",
               "fingerprint": fp, "result": r}
        other = json.loads(json.dumps(rec))
        other["fingerprint"]["nproc"] = 8
        with tempfile.TemporaryDirectory() as d:
            paths = {}
            for name, recs in (("a", [rec]), ("b", [rec]), ("c", [other])):
                paths[name] = os.path.join(d, name + ".jsonl")
                with open(paths[name], "w") as f:
                    f.writelines(json.dumps(x) + "\n" for x in recs)
            cmp = [sys.executable, os.path.join(BENCH, "compare.py")]
            same = subprocess.run(cmp + [paths["a"], paths["b"]],
                                  stdout=subprocess.PIPE, text=True)
            self.assertEqual(same.returncode, 0)
            self.assertIn("sector_ground", same.stdout)
            differ = subprocess.run(cmp + [paths["a"], paths["c"]],
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
            self.assertEqual(differ.returncode, 3)


if __name__ == "__main__":
    unittest.main()
