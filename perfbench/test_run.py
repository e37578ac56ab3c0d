#!/usr/bin/env python3
"""Tests of the benchmark's own gate. Run from the repository root:

    python3 perfbench/test_run.py

They build `ccq` and the probe like a benchmark run does, then show that
the correctness gate rejects a sweep whose simulation was perturbed with
`--perturb` (no program change needed), that it ignores host-time fields,
and that the benchmark refuses to run outside a checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOAD = "open-mixed"


def built():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    run.build(env)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    return os.path.join(target, "release", "ccq"), os.path.join(target, "release", "ccq-perfbench")


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ccq, cls.harness = built()
        cls.cases = run.probe(cls.harness, "setup", WORKLOAD, 0, 1, 0)["cases"]

    def sweep_doc(self, *extra):
        path = os.path.join(run.OUT_DIR, "test-sweep.json")
        argv = [self.ccq, "sweep", *run.WORKLOADS[WORKLOAD], "--seed", "0", *extra, "--json", path]
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        with open(path) as f:
            return json.load(f)

    def test_pinned_seed_passes(self):
        self.assertIsNotNone(run.pinned_digest(WORKLOAD, 0))
        attempted, _ = run.check_sweep(self.sweep_doc(), WORKLOAD, 0, self.cases)
        self.assertEqual(attempted, len(self.cases))

    def test_perturbed_simulation_fails_the_gate(self):
        doc = self.sweep_doc("--perturb", "40:3")
        self.assertTrue(all(c["ok"] for c in doc["cases"]), "the perturbed run still verifies")
        with self.assertRaisesRegex(run.GateError, "differs from the pinned"):
            run.check_sweep(doc, WORKLOAD, 0, self.cases)

    def test_digest_ignores_host_time_only(self):
        doc = self.sweep_doc()
        base = run.digest(doc)
        doc["cases"][0]["phase_timing"] = {"mature_micros": 12345}
        self.assertEqual(run.digest(doc), base)
        doc["cases"][0]["messages"] += 1
        self.assertNotEqual(run.digest(doc), base)

    def test_failed_case_fails_the_gate(self):
        doc = self.sweep_doc()
        doc["cases"][1]["ok"] = False
        with self.assertRaisesRegex(run.GateError, "not ok"):
            run.check_sweep(doc, WORKLOAD, 0, self.cases)


class ContractTest(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))

    def test_refuses_to_run_outside_a_checkout(self):
        bare = os.path.abspath(os.path.join(run.OUT_DIR, "bare"))
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
