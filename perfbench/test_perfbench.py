#!/usr/bin/env python3
"""Tests of the benchmark itself: determinism of its inputs and counts, and
a checker that catches a wrong answer.

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does (first use takes a minute or two).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Per-layer metrics that are pure counts of work on a fixed op prefix and
# so must repeat exactly under one client.
EXACT_COUNTS = {
    "cold_read": ["core.inner_products_per_q", "core.bound_evals_per_q",
                  "engine.points_streamed_per_q", "engine.block_skip_ratio",
                  "engine.filter_rate", "engine.accessed_frac",
                  "dynamic.compactions"],
    "durable_churn": ["wal.bytes_per_mut", "wal.syncs"],
}


def driver(*args, check=True):
    done = subprocess.run([run.DRIVER] + list(args), capture_output=True,
                          text=True, timeout=170)
    if check and done.returncode != 0:
        raise AssertionError("driver %s failed (%d): %s" %
                             (args, done.returncode, done.stderr))
    return done


def last_json(done):
    return json.loads(done.stdout.strip().split("\n")[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.work = tempfile.mkdtemp(dir=run.BUILD_ROOT, prefix="test-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def digest(self, workload, seed):
        return last_json(driver("--digest", "--workload", workload, "--seed",
                                str(seed)))

    def test_same_seed_gives_identical_op_stream(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self.digest(workload, 5), self.digest(workload, 5),
                             workload)

    def test_other_seed_changes_inputs_and_ops(self):
        for workload in run.WORKLOADS:
            a, b = self.digest(workload, 5), self.digest(workload, 6)
            self.assertNotEqual(a["inputs"], b["inputs"], workload)
            self.assertNotEqual(a["ops"], b["ops"], workload)

    def traced(self, workload, seed):
        done = driver("--workload", workload, "--seed", str(seed),
                      "--trace", "1", "--work-dir", self.work)
        result = last_json(done)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_same_seed_gives_identical_per_layer_counts(self):
        for workload, names in EXACT_COUNTS.items():
            a = self.traced(workload, 7)
            b = self.traced(workload, 7)
            for name in names:
                self.assertEqual(a[name], b[name], workload + " " + name)
            self.assertGreater(a[names[0]], 0, workload)

    def test_checker_catches_a_corrupted_answer(self):
        args = ["--workload", "durable_churn", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--work-dir", self.work]
        clean = driver(*args)
        self.assertTrue(last_json(clean)["correct"])
        corrupted = driver(*(args + ["--corrupt-answer", "5"]), check=False)
        self.assertEqual(corrupted.returncode, 1)
        result = last_json(corrupted)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
