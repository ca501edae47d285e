#!/usr/bin/env python3
"""Tests of the benchmark itself, on reduced inputs (--smoke).

Run from the root of the repository:

    python3 perfbench/test_smoke.py

For every workload in BENCHMARK.json it makes one untraced and one traced
smoke run and checks the result line: exactly the keys correct, attempted,
failed and metrics; correct true and no failed operations; every
end-to-end metric (untraced) or per-layer metric (traced) present with the
unit BENCHMARK.json gives, and every end-to-end metric above zero. It also
checks that an unknown workload is refused without a result line. Takes
about a minute.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace, metrics):
        result = run("--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
        self.assertEqual(result.returncode, 0, result.stderr)
        line = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(line["correct"], result.stderr)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        self.assertEqual(sorted(line["metrics"]), sorted(m["name"] for m in metrics))
        for metric in metrics:
            reported = line["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(reported["value"], (int, float))
        return line

    def test_every_workload_reports_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                line = self.check_result(workload, 0, SPEC["end_to_end"])
                for name, reported in line["metrics"].items():
                    self.assertGreater(reported["value"], 0, name)
                self.check_result(workload, 1, SPEC["per_layer"])

    def test_unknown_workload_is_refused(self):
        result = run("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
