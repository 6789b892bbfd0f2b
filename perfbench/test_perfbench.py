#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

1. Smoke mode: every workload runs briefly in both modes, and every metric
   BENCHMARK.json names is reported with its unit.
2. The output check catches a corrupted reference: with one reference byte
   flipped, the run reports failures, prints "correct": false and exits
   non-zero.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(*args):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, timeout=900)


class PerfbenchTest(unittest.TestCase):
    def test_smoke(self):
        out = run("--smoke")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)

    def test_output_check_catches_corrupted_reference(self):
        for workload in ("serve_mixed", "mc_uq", "cold_campaign"):
            out = run("--workload", workload, "--seed", "1", "--seconds",
                      "0.2", "--trace", "0", "--corrupt-reference")
            self.assertNotEqual(out.returncode, 0, workload)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["failed"], 0, workload)


if __name__ == "__main__":
    unittest.main()
