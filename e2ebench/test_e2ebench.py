#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 e2ebench/test_e2ebench.py

Builds the benchmark (as run.py does), runs the C++ self-test (decorator
forwarding, traced == untraced, digest gate), checks that every metric
the benchmark prints is declared in BENCHMARK.json with the same unit,
and that a digest mismatch fails the run with a nonzero exit.
"""

import json
import os
import subprocess
import sys
import unittest

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def bench(*args):
    """Run run.py with @p args; returns (exit code, parsed last stdout line)."""
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=run.ROOT, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class E2eBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build(["skybyte_e2e", "e2e_selftest"])

    def test_selftest(self):
        proc = subprocess.run([os.path.join(self.build, "e2e_selftest")],
                              stdout=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_printed_metrics_are_declared(self):
        # Full-length points; --seconds 1 makes the fewest sweeps a run
        # can make (three, or one traced round).
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            for workload in (w["name"] for w in spec["workloads"]):
                code, result = bench("--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", trace)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, declared, f"{workload} trace={trace}")

    def test_digest_mismatch_fails_the_run(self):
        digests = os.path.join(self.build, "tampered_digests.txt")
        with open(os.path.join(run.HERE, "digests.txt")) as f:
            lines = f.read().splitlines()
        with open(digests, "w") as f:
            for line in lines:
                if line.startswith("paper-dram/bc@42 "):
                    line = "paper-dram/bc@42 0000000000000000"
                f.write(line + "\n")
        proc = subprocess.run(
            [os.path.join(self.build, "skybyte_e2e"), "--workload", "paper-dram",
             "--seed", "42", "--seconds", "1", "--trace", "0", "--digests", digests],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"] // 7)


if __name__ == "__main__":
    unittest.main()
