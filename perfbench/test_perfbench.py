#!/usr/bin/env python3
"""The benchmark's own tests: result shape, seeding, and transparency.

    python3 perfbench/test_perfbench.py

Runs every workload at a small size (points of 5,000 instructions), so
host times are meaningless here; the tests check what must hold exactly.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figure-sweep", "pchase", "cmp-mix")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

_cache = {}


def bench(workload, seed, trace):
    """Run once per (workload, seed, trace); return (report, result)."""
    key = (workload, seed, trace)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", "0.1", "--trace", str(trace),
             "--instructions", "5000"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        report = {}
        for line in lines[:-1]:
            name, sep, value = line.partition(": ")
            if sep:
                report[name] = value
        _cache[key] = (report, json.loads(lines[-1]))
    return _cache[key]


class ResultShape(unittest.TestCase):
    def check(self, trace, spec_key):
        names = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result = bench(w, 1, trace)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, names)

    def test_untraced_prints_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_prints_every_per_layer_metric(self):
        self.check(1, "per_layer")

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            _, result = bench(w, 1, 0)
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, "%s on %s" % (name, w))


class Seeding(unittest.TestCase):
    def test_seed_reaches_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, _ = bench(w, 1, 0)
                b, _ = bench(w, 2, 0)
                self.assertNotEqual(a["sim_digest"], b["sim_digest"])


class Transparency(unittest.TestCase):
    def test_traced_run_reproduces_untraced_digest(self):
        # The traced run also fails any traced point whose statistics
        # differ from its untraced twin (checked via "correct" above).
        for w in WORKLOADS:
            with self.subTest(workload=w):
                untraced, _ = bench(w, 1, 0)
                traced, _ = bench(w, 1, 1)
                self.assertEqual(untraced["sim_digest"], traced["sim_digest"])


class LayerSeparation(unittest.TestCase):
    def test_pchase_skips_more_than_figure_sweep(self):
        metric = "sim.system.skipped_frac"
        fig = bench("figure-sweep", 1, 1)[1]["metrics"][metric]["value"]
        pch = bench("pchase", 1, 1)[1]["metrics"][metric]["value"]
        self.assertGreater(pch, fig)


if __name__ == "__main__":
    unittest.main()
