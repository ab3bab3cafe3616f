#!/usr/bin/env python3
"""Tests of the benchmark's own invariants.

    python3 perfbench/test_perfbench.py

Builds the harness like run.py does, then checks on one cycle of every
workload that the layer times plus untracked_s equal the traced wall time,
that digests are deterministic for a fixed seed and change with the seed,
that the traced harness reproduces the untraced physics, and that the
pinned digests in workloads.json are current. Also checks that run.py
refuses stray JMB_* knobs and a directory without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = list(SPEC["workloads"])


def one_cycle(binary, workload, seed):
    return run.run_harness(binary, ["--workload", workload, "--seed", seed,
                                    "--seconds", 0, "--no-pin"])


class PerfbenchInvariants(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.untraced = {w: one_cycle("perfbench", w, 3) for w in WORKLOADS}
        cls.traced = {w: one_cycle("perfbench_traced", w, 3)
                      for w in WORKLOADS}

    def test_layers_plus_untracked_equal_traced_wall(self):
        for w in WORKLOADS:
            res = self.traced[w]
            layers = dict(res["layers"])
            wall = res["traced_wall_s"] - layers.pop("rate.replay_s")
            # Exact in ticks; the JSON carries 9 significant digits per value.
            self.assertAlmostEqual(sum(layers.values()), wall, delta=1e-7 * wall,
                                   msg=w)
            self.assertLess(layers["untracked_s"], 0.10 * wall, msg=w)

    def test_digest_deterministic_for_fixed_seed(self):
        for w in WORKLOADS:
            again = one_cycle("perfbench", w, 3)
            self.assertEqual(again["digest"], self.untraced[w]["digest"], w)
            self.assertEqual(again["failed"], 0, w)

    def test_digest_changes_with_seed(self):
        for w in WORKLOADS:
            other = one_cycle("perfbench", w, 4)
            self.assertNotEqual(other["digest"], self.untraced[w]["digest"], w)

    def test_traced_run_reproduces_untraced_physics(self):
        for w in WORKLOADS:
            self.assertEqual(self.traced[w]["digest"],
                             self.untraced[w]["digest"], w)
            self.assertEqual(self.traced[w]["attempted"],
                             self.untraced[w]["attempted"], w)

    def test_pinned_digests_are_current(self):
        for w in WORKLOADS:
            res = run.run_harness("perfbench", ["--workload", w, "--seed", 3,
                                                "--seconds", 0])
            self.assertEqual(res["pin_digest"],
                             SPEC["workloads"][w]["pinned_digest"], w)
            # The pin cycle is an ordinary first cycle of the pin seed.
            again = one_cycle("perfbench", w, res["pin_seed"])
            self.assertEqual(again["digest"], res["pin_digest"], w)

    def test_refuses_stray_knob(self):
        env = dict(os.environ, JMB_SIMD="scalar")
        proc = subprocess.run(
            [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
             "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            capture_output=True, text=True, env=env, cwd=run.ROOT)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run.BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"],
                capture_output=True, text=True, cwd=tmp, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
