#!/usr/bin/env python3
"""Statistics and verdicts of tools/perf_pairs.py on canned result lines.

    python3 tools/test_perf_pairs.py

Builds nothing and runs no benchmark: every record below is written in the
form perf_pairs.py stores, and the report is computed from them.
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_pairs  # noqa: E402

BOUNDS = [("sim_s_per_wall_s", "higher", 0.25), ("op_ms_p50", "lower", 0.25),
          ("peak_rss_mb", "lower", 0.1), ("op_ok_ratio", "higher", 0.01)]
PROVENANCE = {"simd_backend": "avx512", "compiler": "GNU 12.2.0",
              "cxx_flags": "-O2 -g -DNDEBUG", "build_type": "RelWithDebInfo",
              "nproc": 4, "jmb_env": {}, "workload": "sample_frames"}


def record(pair, side, sim, p50=20.0, rss=30.0, ok=1.0, trace=0,
           digest="abc", **prov):
    provenance = dict(PROVENANCE, git_describe=f"{side}-rev", seed=100 + pair,
                      digest=digest, ops_first_cycle=7, cycles=3 + pair)
    provenance.update(prov)
    metrics = {"sim_s_per_wall_s": sim, "op_ms_p50": p50,
               "peak_rss_mb": rss, "op_ok_ratio": ok}
    return {"workload": "sample_frames", "pair": pair, "seed": 100 + pair,
            "side": side, "trace": trace, "returncode": 0,
            "revs": {"parent": "aaa", "change": "bbb"},
            "provenance": provenance,
            "result": {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "u"}
                                   for k, v in metrics.items()}}}


def by_metric(summaries):
    return {s["metric"]: s for s in summaries}


class Quartiles(unittest.TestCase):
    def test_inclusive_interpolation(self):
        self.assertEqual(perf_pairs.quartiles([4, 1, 3, 2]), (1.75, 2.5, 3.25))
        self.assertEqual(perf_pairs.quartiles([5]), (5, 5, 5))
        self.assertEqual(perf_pairs.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))


class PairOrder(unittest.TestCase):
    def test_even_pairs_run_the_parent_first(self):
        self.assertEqual(perf_pairs.pair_order(0), ("parent", "change"))
        self.assertEqual(perf_pairs.pair_order(1), ("change", "parent"))
        self.assertEqual(perf_pairs.pair_order(8), ("parent", "change"))

    def test_seed_ranges(self):
        self.assertEqual(perf_pairs.parse_seeds("101-103"), [101, 102, 103])
        self.assertEqual(perf_pairs.parse_seeds("7"), [7])
        with self.assertRaises(SystemExit):
            perf_pairs.parse_seeds("9-3")


class Verdicts(unittest.TestCase):
    def summaries(self, parent, change, **kw):
        recs = []
        for i, (p, c) in enumerate(zip(parent, change)):
            recs.append(record(i, "parent", p, **kw))
            recs.append(record(i, "change", c, **kw))
        return by_metric(perf_pairs.summarize(recs, BOUNDS))

    def test_a_clear_gain_is_better(self):
        parent = [0.040, 0.041, 0.039, 0.042, 0.040,
                  0.041, 0.040, 0.039, 0.041, 0.040]
        change = [v * 1.2 for v in parent]
        change[3] = 0.041  # one pair lost
        s = self.summaries(parent, change)["sim_s_per_wall_s"]
        self.assertEqual(s["wins"], 9)
        self.assertEqual(s["pairs"], 10)
        self.assertAlmostEqual(s["parent"]["median"], 0.040)
        self.assertAlmostEqual(s["parent"]["q1"], 0.040)
        self.assertAlmostEqual(s["parent"]["q3"], 0.041)
        self.assertAlmostEqual(s["ratio"], 0.048 / 0.040)
        self.assertGreater(s["gap"], s["parent_spread"])
        self.assertEqual(s["verdict"], "better")

    def test_eight_wins_of_ten_is_not_better(self):
        parent = [1.0] * 10
        change = [1.2] * 8 + [0.99, 0.99]
        s = self.summaries(parent, change)["sim_s_per_wall_s"]
        self.assertEqual(s["wins"], 8)
        self.assertEqual(s["verdict"], "within")

    def test_a_gap_inside_the_parent_spread_is_not_better(self):
        parent = [1.0, 1.0, 1.0, 1.2, 1.2, 1.2, 1.0, 1.2, 1.1, 1.1]
        change = [v + 0.01 for v in parent]
        s = self.summaries(parent, change)["sim_s_per_wall_s"]
        self.assertEqual(s["wins"], 10)
        self.assertLess(s["gap"], s["parent_spread"])
        self.assertEqual(s["verdict"], "within")

    def test_a_regression_past_the_bound(self):
        parent = [1.0] * 10
        change = [0.7] * 10
        s = self.summaries(parent, change)["sim_s_per_wall_s"]
        self.assertEqual(s["wins"], 0)
        self.assertAlmostEqual(s["worse"], 0.3)
        self.assertEqual(s["verdict"], "past bound")

    def test_lower_is_better_metrics_count_the_other_way(self):
        parent = [1.0] * 10
        s = self.summaries(parent, parent, p50=10.0)["op_ms_p50"]
        self.assertEqual(s["verdict"], "within")
        recs = []
        for i in range(10):
            recs.append(record(i, "parent", 1.0, p50=10.0, rss=30.0))
            recs.append(record(i, "change", 1.0, p50=14.0, rss=34.0))
        m = by_metric(perf_pairs.summarize(recs, BOUNDS))
        self.assertEqual(m["op_ms_p50"]["wins"], 0)
        self.assertEqual(m["op_ms_p50"]["verdict"], "past bound")  # +40%
        self.assertAlmostEqual(m["peak_rss_mb"]["worse"], 4.0 / 30.0)
        self.assertEqual(m["peak_rss_mb"]["verdict"], "past bound")  # > 10%
        self.assertEqual(m["op_ok_ratio"]["verdict"], "within")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        change = [0.8] * 10
        s = self.summaries(parent, change)["sim_s_per_wall_s"]
        self.assertGreater(s["rel_spread"], 0.25)
        self.assertEqual(s["verdict"], "unresolved")

    def test_a_wide_spread_still_shows_a_change_better_in_every_run(self):
        parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        change = [3.0, 4.0] * 5
        s = self.summaries(parent, change)["sim_s_per_wall_s"]
        self.assertGreater(s["rel_spread"], 0.25)
        self.assertEqual(s["verdict"], "better")


class Provenance(unittest.TestCase):
    def test_only_git_describe_and_run_fields_may_differ(self):
        recs = [record(0, "parent", 1.0), record(0, "change", 1.1,
                                                 digest="other")]
        env = perf_pairs.check_provenance(recs)
        self.assertNotIn("git_describe", env)
        self.assertEqual(env["simd_backend"], "avx512")

    def test_a_different_backend_refuses(self):
        recs = [record(0, "parent", 1.0), record(0, "change", 1.1,
                                                 simd_backend="avx2")]
        with self.assertRaises(SystemExit) as err:
            perf_pairs.check_provenance(recs)
        self.assertEqual(err.exception.code, 3)

    def test_digest_note(self):
        recs = [record(0, "parent", 1.0), record(0, "change", 1.1),
                record(1, "parent", 1.0), record(1, "change", 1.1,
                                                 digest="x")]
        self.assertEqual(perf_pairs.digest_note(recs),
                         "first-cycle digests differ on seeds 101")


class Report(unittest.TestCase):
    def test_report_from_a_jsonl_file(self):
        recs = []
        for i in range(4):
            recs.append(record(i, "parent", 1.0 + 0.01 * i))
            recs.append(record(i, "change", 1.5 + 0.01 * i))
            recs.append(record(i, "parent", 1.0, trace=1))
            recs.append(record(i, "change", 1.5, trace=1))
        for r in recs:
            if r["trace"]:
                r["result"]["metrics"]["engine.pipeline.decode_s"] = {
                    "value": 5.0 if r["side"] == "parent" else 4.0,
                    "unit": "s/sim_s"}
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as f:
            for r in recs:
                f.write(json.dumps(r) + "\n")
        try:
            out = io.StringIO()
            with open(f.name) as src:
                perf_pairs.report([json.loads(l) for l in src], BOUNDS, out)
        finally:
            os.unlink(f.name)
        text = out.getvalue()
        self.assertIn("4 untraced pairs", text)
        self.assertIn("first-cycle digests match on all 4 seeds", text)
        self.assertIn("| sim_s_per_wall_s | 1.015 [1.008, 1.022] | "
                      "1.515 [1.508, 1.523] | 1.493 | 4/4 |", text)
        self.assertIn("better (25%)", text)
        self.assertIn("| engine.pipeline.decode_s | s/sim_s | 5.000 | "
                      "4.000 | 0.800 |", text)


if __name__ == "__main__":
    unittest.main()
