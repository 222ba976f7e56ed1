"""Tests of the benchmark's own arithmetic: the tail-percentile rule,
failure accounting, per-layer zeros and the compare mode's checks.

    python3 -m unittest discover -s perfbench/tests
"""
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import metrics  # noqa: E402


class TailTest(unittest.TestCase):
    def test_picks_highest_ladder_percentile_with_ten_beyond(self):
        self.assertEqual(metrics.tail(list(range(1, 6001))), (5940, 99.0, 60))
        self.assertEqual(metrics.tail(list(range(1, 1001))), (990, 99.0, 10))
        self.assertEqual(metrics.tail(list(range(1, 101))), (90, 90.0, 10))
        self.assertEqual(metrics.tail(list(range(1, 68))), (51, 75.0, 16))

    def test_one_sample_short_drops_a_rung(self):
        # p99 of 999 samples has 9 beyond it, so p95 is the tail.
        self.assertEqual(metrics.tail(list(range(1, 1000))), (950, 95.0, 49))

    def test_too_few_samples_report_the_median(self):
        self.assertEqual(metrics.tail(list(range(1, 13))), (6, 50.0, 6))

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(metrics.tail(values), (90.0, 90.0, 10))


class WindowedTailTest(unittest.TestCase):
    def test_median_of_window_tails(self):
        # Three 1000-sample windows; a stall in one of them (all samples
        # 500) does not move the median of the window p99s.
        calm = [float(v) for v in range(1, 1001)]
        stalled = [500.0] * 1000
        value, pct, beyond = metrics.windowed_tail(calm + stalled + calm,
                                                   1000)
        self.assertEqual((value, pct, beyond), (990.0, 99.0, 10))

    def test_short_runs_use_the_whole_run(self):
        values = [float(v) for v in range(1, 1500)]
        self.assertEqual(metrics.windowed_tail(values, 1000),
                         metrics.tail(values))


def _raw_serve(statuses, latencies, limit=100.0):
    return {"kind": "serve", "setup_s": [1.0, 2.0, 3.0], "peak_rss_mb": 5.0,
            "f_measure": 0.5, "latency_limit_ms": limit, "timed_wall_s": 2.0,
            "requests": [{"kind": "match", "status": s, "latency_ms": l,
                          "send_lag_ms": 0.0, "millis": 1.0}
                         for s, l in zip(statuses, latencies)]}


class EndToEndTest(unittest.TestCase):
    def test_failed_requests_count_against_ok_frac_and_goodput(self):
        raw = _raw_serve(["ok", "ok", "overloaded", "unanswered"],
                         [10.0, 200.0, 1.0, -1.0])
        values, attempted, failed, _ = metrics.end_to_end(raw)
        self.assertEqual((attempted, failed), (4, 2))
        self.assertEqual(values["ok_frac"]["value"], 0.5)
        # Only the ok request within the 100 ms limit counts, over 2 s.
        self.assertEqual(values["goodput_ops_s"]["value"], 0.5)
        self.assertEqual(values["latency_p50_ms"]["value"], 105.0)
        self.assertEqual(values["setup_s"]["value"], 2.0)


    def test_serve_tail_is_median_of_window_p75s(self):
        # Two 50-request windows: latencies 1..50, then 101..150.
        latencies = [float(v) for v in list(range(1, 51)) +
                     list(range(101, 151))]
        values, _, _, detail = metrics.end_to_end(
            _raw_serve(["ok"] * 100, latencies))
        self.assertEqual(metrics.SERVE_TAIL_WINDOW, 50)
        self.assertEqual((detail["tail_percentile"],
                          detail["tail_samples_beyond"]), (75.0, 12))
        self.assertEqual(values["latency_tail_ms"]["value"], (38 + 138) / 2)


class PerLayerTest(unittest.TestCase):
    def test_serve_run_reads_zero_for_pair_layers_and_trace(self):
        raw = _raw_serve(["ok", "ok", "overloaded"], [3.0, 5.0, 1.0])
        raw.update({"cache_hits": 4, "cache_misses": 0,
                    "prob_iterations": [5, 7]})
        values, attempted, failed = metrics.per_layer(raw)
        self.assertEqual((attempted, failed), (3, 1))
        for name in ("log.parse_ms", "log.parse_share", "core.ems_share",
                     "core.ems_evals", "trace.overhead_frac",
                     "trace.unattributed_frac"):
            self.assertEqual(values[name]["value"], 0.0, name)
        self.assertEqual(values["serve.cache_hit_frac"]["value"], 1.0)
        self.assertEqual(values["serve.shed_frac"]["value"], 1 / 3)
        self.assertEqual(values["prob.em_iterations"]["value"], 6)


def _record(workload, seed, trace, values, unit="count"):
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": {"metrics": {k: {"value": v, "unit": unit}
                                   for k, v in values.items()}}}


class CompareTest(unittest.TestCase):
    def test_changed_count_at_same_seed_is_flagged(self):
        a = [_record("pair_xes", s, 1, {"core.ems_evals": 158400,
                                        "core.ems_iterations": 8})
             for s in (1, 2)]
        b = [_record("pair_xes", 1, 1, {"core.ems_evals": 158400,
                                        "core.ems_iterations": 8}),
             _record("pair_xes", 2, 1, {"core.ems_evals": 158401,
                                        "core.ems_iterations": 8})]
        _, flags = metrics.compare(a, b, {})
        self.assertEqual(len(flags), 1)
        self.assertIn("core.ems_evals changed at seed 2", flags[0])

    def test_equal_counts_and_other_seeds_are_not_flagged(self):
        a = [_record("serve_mixed", 1, 1, {"index.exact_runs_per_query": 8})]
        b = [_record("serve_mixed", 1, 1, {"index.exact_runs_per_query": 8}),
             _record("serve_mixed", 3, 1, {"index.exact_runs_per_query": 5})]
        _, flags = metrics.compare(a, b, {})
        self.assertEqual(flags, [])

    def test_f_measure_change_is_flagged(self):
        a = [_record("pair_xes", 4, 0, {"f_measure": 0.75}, "frac")]
        b = [_record("pair_xes", 4, 0, {"f_measure": 0.76}, "frac")]
        _, flags = metrics.compare(a, b, {})
        self.assertEqual(len(flags), 1)
        self.assertIn("f_measure changed at seed 4", flags[0])

    def test_median_worse_than_bound_is_flagged_in_either_direction(self):
        bounds = {"latency_p50_ms": {"bound": 0.1, "better": "lower"},
                  "goodput_ops_s": {"bound": 0.1, "better": "higher"}}
        a = [_record("pair_xes", s, 0, {"latency_p50_ms": 100.0,
                                        "goodput_ops_s": 10.0}, "ms")
             for s in (1, 2, 3)]
        b = [_record("pair_xes", s, 0, {"latency_p50_ms": 105.0,
                                        "goodput_ops_s": 8.0}, "ms")
             for s in (1, 2, 3)]
        _, flags = metrics.compare(a, b, bounds)
        self.assertEqual(len(flags), 1)
        self.assertIn("goodput_ops_s worse", flags[0])


if __name__ == "__main__":
    unittest.main()
