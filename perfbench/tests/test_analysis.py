"""Self-tests of the benchmark's analysis code.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
import analysis  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        # 1000 samples leave exactly 10 above the nearest-rank p99.
        samples = list(range(1, 1001))
        self.assertEqual(analysis.samples_beyond(1000, 99.0), 10)
        self.assertEqual(analysis.tail_percentile(samples), (99.0, 990))

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        # 999 samples leave 9 above p99, but 49 above p95.
        samples = list(range(1, 1000))
        pct, value = analysis.tail_percentile(samples)
        self.assertEqual(pct, 95.0)
        self.assertEqual(value, analysis.percentile(samples, 95.0))

    def test_p999_is_taken_when_wanted_and_resolvable(self):
        samples = list(range(10000))
        self.assertEqual(analysis.tail_percentile(samples, wanted=99.9)[0], 99.9)
        self.assertEqual(analysis.tail_percentile(samples, wanted=99.0)[0], 99.0)

    def test_too_few_samples_give_none(self):
        self.assertIsNone(analysis.tail_percentile(list(range(19))))
        self.assertEqual(analysis.tail_percentile(list(range(20)))[0], 50.0)

    def test_nearest_rank(self):
        self.assertEqual(analysis.percentile([5, 1, 3, 2, 4], 50.0), 3)
        self.assertEqual(analysis.percentile([5, 1, 3, 2, 4], 100.0), 5)
        self.assertEqual(analysis.percentile([7], 99.0), 7)


class MedianAndQuartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
        q1, q2, q3 = analysis.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, analysis.median(values))

    def test_relative_spread(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(analysis.relative_spread(values), (q3 - q1) / q2)
        self.assertEqual(analysis.relative_spread([2.0] * 10), 0.0)

    def test_median_of_odd_and_even(self):
        self.assertEqual(analysis.median([3, 1, 2]), 2)
        self.assertEqual(analysis.median([4, 1, 3, 2]), 2.5)


def span(name, start, end, parent):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent}


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [
            span("solve", 0, 100, -1),
            span("calibrate", 10, 40, 0),
            span("gamma", 15, 25, 1),
            span("select", 50, 90, 0),
            span("select", 60, 70, 0),  # overlapping sibling counts once
        ]
        totals = analysis.self_times(spans)
        self.assertEqual(totals["solve"], 100 - 30 - 40)
        self.assertEqual(totals["calibrate"], 30 - 10)
        self.assertEqual(totals["gamma"], 10)
        self.assertEqual(totals["select"], 40 + 10)

    def test_grandchildren_do_not_reduce_the_root_twice(self):
        spans = [span("a", 0, 10, -1), span("b", 2, 8, 0), span("c", 3, 5, 1)]
        totals = analysis.self_times(spans)
        self.assertEqual(totals, {"a": 4, "b": 4, "c": 2})

    def test_durations(self):
        spans = [span("x", 0, 5, -1), span("y", 1, 2, 0), span("x", 7, 10, -1)]
        self.assertEqual(analysis.span_durations(spans, "x"), [5, 3])


class Ratios(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        r = analysis.ratio(828, 1087)
        self.assertEqual(r["numerator"], 828)
        self.assertEqual(r["denominator"], 1087)
        self.assertAlmostEqual(r["value"], 828 / 1087)

    def test_zero_base_reads_zero(self):
        self.assertEqual(analysis.ratio(0, 0),
                         {"value": 0.0, "numerator": 0, "denominator": 0})


class BenchmarkSpec(unittest.TestCase):
    def test_repository_spec_is_well_formed(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual(analysis.check_benchmark_spec(spec), [])
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in spec[section]:
                self.assertRegex(entry["name"], r"^[A-Za-z0-9_.-]+$")

    def test_bad_names_are_reported(self):
        spec = {
            "workloads": [{"name": "ok"}, {"name": "bad name"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower",
                            "bound": 0.25}],
            "per_layer": [{"name": "ok"}],
        }
        problems = analysis.check_benchmark_spec(spec)
        self.assertTrue(any("bad name" in p for p in problems))
        self.assertTrue(any("twice" in p for p in problems))

    def test_missing_setup_metric_is_reported(self):
        spec = {"workloads": [], "end_to_end": [], "per_layer": []}
        self.assertTrue(analysis.check_benchmark_spec(spec))


if __name__ == "__main__":
    unittest.main()
