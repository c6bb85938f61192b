"""Histogram percentile math and the --metrics-out report builder."""

import math
import random

import pytest

from repro.obs.metrics import Histogram, build_metrics, top_spans
from repro.obs.tracer import SpanRecord

#: Quarter-octave buckets bound the relative quantile error at 2^(1/4)-1.
RELATIVE_ERROR = 2 ** 0.25 - 1


def _span(span_id, name, category, start_us, duration_us, pid=1, parent=None, **attrs):
    return SpanRecord(
        span_id=span_id,
        parent_id=parent,
        name=name,
        category=category,
        start_us=start_us,
        duration_us=duration_us,
        pid=pid,
        tid=1,
        attributes=attrs,
    )


class TestHistogram:
    def test_bucket_bounds_contain_their_values(self):
        for value in (0.001, 0.9, 1.0, 7.3, 1024.0, 1e9):
            low, high = Histogram.bucket_bounds(Histogram.bucket_of(value))
            assert low <= value < high

    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.percentile(50) == 0.0
        assert histogram.mean == 0.0
        assert histogram.as_dict()["count"] == 0

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            Histogram().add(-1.0)
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_zeros_are_exact(self):
        histogram = Histogram()
        for _ in range(90):
            histogram.add(0.0)
        for _ in range(10):
            histogram.add(100.0)
        assert histogram.percentile(50) == 0.0
        assert histogram.percentile(90) == 0.0
        assert histogram.percentile(99) > 0.0
        assert histogram.zeros == 90

    def test_single_value_percentiles_stay_in_its_bucket(self):
        histogram = Histogram()
        histogram.add(42.0)
        for q in (0, 50, 99, 100):
            low, high = Histogram.bucket_bounds(Histogram.bucket_of(42.0))
            assert low <= histogram.percentile(q) <= high

    def test_percentiles_match_exact_ranks_within_bucket_error(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(3.0, 1.5) for _ in range(5000)]
        histogram = Histogram()
        histogram.extend(values)
        ordered = sorted(values)
        for q in (50, 90, 99):
            exact = ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]
            approx = histogram.percentile(q)
            assert approx == pytest.approx(exact, rel=RELATIVE_ERROR)

    def test_percentiles_are_monotone_in_q(self):
        histogram = Histogram()
        histogram.extend(float(v) for v in range(1, 200))
        quantiles = [histogram.percentile(q) for q in range(0, 101, 5)]
        assert quantiles == sorted(quantiles)

    def test_mean_max_and_count_are_exact(self):
        histogram = Histogram()
        histogram.extend([1.0, 2.0, 3.0, 10.0])
        assert histogram.total == 4
        assert histogram.mean == 4.0
        assert histogram.max == 10.0

    def test_as_dict_is_json_ready(self):
        histogram = Histogram()
        histogram.extend([0.0, 1.0, 1.5, 300.0])
        payload = histogram.as_dict()
        assert payload["count"] == 4
        assert payload["zeros"] == 1
        assert payload["buckets_per_octave"] == 4
        assert all(isinstance(k, str) for k in payload["buckets"])
        assert sum(payload["buckets"].values()) == 3


class TestTopSpans:
    def test_ranks_by_self_time_not_total_time(self):
        # parent: 100ms total but only 10ms of its own work.
        spans = [
            _span(1, "parent", "engine", 0, 100_000),
            _span(2, "child", "job", 1_000, 90_000, parent=1),
        ]
        ranked = top_spans(spans)
        assert [row["name"] for row in ranked] == ["child", "parent"]
        assert ranked[0]["self_ms"] == pytest.approx(90.0)
        assert ranked[1]["self_ms"] == pytest.approx(10.0)

    def test_children_in_other_processes_do_not_deduct(self):
        # span ids collide across pids; self time must namespace by pid.
        spans = [
            _span(1, "parent", "engine", 0, 50_000, pid=10),
            _span(1, "worker-root", "job", 0, 40_000, pid=20),
            _span(2, "worker-child", "stage", 0, 30_000, pid=20, parent=1),
        ]
        by_name = {row["name"]: row for row in top_spans(spans)}
        assert by_name["parent"]["self_ms"] == pytest.approx(50.0)
        assert by_name["worker-root"]["self_ms"] == pytest.approx(10.0)

    def test_limit_and_negative_self_clamp(self):
        spans = [
            _span(1, "parent", "engine", 0, 10),
            _span(2, "long-child", "job", 0, 50, parent=1),  # clock skew
        ]
        ranked = top_spans(spans, limit=1)
        assert len(ranked) == 1
        assert ranked[0]["name"] == "long-child"


class TestBuildMetrics:
    def _trace(self):
        return [
            _span(1, "run", "run", 0, 500_000, pid=1),
            _span(2, "job:a", "job", 1_000, 200_000, pid=2, candidate_rows=10),
            _span(3, "job:b", "job", 1_000, 100_000, pid=3, candidate_rows=5),
            _span(4, "cache-hit:c", "cache", 2_000, 0, pid=1, parent=1),
            _span(5, "rewrite", "pass", 3_000, 40_000, pid=2),
            _span(6, "match", "stage", 4_000, 30_000, pid=2),
            _span(7, "match", "stage", 4_000, 20_000, pid=3),
        ]

    def test_report_shape_and_aggregates(self):
        counters = {
            "jobs.retry": 2,
            "jobs.crash": 1,
            "jobs.backoff_seconds": 0.75,
        }
        report = build_metrics(self._trace(), counters, run_id="rid")
        assert report["schema"] == 2
        assert report["run_id"] == "rid"
        assert report["spans"]["total"] == 7
        assert report["spans"]["pids"] == [1, 2, 3]
        assert report["spans"]["by_category"]["job"] == 2
        assert report["jobs"]["executed"] == 2
        assert report["jobs"]["cached"] == 1
        assert report["jobs"]["retries"] == 2
        assert report["jobs"]["crashes"] == 1
        assert report["jobs"]["backoff_seconds"] == 0.75
        assert report["histograms"]["job_latency_ms"]["count"] == 2
        assert report["histograms"]["pass_latency_ms"]["count"] == 1
        assert report["stage_totals_ms"] == {"match": pytest.approx(50.0)}
        assert report["stage_entries"] == {"match": 2}
        assert report["mapper"]["candidate_rows"] == 15
        assert len(report["top_spans_by_self_time"]) == 5
        assert "robustness" not in report

    def test_stage_entries_share_the_totals_keys_in_sorted_order(self):
        trace = self._trace() + [
            _span(8, "cover", "stage", 5_000, 10_000, pid=2),
            _span(9, "aaa", "pass", 5_000, 10_000, pid=2),
        ]
        report = build_metrics(trace, {})
        assert report["stage_entries"] == {"cover": 1, "match": 2}
        assert list(report["stage_entries"]) == list(report["stage_totals_ms"])

    def test_cache_figures_prefer_robustness_stats(self):
        robustness = {"cache": {"hits": 3, "misses": 1}}
        report = build_metrics(self._trace(), {}, robustness=robustness)
        assert report["cache"] == {"hits": 3, "misses": 1, "hit_rate": 0.75}
        assert report["robustness"] == robustness

    def test_empty_trace_produces_a_valid_report(self):
        report = build_metrics([], {}, run_id=None)
        assert report["spans"]["total"] == 0
        assert report["stage_entries"] == {}
        assert report["cache"]["hit_rate"] == 0.0
        assert report["top_spans_by_self_time"] == []
