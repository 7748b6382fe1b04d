"""Unit tests for the metrics collector."""

import pytest

from repro.core.client import TxnResult
from repro.core.transaction import Outcome, TxnId
from repro.metrics.collector import MetricsCollector


def result(seq, finished, latency=0.01, committed=True, is_global=False,
           label="", read_only=False):
    return TxnResult(
        tid=TxnId("c", seq),
        outcome=Outcome.COMMIT if committed else Outcome.ABORT,
        started=finished - latency,
        finished=finished,
        is_global=is_global,
        read_only=read_only,
        partitions=("p0", "p1") if is_global else ("p0",),
        label=label,
    )


class TestWindows:
    def test_only_in_window_results_counted(self):
        collector = MetricsCollector()
        collector.record(result(1, finished=0.5))   # before window
        collector.record(result(2, finished=1.5))   # inside
        collector.record(result(3, finished=2.5))   # after
        summary = collector.summary(1.0, 2.0)
        assert summary.committed == 1

    def test_throughput_is_committed_over_duration(self):
        collector = MetricsCollector()
        for i in range(20):
            collector.record(result(i, finished=1.0 + i * 0.04))
        summary = collector.summary(1.0, 2.0)
        assert summary.throughput == pytest.approx(summary.committed / 1.0)

    def test_zero_length_window_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector().summary(1.0, 1.0)


class TestGoodputTimeline:
    def test_result_at_exact_window_end_lands_in_last_bucket(self):
        # Regression: ``finished == end`` used to compute index ==
        # num_buckets and fall off the timeline even though in_window()
        # (closed on both ends) counts it.
        collector = MetricsCollector()
        collector.record(result(1, finished=2.0))
        timeline = collector.goodput_timeline(0.0, 2.0, bucket=1.0)
        assert [row[1] for row in timeline] == [0.0, 1.0]
        assert len(collector.in_window(0.0, 2.0)) == 1

    def test_timeline_totals_match_in_window(self):
        collector = MetricsCollector()
        for i in range(9):
            collector.record(result(i, finished=0.5 + i * 0.25))  # 0.5 .. 2.5
        start, end = 1.0, 2.0
        timeline = collector.goodput_timeline(start, end, bucket=0.5)
        counted = sum(row[1] + row[2] + row[3] for row in timeline) * 0.5
        assert counted == len(collector.in_window(start, end))

    def test_shed_split_from_aborts(self):
        collector = MetricsCollector()
        shed = result(1, finished=0.5, committed=False)
        shed = shed.__class__(**{**shed.__dict__, "abort_reason": "shed (queue)"})
        collector.record(shed)
        collector.record(result(2, finished=0.5, committed=False))
        ((_, committed, aborted, sheds),) = collector.goodput_timeline(
            0.0, 1.0, bucket=1.0
        )
        assert (committed, aborted, sheds) == (0.0, 1.0, 1.0)

    def test_bucket_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsCollector().goodput_timeline(0.0, 1.0, bucket=0.0)


class TestFilters:
    def test_global_local_split(self):
        collector = MetricsCollector()
        collector.record(result(1, 1.1, is_global=False))
        collector.record(result(2, 1.2, is_global=True))
        assert collector.summary(1.0, 2.0, is_global=False).committed == 1
        assert collector.summary(1.0, 2.0, is_global=True).committed == 1

    def test_label_filter(self):
        collector = MetricsCollector()
        collector.record(result(1, 1.1, label="post"))
        collector.record(result(2, 1.2, label="timeline", read_only=True))
        assert collector.summary(1.0, 2.0, label="post").committed == 1
        assert collector.summary(1.0, 2.0, read_only=True).committed == 1
        assert collector.summary(1.0, 2.0, label="timeline").committed == 1

    def test_abort_rate(self):
        collector = MetricsCollector()
        collector.record(result(1, 1.1, committed=True))
        collector.record(result(2, 1.2, committed=False))
        summary = collector.summary(1.0, 2.0)
        assert summary.aborted == 1
        assert summary.abort_rate == pytest.approx(0.5)

    def test_aborts_excluded_from_latency(self):
        collector = MetricsCollector()
        collector.record(result(1, 1.1, latency=0.01, committed=True))
        collector.record(result(2, 1.2, latency=9.99, committed=False))
        summary = collector.summary(1.0, 2.0)
        assert summary.latency.maximum == pytest.approx(0.01)

    def test_cdf_over_window(self):
        collector = MetricsCollector()
        for i in range(10):
            collector.record(result(i, 1.1 + i * 0.01, latency=0.001 * (i + 1)))
        points = collector.latency_cdf(1.0, 2.0)
        assert points[-1][1] == pytest.approx(1.0)
        assert len(points) == 10
