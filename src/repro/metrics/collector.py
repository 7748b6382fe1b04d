"""Collects transaction results and summarizes them paper-style.

The collector receives every :class:`~repro.core.client.TxnResult` from
the workload drivers.  Summaries are computed over a measurement window
(results that *finish* inside it), so warm-up and drain-down are excluded
— the paper reports steady-state numbers at 75 % of peak load.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.client import TxnResult
from repro.metrics.stats import LatencySummary, cdf_points


@dataclass(frozen=True)
class WorkloadSummary:
    """Throughput and latency for one (sub-)population of transactions."""

    committed: int
    aborted: int
    throughput: float  # committed transactions per second
    latency: LatencySummary

    @property
    def abort_rate(self) -> float:
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0


class MetricsCollector:
    """Accumulates results; summarizes over a measurement window."""

    def __init__(self) -> None:
        self.results: list[TxnResult] = []

    def record(self, result: TxnResult) -> None:
        self.results.append(result)

    def __len__(self) -> int:
        return len(self.results)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def in_window(self, start: float, end: float) -> list[TxnResult]:
        return [r for r in self.results if start <= r.finished <= end]

    @staticmethod
    def _select(
        results: list[TxnResult],
        is_global: bool | None = None,
        label: str | None = None,
        read_only: bool | None = None,
    ) -> list[TxnResult]:
        out = results
        if is_global is not None:
            out = [r for r in out if r.is_global == is_global]
        if label is not None:
            out = [r for r in out if r.label == label]
        if read_only is not None:
            out = [r for r in out if r.read_only == read_only]
        return out

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(
        self,
        start: float,
        end: float,
        is_global: bool | None = None,
        label: str | None = None,
        read_only: bool | None = None,
    ) -> WorkloadSummary:
        if end <= start:
            raise ValueError("measurement window must have positive length")
        selected = self._select(self.in_window(start, end), is_global, label, read_only)
        committed = [r for r in selected if r.committed]
        aborted = [r for r in selected if not r.committed]
        return WorkloadSummary(
            committed=len(committed),
            aborted=len(aborted),
            throughput=len(committed) / (end - start),
            latency=LatencySummary.from_samples([r.latency for r in committed]),
        )

    def goodput_timeline(
        self, start: float, end: float, bucket: float = 1.0
    ) -> list[tuple[float, float, float, float]]:
        """``(bucket_start, committed/s, aborted/s, shed/s)`` per bucket.

        The operator's overload dashboard (§16): *goodput* is the
        committed rate; sheds — transactions the client abandoned after
        exhausting ``Busy`` resubmissions (abort reason ``shed (...)``)
        — are split out from ordinary certification aborts so graceful
        degradation is visible as explicit refusals, not failures.
        """
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        num_buckets = max(1, int(round((end - start) / bucket)))
        committed = [0] * num_buckets
        aborted = [0] * num_buckets
        shed = [0] * num_buckets
        for result in self.results:
            # Window semantics match in_window()/summary(): closed on
            # both ends.  A result finishing exactly at ``end`` lands in
            # the last bucket rather than vanishing off the edge
            # (index == num_buckets).
            if result.finished < start or result.finished > end:
                continue
            index = min(int((result.finished - start) / bucket), num_buckets - 1)
            if result.committed:
                committed[index] += 1
            elif result.abort_reason is not None and result.abort_reason.startswith("shed"):
                shed[index] += 1
            else:
                aborted[index] += 1
        return [
            (start + i * bucket, committed[i] / bucket, aborted[i] / bucket, shed[i] / bucket)
            for i in range(num_buckets)
        ]

    def latency_cdf(
        self,
        start: float,
        end: float,
        is_global: bool | None = None,
        label: str | None = None,
        num_points: int = 100,
    ) -> list[tuple[float, float]]:
        selected = self._select(self.in_window(start, end), is_global, label)
        return cdf_points([r.latency for r in selected if r.committed], num_points)

    def labels(self) -> list[str]:
        return sorted({r.label for r in self.results if r.label})
