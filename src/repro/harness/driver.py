"""Closed-loop workload drivers and the experiment runner.

The paper's load generators are closed-loop: each client runs one
transaction at a time, issuing the next as soon as the previous one
completes (optionally after a think time).  Offered load is controlled by
the number of clients, which is how the paper dials deployments to
"75 % of maximum performance".

``run_experiment`` starts the cluster and drivers, runs the simulation
through warm-up + measurement + drain, and returns the collector,
recorder, and measurement window — everything the per-figure experiment
modules need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.checker.history import HistoryRecorder
from repro.core.client import SdurClient, TxnResult
from repro.harness.cluster import SdurCluster
from repro.metrics.collector import MetricsCollector, WorkloadSummary
from repro.obs.spans import TxnTrace, build_traces
from repro.workload.base import Workload
from repro.workload.overload import LoadShape


class ClosedLoopDriver:
    """One client issuing transactions back-to-back."""

    def __init__(
        self,
        client: SdurClient,
        workload: Workload,
        collector: MetricsCollector,
        recorder: HistoryRecorder | None = None,
        think_time: float = 0.0,
        abort_retry: bool = False,
    ) -> None:
        self.client = client
        self.workload = workload
        self.collector = collector
        self.recorder = recorder
        self.think_time = think_time
        #: Re-run the same kind of transaction on abort (the paper counts
        #: aborted transactions separately; retries are new transactions).
        self.abort_retry = abort_retry
        self._rng = client.runtime.rng("workload")
        self._stopped = False
        self.issued = 0

    def start(self) -> None:
        self._issue()

    def stop(self) -> None:
        self._stopped = True

    def _issue(self) -> None:
        if self._stopped:
            return
        spec = self.workload.next_txn(self._rng)
        self.issued += 1
        self.client.execute(
            spec.program, self._on_done, read_only=spec.read_only, label=spec.label
        )

    def _on_done(self, result: TxnResult) -> None:
        self.collector.record(result)
        if self.recorder is not None:
            self.recorder.record_result(result)
        if self._stopped:
            return
        if self.think_time > 0:
            self.client.runtime.set_timer(self.think_time, self._issue)
        else:
            self._issue()


class OpenLoopDriver:
    """Issues transactions at a scripted offered rate (docs/PROTOCOL.md §16).

    Open-loop load models external demand: arrivals follow the
    :class:`~repro.workload.overload.LoadShape` regardless of how many
    transactions are still in flight, so — unlike the closed loop — it
    *can* overload the deployment.  Inter-arrival gaps are exponential
    (Poisson arrivals) from the client's deterministic RNG stream.

    With ``retry_storm`` every abort immediately launches a replacement
    transaction on top of the scheduled arrivals — the anti-pattern of a
    caller that retries without backing off, amplifying its own overload.
    """

    #: Re-check interval while the shape's rate is zero.
    IDLE_POLL = 0.05

    def __init__(
        self,
        client: SdurClient,
        workload: Workload,
        collector: MetricsCollector,
        shape: LoadShape,
        recorder: HistoryRecorder | None = None,
        retry_storm: bool = False,
    ) -> None:
        self.client = client
        self.workload = workload
        self.collector = collector
        self.shape = shape
        self.recorder = recorder
        self.retry_storm = retry_storm
        self._rng = client.runtime.rng("workload")
        self._stopped = False
        self.issued = 0
        self.inflight = 0

    def start(self) -> None:
        self._tick()

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        rate = self.shape.rate(self.client.runtime.now())
        if rate <= 0:
            self.client.runtime.set_timer(self.IDLE_POLL, self._tick)
            return
        self._issue()
        self.client.runtime.set_timer(self._rng.expovariate(rate), self._tick)

    def _issue(self) -> None:
        spec = self.workload.next_txn(self._rng)
        self.issued += 1
        self.inflight += 1
        self.client.execute(
            spec.program, self._on_done, read_only=spec.read_only, label=spec.label
        )

    def _on_done(self, result: TxnResult) -> None:
        self.inflight -= 1
        self.collector.record(result)
        if self.recorder is not None:
            self.recorder.record_result(result)
        if self.retry_storm and not result.committed and not self._stopped:
            self._issue()


@dataclass
class ExperimentRun:
    """Everything measured in one experiment execution."""

    cluster: SdurCluster
    collector: MetricsCollector
    recorder: HistoryRecorder | None
    window_start: float
    window_end: float

    def __post_init__(self) -> None:
        # As the run ended: the cluster may be driven further afterwards.
        self._server_stats = self.cluster.server_stats()

    def summary(self, **filters: object) -> WorkloadSummary:
        return self.collector.summary(self.window_start, self.window_end, **filters)

    def cdf(self, **filters: object) -> list[tuple[float, float]]:
        return self.collector.latency_cdf(self.window_start, self.window_end, **filters)

    def counter(self, name: str) -> int:
        """Cluster-wide total of one server protocol counter."""
        return sum(counters.get(name, 0) for counters in self._server_stats.values())

    def traces(self) -> dict[Any, TxnTrace]:
        """tid -> span tree of each traced transaction (none with tracing off)."""
        return build_traces(getattr(self.cluster.obs, "events", []))


def _run(
    cluster: SdurCluster,
    collector: MetricsCollector,
    recorder: HistoryRecorder | None,
    drivers: list[ClosedLoopDriver] | list[OpenLoopDriver],
    warmup: float,
    measure: float,
    drain: float,
) -> ExperimentRun:
    """The measured run both loops share: warm up, measure, stop, drain."""
    cluster.start()
    for driver in drivers:
        driver.start()
    cluster.world.run(until=warmup + measure)
    for driver in drivers:
        driver.stop()
    cluster.world.run(until=warmup + measure + drain)
    return ExperimentRun(cluster, collector, recorder, warmup, warmup + measure)


def run_experiment(
    cluster: SdurCluster,
    pairs: list[tuple[SdurClient, Workload]],
    warmup: float,
    measure: float,
    drain: float = 3.0,
    think_time: float = 0.0,
    record_history: bool = False,
) -> ExperimentRun:
    """Drive ``pairs`` of (client, workload) through a measured run."""
    collector = MetricsCollector()
    recorder = cluster.attach_recorder() if record_history else None
    drivers = [
        ClosedLoopDriver(client, workload, collector, recorder, think_time=think_time)
        for client, workload in pairs
    ]
    return _run(cluster, collector, recorder, drivers, warmup, measure, drain)


def run_open_loop(
    cluster: SdurCluster,
    trios: list[tuple[SdurClient, Workload, LoadShape]],
    warmup: float,
    measure: float,
    drain: float = 3.0,
    record_history: bool = False,
    retry_storm: bool = False,
) -> ExperimentRun:
    """Like :func:`run_experiment`, but with scripted-rate open-loop load."""
    collector = MetricsCollector()
    recorder = cluster.attach_recorder() if record_history else None
    drivers = [
        OpenLoopDriver(client, workload, collector, shape, recorder, retry_storm)
        for client, workload, shape in trios
    ]
    return _run(cluster, collector, recorder, drivers, warmup, measure, drain)
