"""Scheduled fault injection for experiments.

A :class:`FaultSchedule` scripts failures against a running cluster —
crash this server at t=10, cut that link at t=20, heal it at t=25 — so
availability experiments are reproducible.  Combined with windowed
throughput (:func:`repro.metrics.collector.MetricsCollector` +
:func:`throughput_timeline`) it shows the paper-style behaviour under
faults: the dip while a partition elects a new leader, and recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro.core.client import TxnResult
from repro.errors import ConfigurationError
from repro.harness.cluster import SdurCluster

FaultKind = Literal["crash", "cut", "heal", "split", "degrade", "restore"]


@dataclass(frozen=True)
class Fault:
    """One scheduled fault (or reconfiguration event)."""

    at: float
    kind: FaultKind
    #: Node for crashes/degrades/restores; ``(a, b)`` endpoints for
    #: cut/heal; the source partition id for splits.
    target: str | tuple[str, str]
    #: Extra per-message delay for ``degrade`` (gray failure).
    delay: float = 0.0
    #: Additional uniform jitter on top of ``delay`` for ``degrade``.
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("fault time must be non-negative")
        if self.kind in ("crash", "split", "degrade", "restore") and not isinstance(
            self.target, str
        ):
            raise ConfigurationError(
                f"{self.kind} targets one "
                f"{'partition' if self.kind == 'split' else 'node'}"
            )
        if self.kind in ("cut", "heal") and (
            not isinstance(self.target, tuple) or len(self.target) != 2
        ):
            raise ConfigurationError(f"{self.kind} targets a link (a, b)")
        if self.kind == "degrade" and (self.delay < 0 or self.jitter < 0):
            raise ConfigurationError("degrade delay/jitter must be non-negative")


@dataclass
class FaultSchedule:
    """An ordered script of faults, armed onto a cluster's kernel."""

    faults: list[Fault] = field(default_factory=list)
    #: Faults that have fired (time, kind, target), for assertions.
    fired: list[tuple[float, str, object]] = field(default_factory=list)

    # Convenience builders -------------------------------------------------
    def crash(self, at: float, node: str) -> "FaultSchedule":
        self.faults.append(Fault(at=at, kind="crash", target=node))
        return self

    def cut(self, at: float, a: str, b: str) -> "FaultSchedule":
        self.faults.append(Fault(at=at, kind="cut", target=(a, b)))
        return self

    def heal(self, at: float, a: str, b: str) -> "FaultSchedule":
        self.faults.append(Fault(at=at, kind="heal", target=(a, b)))
        return self

    def split(self, at: float, partition: str) -> "FaultSchedule":
        """Schedule a live split of ``partition`` (elastic repartitioning)."""
        self.faults.append(Fault(at=at, kind="split", target=partition))
        return self

    def degrade(
        self, at: float, node: str, delay: float, jitter: float = 0.0
    ) -> "FaultSchedule":
        """Gray-fail ``node``: every message to/from it takes ``delay``
        extra seconds (+ up to ``jitter``).  The node stays up and correct
        — the *slow replica* failure mode crash detectors miss."""
        self.faults.append(
            Fault(at=at, kind="degrade", target=node, delay=delay, jitter=jitter)
        )
        return self

    def restore(self, at: float, node: str) -> "FaultSchedule":
        """Undo a degrade: ``node`` returns to healthy latency."""
        self.faults.append(Fault(at=at, kind="restore", target=node))
        return self

    def region_loss(self, at: float, cluster: SdurCluster, region: str) -> "FaultSchedule":
        """Disconnect ``region``'s servers from everything outside it.

        Unlike a crash (crash-stop is forever in the sim), a loss is
        *recoverable*: :meth:`region_heal` restores the links
        and the isolated replicas catch up through Paxos.
        """
        for a, b in self._region_boundary(cluster, region):
            self.cut(at, a, b)
        return self

    def region_heal(self, at: float, cluster: SdurCluster, region: str) -> "FaultSchedule":
        """Reconnect a region isolated by :meth:`region_loss`."""
        for a, b in self._region_boundary(cluster, region):
            self.heal(at, a, b)
        return self

    @staticmethod
    def _region_boundary(cluster: SdurCluster, region: str) -> list[tuple[str, str]]:
        """Every (inside-server, outside-node) link crossing the region edge.

        Note the asymmetry: clients *inside* the lost region keep their
        links (they share the region's fate anyway), while traffic from
        outside clients and servers into the region is severed.
        """
        topology = cluster.deployment.topology
        inside = [n for n in topology.nodes_in_region(region) if n in cluster.servers]
        outside = [n for n in topology.node_ids if topology.region_of(n) != region]
        return [(a, b) for a in inside for b in outside]

    # Arming ---------------------------------------------------------------
    def arm(self, cluster: SdurCluster) -> None:
        """Schedule every fault on the cluster's simulation kernel."""
        for fault in sorted(self.faults, key=lambda f: f.at):
            cluster.world.kernel.schedule(
                max(0.0, fault.at - cluster.world.now),
                self._fire,
                cluster,
                fault,
            )

    def _fire(self, cluster: SdurCluster, fault: Fault) -> None:
        if fault.kind == "crash":
            cluster.crash_server(fault.target)  # type: ignore[arg-type]
        elif fault.kind == "cut":
            a, b = fault.target  # type: ignore[misc]
            cluster.world.network.cut_link(a, b)
        elif fault.kind == "heal":
            a, b = fault.target  # type: ignore[misc]
            cluster.world.network.heal_link(a, b)
        elif fault.kind == "split":
            cluster.split_partition(fault.target)  # type: ignore[arg-type]
        elif fault.kind == "degrade":
            cluster.world.network.degrade(
                fault.target, fault.delay, fault.jitter  # type: ignore[arg-type]
            )
        elif fault.kind == "restore":
            cluster.world.network.restore(fault.target)  # type: ignore[arg-type]
        self.fired.append((cluster.world.now, fault.kind, fault.target))


def throughput_timeline(
    results: list[TxnResult], start: float, end: float, bucket: float = 1.0
) -> list[tuple[float, float]]:
    """Committed transactions per second, bucketed over ``[start, end)``.

    Returns ``(bucket_start_time, tps)`` pairs — the availability curve
    an operator watches during a failover.
    """
    if bucket <= 0:
        raise ConfigurationError("bucket must be positive")
    num_buckets = max(1, int((end - start) / bucket))
    counts = [0] * num_buckets
    for result in results:
        if not result.committed:
            continue
        if start <= result.finished < start + num_buckets * bucket:
            counts[int((result.finished - start) / bucket)] += 1
    return [
        (start + index * bucket, count / bucket) for index, count in enumerate(counts)
    ]
