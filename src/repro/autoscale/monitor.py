"""Load monitoring: per-partition pressure signals for the scale policy.

The monitor reads every server's §19 metric registry (the declared
``sdur_certified`` / ``sdur_shed_total`` / ``sdur_queue_depth``
metrics) on the controller's tick, converts the counters to rates,
averages across a partition's replicas — every replica certifies every
transaction of its partition, so replica rates are estimates of the
same quantity, not shares of it — and smooths the combined *pressure*
signal with an EWMA so one bursty sample cannot trigger a migration.
The rate/smoothing plumbing is the shared :mod:`repro.telemetry.series`
machinery (:class:`RateTracker`, :class:`Ewma`), not private state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.autoscale.config import AutoscaleConfig
from repro.telemetry.series import Ewma, RateTracker

if TYPE_CHECKING:
    from repro.harness.cluster import SdurCluster


@dataclass(frozen=True)
class PartitionLoad:
    """One partition's smoothed load signals at a sample instant."""

    partition: str
    #: Certified transactions/second (committed + aborted; aborts cost
    #: the same certification work).
    throughput: float
    #: Mean delivery backlog across replicas (stalled + pending).
    queue_depth: float
    #: Shed commit requests/second (admission pushback already firing).
    shed_rate: float
    #: EWMA-smoothed scalar the policy thresholds against.
    pressure: float


class LoadMonitor:
    """Turns registry metrics into per-partition pressure signals."""

    def __init__(self, cluster: "SdurCluster", config: AutoscaleConfig) -> None:
        self.cluster = cluster
        self.config = config
        #: node -> rate trackers over the monotonic registry counters.
        self._certified: dict[str, RateTracker] = {}
        self._shed: dict[str, RateTracker] = {}
        #: partition -> smoothed pressure.
        self._ewma: dict[str, Ewma] = {}

    def sample(self, now: float) -> dict[str, PartitionLoad]:
        """One monitoring pass over every active partition."""
        per_partition: dict[str, list[tuple[float, float, float]]] = {}
        for node_id, handle in self.cluster.servers.items():
            registry = handle.server.registry
            tracker = self._certified.get(node_id)
            if tracker is None:
                tracker = self._certified[node_id] = RateTracker()
                self._shed[node_id] = RateTracker()
            rate = tracker.update(now, registry.value("sdur_certified"))
            shed = self._shed[node_id].update(now, registry.value("sdur_shed_total"))
            if rate is None or shed is None:
                continue  # first sighting (or clock stall): no rate yet
            per_partition.setdefault(handle.partition, []).append(
                (rate, shed, registry.value("sdur_queue_depth"))
            )
        loads: dict[str, PartitionLoad] = {}
        for partition in self.cluster.routing.active_partitions():
            samples = per_partition.get(partition)
            if not samples:
                continue
            throughput = sum(s[0] for s in samples) / len(samples)
            shed_rate = sum(s[1] for s in samples) / len(samples)
            queue_depth = sum(s[2] for s in samples) / len(samples)
            raw = throughput + self.config.queue_weight * queue_depth
            ewma = self._ewma.get(partition)
            if ewma is None:
                ewma = self._ewma[partition] = Ewma(self.config.ewma_alpha)
            loads[partition] = PartitionLoad(
                partition=partition,
                throughput=throughput,
                queue_depth=queue_depth,
                shed_rate=shed_rate,
                pressure=ewma.update(raw),
            )
        return loads

    def forget(self, partition: str) -> None:
        """Drop smoothing state for a retired partition."""
        self._ewma.pop(partition, None)
