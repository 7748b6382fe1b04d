"""The autoscale controller: monitor → policy → reconfiguration.

Ticks on the cluster's runtime clock (simulated or real — it only uses
the kernel's ``schedule``), feeds the :class:`LoadMonitor`'s pressure
signals to the :class:`ScalePolicy`, and actuates whatever it decides
through the live reconfiguration protocol: ``split_partition`` for
overload, ``merge_partitions`` for sustained idleness.  Mergeability is
*routing adjacency*: a partition may only be absorbed back into the
partition it was split off from (both still active), so every merge
exactly undoes an earlier split and the key routing round-trips
(``MergePartitionMap`` over ``SplitPartitionMap`` is the identity).

Replica-group membership never changes here — splits allocate fresh
servers and merges retire a whole group in place; moving replicas
between groups is a separate problem (ROADMAP).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.autoscale.config import AutoscaleConfig
from repro.autoscale.monitor import LoadMonitor
from repro.autoscale.policy import ScalePolicy
from repro.telemetry.wiring import build_autoscale_registry

if TYPE_CHECKING:
    from repro.harness.cluster import SdurCluster


class AutoscaleController:
    """One control loop per cluster (armed via ``enable_autoscale``)."""

    def __init__(self, cluster: "SdurCluster", config: AutoscaleConfig) -> None:
        self.cluster = cluster
        self.config = config
        self.monitor = LoadMonitor(cluster, config)
        self.policy = ScalePolicy(config)
        self.splits_triggered = 0
        self.merges_triggered = 0
        self.decisions_suppressed_cooldown = 0
        #: Actuation log ``(time, action, partition, into)`` for tests
        #: and experiment reports.
        self.events: list[tuple[float, str, str, str]] = []
        #: §19 telemetry over the loop's own counters; sampled as the
        #: pseudo-node "autoscale" when telemetry is enabled.
        self.registry = build_autoscale_registry(self)
        self._armed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Start the periodic tick."""
        if self._armed:
            return
        self._armed = True
        self.cluster.world.kernel.schedule(self.config.interval, self._tick)

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.cluster.world.now
        loads = self.monitor.sample(now)
        pressures = {p: load.pressure for p, load in loads.items()}
        active = self.cluster.routing.active_partitions()
        decision = self.policy.decide(
            now, pressures, self.mergeable_pairs(), len(active)
        )
        if decision.action == "split":
            self.splits_triggered += 1
            self.events.append((now, "split", decision.partition, ""))
            if self.cluster.obs.enabled:
                self.cluster.obs.event(
                    "autoscale.split", "autoscale", None, partition=decision.partition,
                    pressure=round(pressures.get(decision.partition, 0.0), 1),
                )
            self.cluster.split_partition(decision.partition)
        elif decision.action == "merge":
            self.merges_triggered += 1
            self.events.append((now, "merge", decision.partition, decision.into))
            if self.cluster.obs.enabled:
                self.cluster.obs.event(
                    "autoscale.merge", "autoscale", None,
                    absorbed=decision.partition, into=decision.into,
                )
            self.cluster.merge_partitions(
                absorbed=decision.partition, into=decision.into
            )
            self.monitor.forget(decision.partition)
        elif decision.suppressed_by_cooldown:
            self.decisions_suppressed_cooldown += 1
        self.cluster.world.kernel.schedule(self.config.interval, self._tick)

    def mergeable_pairs(self) -> list[tuple[str, str]]:
        """Routing-adjacent ``(absorbed, into)`` candidates.

        A split of ``source`` that created ``new_partition`` makes the
        pair mergeable in exactly one direction — the child folds back
        into its parent — as long as neither side has since retired.
        """
        routing = self.cluster.routing
        pairs = []
        for change in routing.changes:
            if change.is_merge:
                continue
            if change.source in routing.retired or change.new_partition in routing.retired:
                continue
            pairs.append((change.new_partition, change.source))
        return pairs

    def counters(self) -> dict[str, int]:
        """Exported through ``SdurCluster.server_stats()`` as the
        ``autoscale`` pseudo-node (docs/PROTOCOL.md §17)."""
        return {
            "splits_triggered": self.splits_triggered,
            "merges_triggered": self.merges_triggered,
            "decisions_suppressed_cooldown": self.decisions_suppressed_cooldown,
        }
