"""Atomic broadcast facade used by the SDUR layer.

SDUR servers call ``abcast(p, value)`` for any partition ``p`` — their own
(propose at the local replica) or a remote one (message ② of Figure 1:
ship the value to that partition's Paxos coordinator).  Delivery happens
only at the members of ``p``'s group, in total order, via the replica's
``on_deliver`` callback.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.messages import ClientPropose
from repro.consensus.replica import PaxosReplica
from repro.errors import ConfigurationError
from repro.obs.recorder import NULL_RECORDER
from repro.runtime.base import Runtime


class AbcastFabric:
    """One node's view of every partition's broadcast group."""

    def __init__(
        self,
        runtime: Runtime,
        groups: dict[str, list[str]],
        coordinator_hints: dict[str, str],
        redundant_submit: bool = False,
    ) -> None:
        for partition, hint in coordinator_hints.items():
            if partition not in groups:
                raise ConfigurationError(f"hint for unknown partition {partition!r}")
            if hint not in groups[partition]:
                raise ConfigurationError(
                    f"coordinator hint {hint!r} not in group of partition {partition!r}"
                )
        self.runtime = runtime
        self._obs = getattr(runtime, "obs", NULL_RECORDER)
        self.groups = {partition: list(members) for partition, members in groups.items()}
        self.coordinator_hints = dict(coordinator_hints)
        self.local_replicas: dict[str, PaxosReplica] = {}
        #: Send remote submissions to every member of the target group
        #: instead of only its coordinator hint.  Costs duplicate
        #: proposals (receivers de-duplicate by value identity at the
        #: application layer) but survives a crashed hint — used when
        #: leaders are elected rather than pinned.
        self.redundant_submit = redundant_submit

    def add_group(
        self, partition: str, members: list[str] | tuple[str, ...], hint: str | None = None
    ) -> None:
        """Learn a partition created after this fabric was built.

        Idempotent: re-adding an existing group refreshes membership and
        hint (reconfigurations are applied by every replica of the
        affected partitions and gossiped to the rest).
        """
        members = list(members)
        if not members:
            raise ConfigurationError(f"group {partition!r} needs at least one member")
        if hint is not None and hint not in members:
            raise ConfigurationError(
                f"coordinator hint {hint!r} not in group of partition {partition!r}"
            )
        self.groups[partition] = members
        if hint is not None:
            self.coordinator_hints[partition] = hint

    def attach_replica(self, partition: str, replica: PaxosReplica) -> None:
        """Register the local replica for a partition this node belongs to."""
        if self.runtime.node_id not in self.groups.get(partition, ()):
            raise ConfigurationError(
                f"{self.runtime.node_id} does not replicate partition {partition!r}"
            )
        self.local_replicas[partition] = replica

    def members_of(self, partition: str) -> list[str]:
        try:
            return self.groups[partition]
        except KeyError:
            raise ConfigurationError(f"unknown partition {partition!r}") from None

    def coordinator_of(self, partition: str) -> str:
        """Best-known proposer entry point for ``partition``."""
        replica = self.local_replicas.get(partition)
        if replica is not None and replica.leader is not None:
            return replica.leader
        hint = self.coordinator_hints.get(partition)
        if hint is None:
            # Deterministic fallback: first group member.
            return self.members_of(partition)[0]
        return hint

    def abcast(self, partition: str, value: Any) -> None:
        """Atomically broadcast ``value`` within ``partition``'s group."""
        if self._obs.enabled:
            tid = getattr(value, "tid", None)
            if tid is not None:
                self._obs.event(
                    "abcast.propose",
                    self.runtime.node_id,
                    tid,
                    partition=partition,
                    value=type(value).__name__,
                )
        replica = self.local_replicas.get(partition)
        if replica is not None:
            replica.propose(value)
            return
        proposal = ClientPropose(group=partition, value=value)
        if self.redundant_submit:
            for member in self.members_of(partition):
                self.runtime.send(member, proposal)
        else:
            self.runtime.send(self.coordinator_of(partition), proposal)
