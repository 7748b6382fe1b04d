"""Leader-election oracle for a Paxos group.

Paxos needs an (eventual) leader-election oracle for liveness (paper
§II-A).  Two modes:

* **static** — the configured node is leader forever.  Benchmarks without
  failures use this: no heartbeat traffic pollutes latency measurements,
  and the leader can be pinned to the partition's *preferred server*.
* **heartbeat** — members broadcast heartbeats; a member that has not been
  heard from within ``timeout`` is suspected.  The leader is the first
  unsuspected member in group order, so all members converge on the same
  choice once suspicions stabilise (an Ω-style oracle, sufficient for
  Paxos liveness under partial synchrony).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.consensus.messages import Heartbeat
from repro.errors import ConfigurationError
from repro.runtime.base import Runtime


class LeaderElector:
    """Tracks the current leader of one group at one member."""

    def __init__(
        self,
        runtime: Runtime,
        group_id: str,
        members: list[str],
        static_leader: str | None = None,
        heartbeat_interval: float = 0.05,
        suspect_timeout: float = 0.25,
        on_change: Callable[[str | None], None] | None = None,
    ) -> None:
        if runtime.node_id not in members:
            raise ConfigurationError(
                f"{runtime.node_id} is not a member of group {group_id!r}"
            )
        if static_leader is not None and static_leader not in members:
            raise ConfigurationError(f"static leader {static_leader!r} not in group")
        self.runtime = runtime
        self.group_id = group_id
        self.members = list(members)
        self.static_leader = static_leader
        self.heartbeat_interval = heartbeat_interval
        self.suspect_timeout = suspect_timeout
        self.on_change = on_change
        self._last_seen: dict[str, float] = {}
        self._leader: str | None = static_leader
        self._started = False

    @property
    def leader(self) -> str | None:
        return self._leader

    def is_leader(self) -> bool:
        return self._leader == self.runtime.node_id

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin heartbeating (no-op in static mode)."""
        if self.static_leader is not None or self._started:
            if not self._started and self.on_change is not None:
                self.on_change(self._leader)
            self._started = True
            return
        self._started = True
        now = self.runtime.now()
        for member in self.members:
            self._last_seen[member] = now
        self._recompute()
        self._beat()
        self._check()

    def _beat(self) -> None:
        for member in self.members:
            if member != self.runtime.node_id:
                self.runtime.send(member, Heartbeat(group=self.group_id, leader_hint=self._leader))
        self.runtime.set_timer(self.heartbeat_interval, self._beat)

    def _check(self) -> None:
        self._recompute()
        self.runtime.set_timer(self.suspect_timeout / 2, self._check)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def on_heartbeat(self, src: str, msg: Heartbeat) -> None:
        if self.static_leader is not None:
            return
        if msg.group != self.group_id or src not in self.members:
            return
        self._last_seen[src] = self.runtime.now()
        self._recompute()

    def _recompute(self) -> None:
        now = self.runtime.now()
        alive = [
            member
            for member in self.members
            if member == self.runtime.node_id
            or now - self._last_seen.get(member, -1e18) <= self.suspect_timeout
        ]
        new_leader = alive[0] if alive else None
        if new_leader != self._leader:
            self._leader = new_leader
            if self.runtime.obs.enabled:
                self.runtime.obs.event(
                    "leader.change", self.runtime.node_id, None,
                    group=self.group_id, leader=new_leader,
                )
            if self.on_change is not None:
                self.on_change(new_leader)
