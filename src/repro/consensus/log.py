"""Per-replica Paxos instance log with in-order delivery.

Tracks, per instance: the highest promise, the last accepted
(ballot, value), votes observed for learning, and the chosen value.
Chosen values are released to the application strictly in instance order
— this is what makes Paxos an *atomic broadcast* (total order, gap-free).

The log holds the undelivered suffix and the few delivered instances
some member has not yet reported, not the history: :meth:`PaxosLog.forget_below` drops every entry below a
floor the whole group has delivered (PROTOCOL.md §4, "What a replica
forgets").  A forgotten instance counts as chosen and is never
recreated, so a late message about one changes nothing here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.consensus.messages import BALLOT_ZERO, Ballot
from repro.errors import ConsensusError


@dataclass(slots=True)
class InstanceState:
    """Acceptor/learner state for one consensus instance."""

    accepted_ballot: Ballot = BALLOT_ZERO
    accepted_value: Any = None
    has_accepted: bool = False
    #: ballot -> set of acceptor ids that reported Accepted at that ballot;
    #: made by the first vote, so a follower (which counts none) has none.
    votes: dict[Ballot, set[str]] | None = None
    chosen: bool = False
    chosen_value: Any = None


class PaxosLog:
    """The ordered log of consensus instances at one replica."""

    def __init__(self) -> None:
        self._instances: dict[int, InstanceState] = {}
        self._next_to_deliver = 0
        self._max_seen = -1
        #: Every instance below this was delivered and its entry dropped.
        self._forgotten = 0

    @property
    def next_to_deliver(self) -> int:
        return self._next_to_deliver

    @property
    def max_seen_instance(self) -> int:
        """Highest instance this replica has heard of (−1 if none)."""
        return self._max_seen

    def is_forgotten(self, instance: int) -> bool:
        """True if ``instance`` was delivered and its entry dropped."""
        return instance < self._forgotten

    def state(self, instance: int) -> InstanceState:
        if instance < 0:
            raise ConsensusError(f"negative instance {instance}")
        if instance < self._forgotten:
            raise ConsensusError(f"instance {instance} is forgotten")
        entry = self._instances.get(instance)
        if entry is None:
            entry = InstanceState()
            self._instances[instance] = entry
        self._max_seen = max(self._max_seen, instance)
        return entry

    def is_chosen(self, instance: int) -> bool:
        if instance < self._forgotten:
            return True
        entry = self._instances.get(instance)
        return entry is not None and entry.chosen

    def chosen_value(self, instance: int) -> Any:
        """The value chosen at ``instance``, or ``None`` when this log
        does not hold one: unknown, undecided, or forgotten."""
        entry = self._instances.get(instance)
        return entry.chosen_value if entry is not None and entry.chosen else None

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def record_vote(
        self, instance: int, ballot: Ballot, value: Any, acceptor: str, quorum: int
    ) -> bool:
        """Record a Phase-2b vote; returns True if this vote chose the value."""
        if instance < self._forgotten:
            return False
        entry = self.state(instance)
        if entry.chosen:
            return False
        if entry.votes is None:
            entry.votes = {}
        voters = entry.votes.setdefault(ballot, set())
        voters.add(acceptor)
        if len(voters) >= quorum:
            self.mark_chosen(instance, value)
            return True
        return False

    def mark_chosen(self, instance: int, value: Any) -> None:
        if instance < self._forgotten:
            return
        entry = self.state(instance)
        if entry.chosen:
            if entry.chosen_value is not value and entry.chosen_value != value:
                raise ConsensusError(
                    f"instance {instance} chosen twice with different values"
                )
            return
        entry.chosen = True
        entry.chosen_value = value
        # Vote bookkeeping is no longer needed once chosen.
        entry.votes = None

    def forget_below(self, floor: int) -> None:
        """Drop every entry below ``min(floor, next_to_deliver)``.

        The caller vouches that every member of the group has delivered
        everything below ``floor``, so no peer can still ask for it.
        """
        stop = min(floor, self._next_to_deliver)
        if stop <= self._forgotten:
            return
        pop = self._instances.pop
        for old in range(self._forgotten, stop):
            pop(old, None)
        self._forgotten = stop

    def advance_to(self, instance: int) -> None:
        """Move the delivery cursor forward (checkpoint installation).

        Instances below ``instance`` are considered delivered-and-compacted:
        their per-instance state is dropped and they count as forgotten.
        """
        if instance < self._next_to_deliver:
            raise ConsensusError(
                f"cannot move delivery cursor backwards "
                f"({self._next_to_deliver} -> {instance})"
            )
        self._next_to_deliver = instance
        self.forget_below(instance)
        self._max_seen = max(self._max_seen, instance - 1)

    def pop_deliverable(self) -> list[tuple[int, Any]]:
        """Chosen values at the delivery cursor, advancing it past them."""
        out: list[tuple[int, Any]] = []
        while True:
            entry = self._instances.get(self._next_to_deliver)
            if entry is None or not entry.chosen:
                return out
            out.append((self._next_to_deliver, entry.chosen_value))
            self._next_to_deliver += 1

    # ------------------------------------------------------------------
    # Acceptor state snapshot for Phase 1b
    # ------------------------------------------------------------------
    def accepted_at_or_above(self, from_instance: int) -> dict[int, tuple[Ballot, Any]]:
        return {
            instance: (entry.accepted_ballot, entry.accepted_value)
            for instance, entry in self._instances.items()
            if instance >= from_instance and entry.has_accepted
        }
