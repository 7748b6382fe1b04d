"""Per-replica Paxos instance log with in-order delivery.

Tracks, per instance: the highest promise, the last accepted
(ballot, value), votes observed for learning, and the chosen value.
Chosen values are released to the application strictly in instance order
— this is what makes Paxos an *atomic broadcast* (total order, gap-free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.consensus.messages import BALLOT_ZERO, Ballot
from repro.errors import ConsensusError


@dataclass
class InstanceState:
    """Acceptor/learner state for one consensus instance."""

    accepted_ballot: Ballot = BALLOT_ZERO
    accepted_value: Any = None
    has_accepted: bool = False
    #: ballot -> set of acceptor ids that reported Accepted at that ballot.
    votes: dict[Ballot, set[str]] = field(default_factory=dict)
    chosen: bool = False
    chosen_value: Any = None


class PaxosLog:
    """The ordered log of consensus instances at one replica."""

    def __init__(self) -> None:
        self._instances: dict[int, InstanceState] = {}
        self._next_to_deliver = 0
        self._max_seen = -1

    @property
    def next_to_deliver(self) -> int:
        return self._next_to_deliver

    @property
    def max_seen_instance(self) -> int:
        """Highest instance this replica has heard of (−1 if none)."""
        return self._max_seen

    def state(self, instance: int) -> InstanceState:
        if instance < 0:
            raise ConsensusError(f"negative instance {instance}")
        entry = self._instances.get(instance)
        if entry is None:
            entry = InstanceState()
            self._instances[instance] = entry
        self._max_seen = max(self._max_seen, instance)
        return entry

    def is_chosen(self, instance: int) -> bool:
        entry = self._instances.get(instance)
        return entry is not None and entry.chosen

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def record_vote(
        self, instance: int, ballot: Ballot, value: Any, acceptor: str, quorum: int
    ) -> bool:
        """Record a Phase-2b vote; returns True if this vote chose the value."""
        entry = self.state(instance)
        if entry.chosen:
            return False
        voters = entry.votes.setdefault(ballot, set())
        voters.add(acceptor)
        if len(voters) >= quorum:
            self.mark_chosen(instance, value)
            return True
        return False

    def mark_chosen(self, instance: int, value: Any) -> None:
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
        entry.votes.clear()

    def advance_to(self, instance: int) -> None:
        """Move the delivery cursor forward (checkpoint installation).

        Instances below ``instance`` are considered delivered-and-compacted;
        their per-instance state is dropped.
        """
        if instance < self._next_to_deliver:
            raise ConsensusError(
                f"cannot move delivery cursor backwards "
                f"({self._next_to_deliver} -> {instance})"
            )
        for old in range(self._next_to_deliver, instance):
            self._instances.pop(old, None)
        self._next_to_deliver = instance
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

    def undelivered_gaps(self, up_to: int) -> list[int]:
        """Instances in ``[next_to_deliver, up_to]`` that are not chosen.

        After a leader change these are the holes the new leader must fill
        (re-proposing discovered values or no-ops).
        """
        return [
            instance
            for instance in range(self._next_to_deliver, up_to + 1)
            if not self.is_chosen(instance)
        ]

    # ------------------------------------------------------------------
    # Acceptor state snapshot for Phase 1b
    # ------------------------------------------------------------------
    def accepted_at_or_above(self, from_instance: int) -> dict[int, tuple[Ballot, Any]]:
        return {
            instance: (entry.accepted_ballot, entry.accepted_value)
            for instance, entry in self._instances.items()
            if instance >= from_instance and entry.has_accepted
        }
