"""Genuine atomic multicast across Paxos groups (Skeen-style).

The paper's related work contrasts SDUR with P-Store, which terminates
transactions with **genuine atomic multicast** — messages addressed to a
set of groups are delivered in a total order agreed *only* by the
addressed groups — and notes it "is more expensive than atomic
broadcast".  This module implements the classic fault-tolerant variant
(Skeen's timestamps over per-group consensus, à la Fritzke et al. /
Guerraoui & Schiper) so the claim can be measured (experiment A5):

1. The sender ships the message to every destination group; each group
   atomically broadcasts a *start* record, and on delivering it assigns
   a **proposed timestamp** from its logical clock (consensus makes the
   proposal identical at all group members).
2. Each group's coordinator sends its proposal to the other destination
   groups.
3. Once a group knows every destination's proposal, the **final
   timestamp** is their maximum; the coordinator atomically broadcasts a
   *final* record so all members learn it at the same point of the
   group's order.
4. A message is delivered when it is final and no other pending message
   could still receive a smaller final timestamp (pending proposals are
   lower bounds on their finals).  Ties break on message id.

Messages addressed to a single group take the obvious fast path: plain
atomic broadcast.

The result is a total order over every pair of messages with
intersecting destinations — exactly what lets P-Store certify a global
transaction *once*, without SDUR's vote exchange, at the price of the
extra timestamp round trips measured in A5.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.consensus.replica import PaxosReplica
from repro.errors import ConfigurationError, ProtocolError
from repro.net.message import Message, message
from repro.runtime.base import Runtime


@message
@dataclass(frozen=True)
class AmcastSubmit(Message):
    """Client/sender → a group coordinator: start multicasting."""

    mid: str
    groups: tuple[str, ...]
    payload: Any


@message
@dataclass(frozen=True)
class AmcastStart(Message):
    """Group-internal broadcast value: assign a proposed timestamp."""

    mid: str
    groups: tuple[str, ...]
    payload: Any


@message
@dataclass(frozen=True)
class TimestampProposal(Message):
    """Group ``group`` proposes ``ts`` for message ``mid``."""

    mid: str
    group: str
    ts: int


@message
@dataclass(frozen=True)
class AmcastFinal(Message):
    """Group-internal broadcast value: the final timestamp of ``mid``."""

    mid: str
    ts: int


@dataclass
class _PendingMulticast:
    """One in-flight multicast message at a group member."""

    mid: str
    groups: tuple[str, ...]
    payload: Any
    proposed: int
    #: group -> proposed timestamp (all destinations, own included).
    proposals: dict[str, int] = field(default_factory=dict)
    final: int | None = None
    final_requested: bool = False

    @property
    def lower_bound(self) -> int:
        """No final timestamp for this message can be below this."""
        return self.final if self.final is not None else self.proposed

    def order_key(self) -> tuple[int, str]:
        return (self.lower_bound, self.mid)


class GenuineMulticast:
    """One group member's endpoint of the atomic multicast protocol."""

    def __init__(
        self,
        runtime: Runtime,
        group_id: str,
        groups: dict[str, list[str]],
        replica: PaxosReplica,
        on_deliver: Callable[[str, Any], None],
    ) -> None:
        if group_id not in groups:
            raise ConfigurationError(f"unknown group {group_id!r}")
        if runtime.node_id not in groups[group_id]:
            raise ConfigurationError(
                f"{runtime.node_id} is not a member of group {group_id!r}"
            )
        self.runtime = runtime
        self.group_id = group_id
        self.groups = {g: list(m) for g, m in groups.items()}
        self.replica = replica
        self.on_deliver = on_deliver
        #: Skeen logical clock (advanced deterministically by group order).
        self.clock = 0
        self._pending: dict[str, _PendingMulticast] = {}
        #: Proposals that arrived before their AmcastStart was delivered.
        self._early_proposals: dict[str, dict[str, int]] = {}
        self._delivered: set[str] = set()
        self._seq = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def amcast(self, groups: tuple[str, ...], payload: Any) -> str:
        """Multicast ``payload`` to ``groups``; returns the message id.

        Callable from any member of any group; the message is routed to
        every destination group's coordinator.
        """
        unknown = [g for g in groups if g not in self.groups]
        if unknown:
            raise ConfigurationError(f"unknown destination groups {unknown}")
        if not groups:
            raise ProtocolError("amcast needs at least one destination group")
        self._seq += 1
        mid = f"{self.runtime.node_id}-{self._seq}"
        destinations = tuple(sorted(set(groups)))
        submit = AmcastSubmit(mid=mid, groups=destinations, payload=payload)
        for group in destinations:
            if group == self.group_id:
                self._start(submit)
            else:
                self.runtime.send(self._coordinator_of(group), submit)
        return mid

    def _coordinator_of(self, group: str) -> str:
        return self.groups[group][0]

    def _start(self, submit: AmcastSubmit) -> None:
        self.replica.propose(
            AmcastStart(mid=submit.mid, groups=submit.groups, payload=submit.payload)
        )

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, src: str, msg: Any) -> bool:
        """Network dispatch for multicast-layer messages."""
        if isinstance(msg, AmcastSubmit):
            if self.group_id in msg.groups:
                self._start(msg)
            return True
        if isinstance(msg, TimestampProposal):
            self._on_proposal(msg)
            return True
        return False

    def on_group_deliver(self, instance: int, value: Any) -> bool:
        """Hook for values delivered by this group's atomic broadcast."""
        if isinstance(value, AmcastStart):
            self._on_start_delivered(value)
            return True
        if isinstance(value, AmcastFinal):
            self._on_final_delivered(value)
            return True
        return False

    # ------------------------------------------------------------------
    # Protocol steps (all driven by the group's total order)
    # ------------------------------------------------------------------
    def _on_start_delivered(self, start: AmcastStart) -> None:
        if start.mid in self._pending or start.mid in self._delivered:
            return  # duplicate start (e.g. sender retried)
        self.clock += 1
        entry = _PendingMulticast(
            mid=start.mid,
            groups=start.groups,
            payload=start.payload,
            proposed=self.clock,
        )
        entry.proposals[self.group_id] = self.clock
        early = self._early_proposals.pop(start.mid, None)
        if early:
            entry.proposals.update(early)
        self._pending[start.mid] = entry
        if len(start.groups) == 1:
            # Fast path: single-group multicast is just atomic broadcast.
            entry.final = entry.proposed
            self._try_deliver()
            return
        if self.replica.is_leader:
            proposal = TimestampProposal(
                mid=start.mid, group=self.group_id, ts=entry.proposed
            )
            for group in entry.groups:
                if group == self.group_id:
                    continue
                for member in self.groups[group]:
                    self.runtime.send(member, proposal)
        self._maybe_finalize(entry)

    def _on_proposal(self, msg: TimestampProposal) -> None:
        entry = self._pending.get(msg.mid)
        if entry is None:
            if msg.mid not in self._delivered:
                self._early_proposals.setdefault(msg.mid, {})[msg.group] = msg.ts
            return
        entry.proposals.setdefault(msg.group, msg.ts)
        self._maybe_finalize(entry)

    def _maybe_finalize(self, entry: _PendingMulticast) -> None:
        """Coordinator: once all proposals are in, broadcast the final."""
        if entry.final is not None or entry.final_requested:
            return
        if not all(group in entry.proposals for group in entry.groups):
            return
        if not self.replica.is_leader:
            return
        entry.final_requested = True
        final_ts = max(entry.proposals.values())
        self.replica.propose(AmcastFinal(mid=entry.mid, ts=final_ts))

    def _on_final_delivered(self, final: AmcastFinal) -> None:
        entry = self._pending.get(final.mid)
        if entry is None or entry.final is not None:
            return  # duplicate final
        entry.final = final.ts
        self.clock = max(self.clock, final.ts)
        self._try_deliver()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _try_deliver(self) -> None:
        """Deliver final messages that nothing pending can still precede."""
        while self._pending:
            candidate = min(self._pending.values(), key=_PendingMulticast.order_key)
            if candidate.final is None:
                return  # the smallest lower bound is not final yet
            # Every other pending message has lower_bound >= candidate's
            # (it is the minimum), and finals only grow from proposals,
            # so nothing can still order before it.
            del self._pending[candidate.mid]
            self._delivered.add(candidate.mid)
            self.on_deliver(candidate.mid, candidate.payload)
