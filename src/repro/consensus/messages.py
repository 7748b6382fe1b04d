"""Paxos wire messages.

Ballots are ``(round, proposer_index)`` pairs ordered lexicographically,
so concurrent proposers never collide.  All messages carry the group id
(the partition whose Paxos instance they belong to) so a node could host
replicas of several groups behind one dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.net.message import Message, message

#: A Paxos ballot: ``(round, proposer_index)``, compared lexicographically.
Ballot = tuple[int, int]

#: The ballot smaller than every real ballot.
BALLOT_ZERO: Ballot = (0, -1)


@message
@dataclass(frozen=True)
class PaxosNoop(Message):
    """Value proposed to fill log gaps after a leader change."""


@message
@dataclass(frozen=True)
class Batch(Message):
    """Several application values decided in one consensus instance.

    The leader proposes one when a loop turn brought it two or more
    proposals (turn group commit, :mod:`repro.consensus.replica`) and
    runs one Phase 2 for the lot.  Delivery unpacks the batch in order.
    """

    values: tuple[Any, ...] = ()


@message
@dataclass(frozen=True)
class ClientPropose(Message):
    """Ask a group member to get ``value`` atomically broadcast.

    Sent by the abcast facade (possibly from a node outside the group —
    this is message ② of Figure 1, the request to a remote Paxos
    coordinator).  A non-leader recipient forwards to its believed leader.
    """

    group: str
    value: Any


@message
@dataclass(frozen=True)
class Prepare(Message):
    """Phase 1a: a would-be leader claims ``ballot`` for all instances."""

    group: str
    ballot: Ballot
    #: Instances below this are known chosen by the proposer; acceptors
    #: only report accepted state at or above it.
    from_instance: int


@message
@dataclass(frozen=True)
class Promise(Message):
    """Phase 1b: acceptor promises ``ballot``, reporting accepted state.

    ``accepted`` maps instance -> (ballot, value) for every instance at or
    above the prepare's ``from_instance`` that this acceptor has accepted.
    """

    group: str
    ballot: Ballot
    accepted: dict[int, tuple[Ballot, Any]] = field(default_factory=dict)


@message
@dataclass(frozen=True)
class Accept(Message):
    """Phase 2a: the leader asks acceptors to accept ``value`` at ``instance``.

    ``floor`` is the group floor: no member's ``next_to_deliver`` is below
    it as far as the leader has heard, so every replica may forget the
    instances under it (PROTOCOL.md §4, "What a replica forgets").
    """

    group: str
    ballot: Ballot
    instance: int
    value: Any
    floor: int = 0


@message
@dataclass(frozen=True)
class Accepted(Message):
    """Phase 2b: an acceptor accepted (Figure 1's message ④).

    By default sent to the proposing coordinator only, with ``value``
    ``None``: a ``(ballot, instance)`` pair names exactly one value and
    the coordinator that proposed it still holds it, so the vote does
    not carry it back.  The coordinator then relays a :class:`Chosen`.
    With ``PaxosConfig.accepted_broadcast`` acceptors broadcast to the
    whole group instead, letting every replica learn after two message
    delays (an ablation over the paper's deployment); a learner can hear
    such a vote before the ``Accept`` it answers, so there the vote
    keeps the value.  ``next_to_deliver`` is the acceptor's delivery
    cursor when it answered: the leader builds the group floor of its
    next ``Accept`` from these reports.
    """

    group: str
    ballot: Ballot
    instance: int
    value: Any = None
    next_to_deliver: int = 0


@message
@dataclass(frozen=True)
class Chosen(Message):
    """Coordinator → followers: ``instance`` is decided.

    The relay after a quorum names the value instead of carrying it:
    ``ballot`` is the ballot it was chosen at and ``value`` is ``None``;
    a follower that accepted at that ballot holds the value already, and
    one that did not asks for it with a one-instance
    :class:`LearnRequest`.  The answer to a ``LearnRequest`` is the
    value-bearing form: ``value`` set, ``ballot`` ``None``.
    """

    group: str
    instance: int
    value: Any = None
    ballot: Ballot | None = None


@message
@dataclass(frozen=True)
class CommitIndex(Message):
    """Leader → followers: "I have delivered up to (excluding) this".

    Solves the tail blind spot: if both the Accept and the Chosen relay
    for the *latest* instance are lost, a follower has no evidence that
    the instance exists and its gap-driven catch-up never arms.  A
    periodic commit-index advert gives followers a liveness signal to
    request the missing suffix.
    """

    group: str
    next_to_deliver: int


@message
@dataclass(frozen=True)
class LearnRequest(Message):
    """Follower catch-up: ask a peer to re-send Chosen for a gap range.

    Needed when ``Chosen`` relays are lost: delivery is in-order, so one
    missing decision blocks everything behind it.
    """

    group: str
    from_instance: int
    to_instance: int


@message
@dataclass(frozen=True)
class Nack(Message):
    """An acceptor rejected a prepare/accept with a stale ballot."""

    group: str
    rejected_ballot: Ballot
    promised_ballot: Ballot


@message
@dataclass(frozen=True)
class Heartbeat(Message):
    """Leader-election liveness beacon."""

    group: str
    #: Sender's current believed leader (gossip accelerates convergence).
    leader_hint: str | None = None


#: Message types the Paxos replica handles (used by dispatchers).
PAXOS_MESSAGE_TYPES = (
    ClientPropose,
    Prepare,
    Promise,
    Accept,
    Accepted,
    Chosen,
    CommitIndex,
    LearnRequest,
    Nack,
    Heartbeat,
)
