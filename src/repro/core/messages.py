"""SDUR wire protocol.

Three kinds of traffic:

* client ↔ server — reads (a read-only transaction's snapshot vector
  rides its first one), commit requests, outcomes;
* values inside per-partition atomic broadcast — transaction projections,
  no-op ticks (liveness for the reorder threshold) and abort requests
  (recovery);
* server ↔ server — certification votes for global transactions and the
  gossip that builds globally-consistent snapshot vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.transaction import TxnId, TxnProjection
from repro.net.message import Message, message

# ----------------------------------------------------------------------
# Client <-> server
# ----------------------------------------------------------------------


@message
@dataclass(frozen=True)
class ReadRequest(Message):
    """Read ``keys`` — one partition's keys — at one ``snapshot``
    (``None`` = establish the snapshot)."""

    tid: TxnId
    op_id: int
    keys: tuple[str, ...]
    snapshot: int | None
    #: Node to send the response to (the client, even for routed reads).
    reply_to: str
    #: A read-only transaction's first read: answer with the serving
    #: server's snapshot vector (§III-A) and read at its own entry.
    want_vector: bool = False


@message
@dataclass(frozen=True)
class ReadResponse(Message):
    """The values of a request's keys, all read at one ``snapshot``:
    the first in ``key`` / ``value`` / ``item_version``, the rest in
    ``more``."""

    tid: TxnId
    op_id: int
    key: str
    value: Any
    #: Snapshot counter the read executed at (Algorithm 2 line 8).
    snapshot: int
    #: Version tag of the returned value (for the serializability checker).
    item_version: int
    partition: str
    #: Set when the read failed (e.g. snapshot older than retained history).
    error: str | None = None
    #: Serving server's configuration epoch; a client seeing a higher
    #: epoch than its own pulls the new directory (``GetConfig``).
    epoch: int = 0
    #: ``(key, value, item_version)`` of every further key read.
    more: tuple[tuple[str, Any, int], ...] = ()
    #: The vector ``snapshot`` was taken from, when the request wanted one.
    vector: dict[str, int] | None = None

    def items(self) -> tuple[tuple[str, Any, int], ...]:
        """``(key, value, item_version)`` of every key read."""
        return ((self.key, self.value, self.item_version), *self.more)


@message
@dataclass(frozen=True)
class CommitRequest(Message):
    """Client's termination request (Figure 1 message ①)."""

    tid: TxnId
    projections: dict[str, TxnProjection]


@message
@dataclass(frozen=True)
class OutcomeNotice(Message):
    """Server → client: the transaction's fate (Figure 1 message ⑦)."""

    tid: TxnId
    outcome: str  # Outcome.value
    partition: str


@message
@dataclass(frozen=True)
class Busy(Message):
    """Server → client: work refused by admission control (§16).

    An explicit shed instead of silent unbounded queueing.  Nothing was
    broadcast for ``tid``, so the client may resubmit the *same* request
    under the same id after backing off — delivery-side tid dedup absorbs
    the rare duplicate where a slow first accept races the retry.
    """

    tid: TxnId
    #: The serving server's node id (suspicion bookkeeping excludes it:
    #: a busy server is alive, merely loaded).
    server: str
    #: Shed cause (an :class:`repro.overload.AdmissionDecision` value).
    reason: str
    #: Client backoff floor hint in seconds.
    retry_after: float = 0.0


# ----------------------------------------------------------------------
# Atomic-broadcast values (delivered in partition order)
# ----------------------------------------------------------------------


@message
@dataclass(frozen=True)
class NoopTick(Message):
    """Advances the delivered-transactions counter when a partition idles.

    The reorder threshold counts delivered transactions (Algorithm 2
    line 29); without traffic a pending global could wait forever, so the
    partition leader broadcasts ticks while globals are pending.
    """


@message
@dataclass(frozen=True)
class AbortRequest(Message):
    """Recovery: ask a partition to abort ``tid`` if not yet delivered.

    If the submitting server crashes mid-broadcast, partition ``p`` may
    deliver the transaction while ``p'`` never does.  A server in ``p``
    abcasts this to ``p'``; atomic broadcast guarantees all servers in
    ``p'`` see the same first-of-{transaction, abort-request} and act
    identically (paper §IV-F).
    """

    tid: TxnId
    #: Partition being asked to abort (the broadcast's target group).
    partition: str
    #: Partition whose servers suspected the loss.
    requester: str
    #: All partitions the transaction involves (for abort-vote fan-out).
    involved: tuple[str, ...] = ()
    #: Client to notify if the abort request wins the race.
    client: str = ""


# ----------------------------------------------------------------------
# Server <-> server
# ----------------------------------------------------------------------


@message
@dataclass(frozen=True)
class Vote(Message):
    """A partition's certification verdict for a global transaction."""

    tid: TxnId
    partition: str
    vote: str  # Outcome.value


@message
@dataclass(frozen=True)
class CommitGossip(Message):
    """Snapshot-vector gossip: one partition's new commit points.

    ``sc`` is the sender partition's snapshot counter; ``globals_committed``
    lists ``(tid, version, partitions)`` for committed *global*
    transactions, which the snapshot builder needs to avoid publishing a
    vector that splits a global transaction's atomicity.

    ``complete_from`` declares the completeness contract: the list contains
    **every** global commit of this partition with version in
    ``(complete_from, sc]``.  A periodic tick sets it to the ``sc`` of the
    sender's previous tick, so each tick carries only what is new.  A
    receiver may only treat versions up to ``sc`` as safely summarized if
    its own completeness watermark already covers ``complete_from`` —
    otherwise an un-listed old global could be silently included and
    split; it asks the sender for the missing range instead
    (:class:`GossipResync`).

    ``resync`` marks the reply to such a request.  A reply that still
    leaves a gap (the receiver is further behind than the sender's
    retained window) is not answered with another request; the next tick
    is, so repair traffic is bounded by the gossip cadence.
    """

    partition: str
    sc: int
    globals_committed: tuple[tuple[TxnId, int, tuple[str, ...]], ...] = field(
        default_factory=tuple
    )
    complete_from: int = 0
    resync: bool = False


@message
@dataclass(frozen=True)
class GossipResync(Message):
    """A receiver's request to re-send what a missed tick carried.

    Sent to the server whose :class:`CommitGossip` for ``partition``
    started beyond the receiver's completeness watermark
    ``have_through``; answered, to that receiver alone, with every
    retained global commit above it.
    """

    partition: str
    have_through: int
