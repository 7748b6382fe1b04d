"""The pending list: delivered-but-not-completed transactions.

Within a partition, delivered transactions complete in pending-list
order.  Locals at the head complete immediately; globals at the head
wait for the votes of every involved partition and — with reordering
enabled — for their reorder threshold (Algorithm 2 lines 23–33).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol

from repro.core.transaction import Outcome, TxnId, TxnProjection
from repro.errors import ProtocolError


@dataclass(slots=True)
class PendingTxn:
    """One pending-list entry."""

    proj: TxnProjection
    #: Reorder threshold: delivered-count value at which the transaction
    #: may complete (``DC + k`` at delivery; Algorithm 2 line 17).
    rt: int
    #: Delivery timestamp (drives the vote-timeout recovery).
    delivered_at: float
    #: partition id -> vote (Outcome.value).  The local partition's own
    #: certification verdict is recorded here as soon as it is decided.
    votes: dict[str, str] = field(default_factory=dict)
    #: Pending transactions this one's verdict is deferred on: the verdict
    #: depends on whether they commit (conflict real) or abort (ignore).
    #: Deferral keeps certification a function of the delivery sequence
    #: instead of vote-arrival timing (see SdurServer._deliver_txn).
    deps: set[TxnId] = field(default_factory=set)
    #: Verdict decided as abort (stale read against a committed dep or a
    #: failed certification); stays in the list until it reaches the head
    #: so that relative order — hence versions — is replica-independent.
    doomed: bool = False
    #: Doomed by the deterministic deferral-cycle rule (an abort-request
    #: delivered while this entry was deferred, and its TxnId was below
    #: every dependency's).  Set by the termination component; drives
    #: the ``vote_ledger_aborts`` counter at completion.
    cycle_victim: bool = False

    @property
    def undecided(self) -> bool:
        return bool(self.deps) and not self.doomed

    def min_dep(self) -> TxnId | None:
        """Smallest pending transaction id this entry defers on.

        The deferral-cycle rule compares it against the entry's own id:
        in any persistent cross-partition wait cycle the globally
        smallest deferred transaction eventually defers only on larger
        ids, so "doom iff own id < every dependency's" aborts exactly
        the cycle's minimum — at every replica, from log state alone.
        """
        return min(self.deps) if self.deps else None

    @property
    def tid(self) -> TxnId:
        return self.proj.tid

    def missing_votes(self) -> list[str]:
        return [p for p in self.proj.partitions if p not in self.votes]

    def has_all_votes(self) -> bool:
        return all(p in self.votes for p in self.proj.partitions)

    def decided_outcome(self) -> Outcome:
        """Commit iff every partition voted commit (requires all votes)."""
        if not self.has_all_votes():
            raise ProtocolError(f"{self.tid}: outcome requested with votes missing")
        if all(vote == Outcome.COMMIT.value for vote in self.votes.values()):
            return Outcome.COMMIT
        return Outcome.ABORT

    def has_abort_vote(self) -> bool:
        return any(vote == Outcome.ABORT.value for vote in self.votes.values())


class PendingListener(Protocol):
    """Observes pending-list mutations (the key-conflict index mirrors them)."""

    def entry_added(self, entry: PendingTxn) -> None: ...

    def entry_removed(self, entry: PendingTxn) -> None: ...


class PendingList:
    """Ordered list of pending transactions with by-id lookup."""

    def __init__(self) -> None:
        self._entries: list[PendingTxn] = []
        self._by_tid: dict[TxnId, PendingTxn] = {}
        #: Mutation observer (``repro.core.certindex`` attaches here).
        self.listener: PendingListener | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PendingTxn]:
        return iter(self._entries)

    def __reversed__(self) -> Iterator[PendingTxn]:
        return reversed(self._entries)

    def __contains__(self, tid: TxnId) -> bool:
        return tid in self._by_tid

    def get(self, tid: TxnId) -> PendingTxn | None:
        return self._by_tid.get(tid)

    def head(self) -> PendingTxn | None:
        return self._entries[0] if self._entries else None

    def append(self, entry: PendingTxn) -> None:
        self._check_new(entry)
        self._entries.append(entry)
        self._by_tid[entry.tid] = entry
        if self.listener is not None:
            self.listener.entry_added(entry)

    def insert(self, position: int, entry: PendingTxn) -> None:
        """Insert at ``position`` (the reorder leap; Algorithm 2 line 62–63)."""
        if not 0 <= position <= len(self._entries):
            raise ProtocolError(f"insert position {position} out of range")
        self._check_new(entry)
        self._entries.insert(position, entry)
        self._by_tid[entry.tid] = entry
        if self.listener is not None:
            self.listener.entry_added(entry)

    def _check_new(self, entry: PendingTxn) -> None:
        if entry.tid in self._by_tid:
            raise ProtocolError(f"{entry.tid} already pending")

    def pop_head(self) -> PendingTxn:
        if not self._entries:
            raise ProtocolError("pop_head() on empty pending list")
        entry = self._entries.pop(0)
        del self._by_tid[entry.tid]
        if self.listener is not None:
            self.listener.entry_removed(entry)
        return entry

    def remove(self, tid: TxnId) -> PendingTxn:
        entry = self._by_tid.pop(tid, None)
        if entry is None:
            raise ProtocolError(f"{tid} not pending")
        self._entries.remove(entry)
        if self.listener is not None:
            self.listener.entry_removed(entry)
        return entry

    def globals_pending(self) -> list[PendingTxn]:
        return [entry for entry in self._entries if entry.proj.is_global]

    def position_of(self, tid: TxnId) -> int:
        entry = self._by_tid.get(tid)
        if entry is None:
            raise ProtocolError(f"{tid} not pending")
        return self._entries.index(entry)
