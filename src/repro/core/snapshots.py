"""Asynchronously built globally-consistent snapshot vectors.

Read-only transactions in SDUR "execute against a globally-consistent
snapshot and commit without certification"; such snapshots "are built
asynchronously by servers" and "may observe an outdated database"
(paper §III-A).  This module is that builder.

A snapshot *vector* assigns each partition ``p`` a version ``V[p]``; a
read-only transaction reads every key at its partition's vector entry.
The vector is **consistent** when it never splits a committed global
transaction: for every global ``t`` and partitions ``p, q`` it involves,
``t`` visible at ``p`` (``commit_version(t, p) <= V[p]``) implies ``t``
visible at ``q``.

Construction: servers gossip their partition's snapshot counter and the
commit versions of the global transactions committed since their previous
tick (:class:`~repro.core.messages.CommitGossip`, a *delta*; a receiver
that missed one asks the sender to resync, see docs/PROTOCOL.md §6).
Each server independently starts from the latest counters it knows and
*lowers* entries until no global transaction is split — lowering is
always safe (it can only make the snapshot more outdated, never
inconsistent) and converges because versions are bounded below.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from operator import itemgetter

from repro.core.messages import CommitGossip
from repro.core.transaction import TxnId
from repro.errors import ConfigurationError

_VERSION = itemgetter(0)

#: Recent global commits retained and gossiped for vector construction.
GOSSIP_HISTORY = 256


class GlobalSnapshotBuilder:
    """One server's view of the global snapshot frontier."""

    def __init__(
        self, partitions: list[str], own_partition: str, history: int = GOSSIP_HISTORY
    ) -> None:
        if own_partition not in partitions:
            raise ConfigurationError(f"{own_partition!r} not in {partitions!r}")
        self.partitions = list(partitions)
        self.own_partition = own_partition
        self.history = history
        #: Latest *safely usable* snapshot counter per partition: never
        #: beyond the completeness watermark (see CommitGossip.complete_from).
        self._known_sc: dict[str, int] = {p: 0 for p in partitions}
        #: Completeness watermark: all globals of p with version <= this
        #: are known to this builder.
        self._complete_through: dict[str, int] = {p: 0 for p in partitions}
        #: For the own-partition gossip payload: globals below this version
        #: have been evicted from the retained window.
        self._evicted_below: dict[str, int] = {p: 0 for p in partitions}
        #: Delta cursor: own-partition versions up to here were covered by
        #: earlier ticks (see :meth:`next_delta`).
        self._sent_through = 0
        #: Recently committed globals per partition: (version, tid), ascending.
        self._commits: dict[str, list[tuple[int, TxnId]]] = {p: [] for p in partitions}
        #: tid -> {partition: commit version} ∪ {"__involved__": tuple}.
        self._txn_versions: dict[TxnId, dict[str, int]] = {}
        self._txn_involved: dict[TxnId, tuple[str, ...]] = {}
        self._txn_order: deque[TxnId] = deque()
        #: Gossip from partitions this builder has not learned yet (a
        #: split's directory change still in flight): bounded FIFO,
        #: replayed by :meth:`add_partition`.  Dropping these instead
        #: (the old behavior) parked the new partition's frontier at 0
        #: until the *next* gossip round after the change arrived.
        self._pending_gossip: deque[CommitGossip] = deque()

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def add_partition(self, partition: str) -> None:
        """Start tracking a partition created by a split (idempotent).

        Replays any gossip from ``partition`` that arrived before the
        directory change did, so the new partition's frontier catches up
        immediately instead of waiting out another gossip interval.
        """
        if partition in self._known_sc:
            return
        self.partitions.append(partition)
        self._known_sc[partition] = 0
        self._complete_through[partition] = 0
        self._evicted_below[partition] = 0
        self._commits[partition] = []
        if self._pending_gossip:
            replayable = [m for m in self._pending_gossip if m.partition == partition]
            self._pending_gossip = deque(
                m for m in self._pending_gossip if m.partition != partition
            )
            for msg in replayable:
                self.on_gossip(msg)

    def absorb_migration(self, source_sc: int) -> None:
        """Initialize the own-partition frontier after installing a migration.

        The store resumes at ``source_sc`` (a split child at the source's
        counter, a merge target at the synthetic merge version).  This
        partition's own log committed nothing in the versions skipped, so
        the counter and the watermark jump there and ``complete_from``
        stays truthful without moving: the next delta spans the jump with
        no globals in it, and a receiver that has never heard from a split
        child connects at 0.  ``complete_from`` must not be raised to
        ``source_sc``: no remote watermark could ever cover it, and this
        partition's entry would freeze in every remote vector.
        """
        own = self.own_partition
        self._known_sc[own] = max(self._known_sc[own], source_sc)
        self._complete_through[own] = max(self._complete_through[own], source_sc)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def on_local_commit(
        self, tid: TxnId, version: int, involved: tuple[str, ...], is_global: bool
    ) -> None:
        """Record a commit at this server's own partition."""
        self._known_sc[self.own_partition] = max(
            self._known_sc[self.own_partition], version
        )
        self._complete_through[self.own_partition] = max(
            self._complete_through[self.own_partition], version
        )
        if is_global:
            self._record(self.own_partition, version, tid, involved)

    def on_gossip(self, msg: CommitGossip) -> int | None:
        """Ingest one payload (idempotent, any order).

        Returns ``None`` when the payload connected to what is already
        known, else this builder's completeness watermark for the sender's
        partition: the payload starts beyond it, so something in between
        was missed and the caller should ask the sender to resync from
        there.  Until that is repaired the partition's counter stays where
        it is — stale, never split.
        """
        if msg.partition not in self._known_sc:
            # Unknown sender: a split we have not been told about yet.
            # Buffer (bounded) for replay at add_partition() rather than
            # silently dropping the payload.
            self._pending_gossip.append(msg)
            while len(self._pending_gossip) > self.history:
                self._pending_gossip.popleft()
            return None
        for tid, version, involved in msg.globals_committed:
            self._record(msg.partition, version, tid, involved)
        # Advance the completeness watermark only if this payload's range
        # connects to what we already have, and the usable counter with
        # it: sc beyond the watermark could hide un-listed globals.
        watermark = self._complete_through[msg.partition]
        if msg.complete_from > watermark:
            return watermark
        if msg.sc > watermark:
            self._complete_through[msg.partition] = msg.sc
            self._known_sc[msg.partition] = max(self._known_sc[msg.partition], msg.sc)
        return None

    def _record(self, partition: str, version: int, tid: TxnId, involved: tuple[str, ...]) -> None:
        versions = self._txn_versions.get(tid)
        if versions is not None and partition in versions:
            return  # a resync reply overlapping what we hold: nothing to do
        if versions is None:
            versions = {}
            self._txn_versions[tid] = versions
            self._txn_involved[tid] = involved
            self._txn_order.append(tid)
            self._evict()
        elif not set(involved) <= set(self._txn_involved.get(tid, ())):
            # Defensive merge: differing involved-sets from gossip sources.
            merged = set(self._txn_involved.get(tid, ())) | set(involved)
            self._txn_involved[tid] = tuple(sorted(merged))
        versions[partition] = version
        commits = self._commits[partition]
        if not commits or commits[-1][0] < version:
            commits.append((version, tid))
        else:
            # Out-of-order gossip: insert keeping ascending versions.
            insort(commits, (version, tid))
        excess = len(commits) - self.history
        if excess > 0:
            self._evicted_below[partition] = max(
                self._evicted_below[partition], commits[excess - 1][0]
            )
            del commits[:excess]

    def _evict(self) -> None:
        while len(self._txn_order) > 4 * self.history:
            tid = self._txn_order.popleft()
            self._txn_versions.pop(tid, None)
            self._txn_involved.pop(tid, None)

    # ------------------------------------------------------------------
    # The gossip payloads this server advertises
    # ------------------------------------------------------------------
    def next_delta(self) -> CommitGossip:
        """This tick's payload: own globals committed since the last tick.

        Advances the cursor whether or not the payload reaches anyone; a
        receiver that misses it sees the next one start beyond its
        watermark and asks for :meth:`payload_since`.
        """
        payload = self.payload_since(self._sent_through)
        self._sent_through = payload.sc
        return payload

    def payload_since(self, since: int, resync: bool = False) -> CommitGossip:
        """Every retained own global with version in ``(since, sc]``.

        ``complete_from`` is ``since`` unless the retained window no longer
        reaches back that far; ``since=0`` is the whole window.
        """
        own = self.own_partition
        commits = self._commits[own]
        newer = commits[bisect_right(commits, since, key=_VERSION):]
        return CommitGossip(
            partition=own,
            sc=self._known_sc[own],
            globals_committed=tuple(
                (tid, version, self._txn_involved.get(tid, ())) for version, tid in newer
            ),
            complete_from=max(since, self._evicted_below[own]),
            resync=resync,
        )

    # ------------------------------------------------------------------
    # Vector construction
    # ------------------------------------------------------------------
    def vector(self) -> dict[str, int]:
        """A consistent snapshot vector from everything known so far.

        Starts at the latest known counters and lowers entries until no
        retained global transaction is split.  Entries can end up at 0
        (the initial database) if gossip has not propagated yet — an
        outdated but consistent view, matching the paper's caveat.
        """
        frontier = dict(self._known_sc)
        changed = True
        while changed:
            changed = False
            for partition in self.partitions:
                for version, tid in self._commits[partition]:
                    if version > frontier[partition]:
                        break
                    if not self._fully_visible(tid, frontier):
                        frontier[partition] = version - 1
                        changed = True
                        break
        return frontier

    def _fully_visible(self, tid: TxnId, frontier: dict[str, int]) -> bool:
        involved = self._txn_involved.get(tid, ())
        versions = self._txn_versions.get(tid, {})
        for partition in involved:
            version = versions.get(partition)
            if version is None or version > frontier.get(partition, 0):
                return False
        return True
