"""Key-indexed certification: O(|rs|+|ws|) conflict checks.

Algorithm 2 certifies every delivered transaction against
``DB[t.st[p] … SC]`` plus the whole pending list.  Done literally that
is an O(window × keys) scan per delivery (the reference oracle,
``tests/oracles/scan_certifier.py``), which throttles throughput at the
large ``history_window`` values the paper's "last K bloom filters" (§V)
call for, even though the *verdict* only depends on per-key version
information.

:class:`KeyConflictIndex` maintains that information incrementally,
mirroring the certification window and the pending list through their
mutation listeners:

* ``key → last-writer version`` — the forward test
  ``t.rs ∩ writes-after-snapshot`` becomes one dict lookup per read key
  for exact readsets (the BerkeleyDB-style write-timestamp check used by
  Sprint and Calvin's lock table);
* ``key → last-reader version`` (exact readsets only) — the symmetric
  test for globals becomes one lookup per written key;
* **write-key segments**, merged geometrically — a *bloom* readset
  cannot be point-probed, so its forward test probes the union of write
  keys per segment: O(log W) ``contains_any`` calls instead of one per
  committed record, with identical verdicts because a bloom probe is a
  deterministic per-key predicate (``hit(k₁) ∨ … ∨ hit(kₙ)`` is the same
  whether the keys arrive per record or merged);
* committed records whose *own* readset travels as a bloom cannot be
  key-indexed either; they are kept in a version-ordered side list and
  probed individually — the only remaining per-record fallback, counted
  in ``index_fallbacks``;
* the same maps keyed by pending ``TxnId`` serve ``outcome_conflicts``,
  ``certify_against_pending``, and ``find_reorder_position``.

Verdict invariance (why the index and the scan are bit-identical, which
matters because certification decides commit order on every replica):
every scan test is of the form "∃ record r with ``version > snapshot``
whose write (read) set intersects the transaction's read (write) set".
Key k witnesses such a record iff the *latest* version writing (reading)
k exceeds the snapshot, which is exactly what the maps store; bloom
probes are per-key deterministic, so batching them per segment cannot
change the disjunction.  Eviction keeps the equivalence: the index
retires entries with the window records they came from, and every query
has ``snapshot ≥ floor``, so lazily purged segment entries
(``version ≤ floor``) can never satisfy ``version > snapshot``.

The differential property tests drive the index and the scan oracle
against identical histories.  See docs/PROTOCOL.md §15.
"""

from __future__ import annotations

from collections import deque

from repro.core.certifier import CertificationWindow, CommittedRecord
from repro.core.pending import PendingList, PendingTxn
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection


class CertifierCounters:
    """Default sink for the certification counters.

    ``SdurServer`` passes its :class:`~repro.core.server.ServerStats`
    (which carries the same attributes); standalone users (benchmarks,
    tests) get this stub.
    """

    def __init__(self) -> None:
        self.ctest_calls = 0
        self.index_hits = 0
        self.index_fallbacks = 0
        # Sharded-executor counters (docs/PROTOCOL.md §19); stay zero
        # under the serial certifier.
        self.shard_certify_calls = 0
        self.shard_merge_ns = 0
        self.shard_imbalance_max = 0


class _WriteSegments:
    """Version-tagged write-key segments, merged geometrically.

    Each segment covers a contiguous run of committed records and maps
    ``key → max version written in the run``.  New records enter as
    singleton segments; adjacent segments merge whenever the older one
    is no larger (the binary-counter discipline), so at most
    O(log capacity) segments exist.  A merge that spans at least
    ``capacity`` records also purges entries at or below the current
    window floor — evicted keys can never affect a query (queries use
    ``snapshot ≥ floor``) — which bounds memory by the live window's
    keys plus the segments still forming.
    """

    __slots__ = ("capacity", "_segments")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        #: Oldest → newest: [record span, min version, max version, keys].
        self._segments: list[list] = []

    def add(self, version: int, ws_keys: frozenset[str], floor: int) -> None:
        if not ws_keys:
            return
        segments = self._segments
        segments.append([1, version, version, {key: version for key in ws_keys}])
        while len(segments) >= 2 and segments[-2][0] <= segments[-1][0]:
            span_new, lo_new, hi_new, keys_new = segments.pop()
            span_old, lo_old, _hi_old, keys_old = segments.pop()
            keys_old.update(keys_new)
            span = span_old + span_new
            lo = min(lo_old, lo_new)
            if span >= self.capacity:
                keys_old = {k: v for k, v in keys_old.items() if v > floor}
                span = self.capacity
                lo = min(keys_old.values(), default=hi_new)
            segments.append([span, lo, hi_new, keys_old])

    def bloom_conflict(self, digest: ReadsetDigest, snapshot: int) -> bool:
        """Does any key written after ``snapshot`` hit the bloom digest?

        Newest segments first; one ``contains_any`` per segment, with the
        single straddling segment filtered to its post-snapshot keys.
        """
        for _span, lo, hi, keys in reversed(self._segments):
            if hi <= snapshot:
                break
            batch = keys if lo > snapshot else [k for k, v in keys.items() if v > snapshot]
            if batch and digest.contains_any(batch):
                return True
        return False

    def entry_count(self) -> int:
        return sum(len(segment[3]) for segment in self._segments)

    def segment_count(self) -> int:
        return len(self._segments)


class KeyConflictIndex:
    """Per-key version tables mirroring a window and a pending list."""

    def __init__(self, capacity: int, floor: int = 0) -> None:
        self._floor = floor
        # -- committed side (the certification window) ------------------
        #: key -> version of the latest committed write.
        self._last_writer: dict[str, int] = {}
        #: key -> version of the latest committed *exact-readset* read.
        self._last_reader: dict[str, int] = {}
        #: (version, digest) of committed records with bloom readsets,
        #: version-ascending (the only per-record fallback left).
        self._bloom_records: deque[tuple[int, ReadsetDigest]] = deque()
        self._segments = _WriteSegments(capacity)
        # -- pending side ----------------------------------------------
        #: key -> pending transactions writing it.
        self._pending_writers: dict[str, set[TxnId]] = {}
        #: key -> pending transactions with exact readsets reading it.
        self._pending_readers: dict[str, set[TxnId]] = {}
        #: tid -> bloom readset digest of that pending transaction.
        self._pending_blooms: dict[TxnId, ReadsetDigest] = {}

    # ------------------------------------------------------------------
    # WindowListener
    # ------------------------------------------------------------------
    def record_added(self, record: CommittedRecord) -> None:
        readset = record.readset
        self.add_committed_slice(
            record.version,
            record.ws_keys,
            readset.keys if readset.is_exact else None,
            None if readset.is_exact else readset,
        )

    def record_evicted(self, record: CommittedRecord) -> None:
        readset = record.readset
        self.evict_committed_slice(
            record.version,
            record.ws_keys,
            readset.keys if readset.is_exact else (),
            drop_blooms=not readset.is_exact,
        )

    # ------------------------------------------------------------------
    # Slice-level mutation primitives (shared with the sharded executor,
    # which routes each record's keys to per-shard index slices —
    # docs/PROTOCOL.md §19)
    # ------------------------------------------------------------------
    def add_committed_slice(
        self,
        version: int,
        ws_keys,
        read_keys,
        bloom_digest: ReadsetDigest | None,
    ) -> None:
        """Index a committed record (or a key-range slice of one).

        ``read_keys`` is ``None`` when the record's readset travelled as
        a bloom; ``bloom_digest`` carries it instead (routed to exactly
        one shard slice by the sharded executor, since a bloom cannot be
        split by key).
        """
        for key in ws_keys:
            self._last_writer[key] = version
        if read_keys is not None:
            for key in read_keys:
                self._last_reader[key] = version
        if bloom_digest is not None:
            self._bloom_records.append((version, bloom_digest))
        self._segments.add(version, ws_keys, self._floor)

    def evict_committed_slice(
        self, version: int, ws_keys, read_keys, *, drop_blooms: bool
    ) -> None:
        """Retire a committed record (or slice) evicted from the window."""
        self._floor = max(self._floor, version)
        for key in ws_keys:
            if self._last_writer.get(key) == version:
                del self._last_writer[key]
        for key in read_keys:
            if self._last_reader.get(key) == version:
                del self._last_reader[key]
        if drop_blooms:
            while self._bloom_records and self._bloom_records[0][0] <= version:
                self._bloom_records.popleft()
        # Segments purge lazily at merge time; stale entries are inert
        # because every query has snapshot >= floor >= their version.

    # ------------------------------------------------------------------
    # PendingListener
    # ------------------------------------------------------------------
    def entry_added(self, entry: PendingTxn) -> None:
        proj = entry.proj
        tid = proj.tid
        for key in proj.ws_keys:
            self._pending_writers.setdefault(key, set()).add(tid)
        readset = proj.readset
        if readset.is_exact:
            for key in readset.keys:
                self._pending_readers.setdefault(key, set()).add(tid)
        else:
            self._pending_blooms[tid] = readset

    def entry_removed(self, entry: PendingTxn) -> None:
        proj = entry.proj
        tid = proj.tid
        for key in proj.ws_keys:
            writers = self._pending_writers.get(key)
            if writers is not None:
                writers.discard(tid)
                if not writers:
                    del self._pending_writers[key]
        readset = proj.readset
        if readset.is_exact:
            for key in readset.keys:
                readers = self._pending_readers.get(key)
                if readers is not None:
                    readers.discard(tid)
                    if not readers:
                        del self._pending_readers[key]
        else:
            self._pending_blooms.pop(tid, None)

    # ------------------------------------------------------------------
    # Committed-side queries
    # ------------------------------------------------------------------
    def committed_forward_conflict(self, txn: TxnProjection) -> bool:
        """``txn.rs ∩ ws(r)`` for any committed ``r`` after the snapshot."""
        readset = txn.readset
        if readset.is_exact:
            return self.forward_conflict_keys(readset.keys, txn.snapshot)
        return self._segments.bloom_conflict(readset, txn.snapshot)

    def committed_backward_conflict(
        self, txn: TxnProjection, counters: CertifierCounters
    ) -> bool:
        """``txn.ws ∩ rs(r)`` for any committed ``r`` after the snapshot.

        Exact-readset records answer from the last-reader map; records
        whose readsets travelled as blooms are probed one by one (the
        fallback the counters track).
        """
        return self.backward_conflict_keys(txn.ws_keys, txn.snapshot, counters)

    # ------------------------------------------------------------------
    # Key-slice queries (the sharded executor probes each shard with the
    # slice of the transaction's keys the shard owns)
    # ------------------------------------------------------------------
    def forward_conflict_keys(self, read_keys, snapshot: int) -> bool:
        """Was any of ``read_keys`` written after ``snapshot``?"""
        last_writer = self._last_writer
        for key in read_keys:
            version = last_writer.get(key)
            if version is not None and version > snapshot:
                return True
        return False

    def bloom_forward_conflict(self, digest: ReadsetDigest, snapshot: int) -> bool:
        """Does any write after ``snapshot`` hit the bloom readset?"""
        return self._segments.bloom_conflict(digest, snapshot)

    def has_bloom_records(self) -> bool:
        return bool(self._bloom_records)

    def backward_conflict_keys(
        self,
        ws_keys,
        snapshot: int,
        counters: CertifierCounters,
        probe_keys=None,
    ) -> bool:
        """Was any of ``ws_keys`` read (exactly) after ``snapshot``, or do
        the bloom-readset records kept here hit ``probe_keys``?

        ``probe_keys`` defaults to ``ws_keys``; the sharded executor
        passes the transaction's *full* write set because a bloom record
        lives in exactly one shard slice yet may cover keys any shard
        owns (a bloom cannot be split by key).
        """
        last_reader = self._last_reader
        for key in ws_keys:
            version = last_reader.get(key)
            if version is not None and version > snapshot:
                return True
        if self._bloom_records and self._bloom_records[-1][0] > snapshot:
            targets = ws_keys if probe_keys is None else probe_keys
            # Newest-first so the walk touches only post-snapshot records;
            # the verdict is a disjunction, so probe order cannot change it.
            probed = 0
            hit = False
            for version, digest in reversed(self._bloom_records):
                if version <= snapshot:
                    break
                probed += 1
                if digest.contains_any(targets):
                    hit = True
                    break
            counters.ctest_calls += probed
            counters.index_fallbacks += 1
            return hit
        return False

    # ------------------------------------------------------------------
    # Pending-side queries
    # ------------------------------------------------------------------
    def pending_forward_conflicts(self, txn: TxnProjection) -> set[TxnId]:
        """Pending entries whose writes intersect ``txn``'s reads."""
        readset = txn.readset
        conflicting: set[TxnId] = set()
        if readset.is_exact:
            pending_writers = self._pending_writers
            for key in readset.keys:
                writers = pending_writers.get(key)
                if writers:
                    conflicting.update(writers)
        else:
            for key, writers in self._pending_writers.items():
                if writers and readset.contains_any((key,)):
                    conflicting.update(writers)
        return conflicting

    def pending_backward_conflicts(
        self, txn: TxnProjection, counters: CertifierCounters | None = None
    ) -> set[TxnId]:
        """Pending entries whose reads intersect ``txn``'s writes."""
        ws_keys = txn.ws_keys
        conflicting: set[TxnId] = set()
        if not ws_keys:
            return conflicting
        pending_readers = self._pending_readers
        for key in ws_keys:
            readers = pending_readers.get(key)
            if readers:
                conflicting.update(readers)
        if self._pending_blooms:
            probed = 0
            for tid, digest in self._pending_blooms.items():
                if tid in conflicting:
                    continue
                probed += 1
                if digest.contains_any(ws_keys):
                    conflicting.add(tid)
            if counters is not None and probed:
                counters.ctest_calls += probed
                counters.index_fallbacks += 1
        return conflicting

    # ------------------------------------------------------------------
    # Rebuild (checkpoint restore, migration install)
    # ------------------------------------------------------------------
    def rebuild(self, window: CertificationWindow, pending: PendingList) -> None:
        """Re-derive the index from a restored window and pending list."""
        for record in window.records_after(-1):
            self.record_added(record)
        for entry in pending:
            self.entry_added(entry)


class PendingQueryMixin:
    """Pending-list queries shared by the indexed and sharded certifiers.

    Subclasses provide ``pending``, ``counters``, and ``pending_index``
    — one *unsharded* :class:`KeyConflictIndex` mirroring the pending
    list (pending entries are few and churn fast, so sharding them buys
    nothing; see docs/PROTOCOL.md §19).
    """

    pending: PendingList
    counters: CertifierCounters
    pending_index: KeyConflictIndex

    def _count_query(self, fallbacks_before: int) -> None:
        """A query is a *hit* unless it needed a per-record bloom fallback."""
        counters = self.counters
        if counters.index_fallbacks == fallbacks_before:
            counters.index_hits += 1

    # -- Algorithm 2 lines 51–52 + the deferral dependency set ----------
    def outcome_conflicts(self, txn: TxnProjection) -> list[TxnId]:
        counters = self.counters
        fallbacks_before = counters.index_fallbacks
        conflicting = self.pending_index.pending_forward_conflicts(txn)
        if txn.is_global and txn.writeset:
            conflicting |= self.pending_index.pending_backward_conflicts(txn, counters)
        self._count_query(fallbacks_before)
        if not conflicting:
            return []
        # Report in pending order, exactly as the scan does.
        return [entry.tid for entry in self.pending if entry.tid in conflicting]

    def certify_against_pending(self, txn: TxnProjection) -> bool:
        return not self.outcome_conflicts(txn)

    # -- Algorithm 2 lines 55–60: the reorder-position search -----------
    def find_reorder_position(self, txn: TxnProjection, delivered_count: int) -> int | None:
        """Index-assisted leftmost slot; equivalent to the scan.

        The scan's answer is fully determined by two conflict sets plus
        cheap per-entry flags: let A = entries whose writes hit ``txn``'s
        reads (condition (a)/(d) forward) and D = entries whose reads hit
        ``txn``'s writes (condition (d) backward).  Any entry in A makes
        every slot invalid — slots left of it fail the suffix condition,
        slots right of it leave stale reads behind — so A ≠ ∅ means
        abort.  Otherwise the leftmost slot sits just after the rightmost
        entry that cannot be leaped (non-global, threshold reached, or in
        D), found by walking from the tail until the first such entry —
        no digest probes, and the walk stops at the leap boundary.
        """
        counters = self.counters
        fallbacks_before = counters.index_fallbacks
        conflicts_a = self.pending_index.pending_forward_conflicts(txn)
        if conflicts_a:
            self._count_query(fallbacks_before)
            return None
        conflicts_d = self.pending_index.pending_backward_conflicts(txn, counters)
        self._count_query(fallbacks_before)
        position = len(self.pending)
        for entry in reversed(self.pending):
            if (
                not entry.proj.is_global
                or entry.rt < delivered_count
                or entry.tid in conflicts_d
            ):
                break
            position -= 1
        return position


class IndexedCertifier(PendingQueryMixin):
    """Certification strategy backed by :class:`KeyConflictIndex`."""

    def __init__(
        self,
        window: CertificationWindow,
        pending: PendingList,
        counters: CertifierCounters | None = None,
    ) -> None:
        self.window = window
        self.pending = pending
        self.counters = counters if counters is not None else CertifierCounters()
        self.index = KeyConflictIndex(window.capacity, floor=window.floor)
        self.index.rebuild(window, pending)
        window.listener = self.index
        pending.listener = self.index
        # One index mirrors both sides here; the mixin queries it for
        # the pending half.
        self.pending_index = self.index

    # -- Algorithm 2 line 49: the committed-window test -----------------
    def certify(self, txn: TxnProjection) -> bool | None:
        if txn.snapshot < self.window.floor:
            return None
        counters = self.counters
        fallbacks_before = counters.index_fallbacks
        verdict = True
        if self.index.committed_forward_conflict(txn):
            verdict = False
        elif txn.is_global and txn.writeset:
            if self.index.committed_backward_conflict(txn, counters):
                verdict = False
        self._count_query(fallbacks_before)
        return verdict

    # -- A delivered run of fast-path locals ------------------------------
    def begin_run(self, projs: list[TxnProjection]) -> None:
        """Nothing to prepare: every in-run commit reaches the index
        through the window listener before the next member certifies."""

    def end_run(self) -> None:
        """No per-run load shape to report (the sharded certifier
        returns its phase-1 plan here)."""

    # -- CPU model: serial certification charges the flat cost ------------
    def single_cost(self, proj: TxnProjection, certify_cost: float) -> float:
        return certify_cost

    def batch_cost(self, projs: list[TxnProjection], certify_cost: float) -> float:
        return sum(self.single_cost(proj, certify_cost) for proj in projs)
