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
* the same maps keyed by pending ``TxnId`` serve ``outcome_conflicts``
  and ``find_reorder_position``.

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

from repro.core.certifier import CertificationWindow, WindowEntry
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

    def add(self, version: int, ws_keys: tuple[str, ...], floor: int) -> None:
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
    def record_added(self, entry: WindowEntry) -> None:
        version, _client, _seq, readset, ws_keys, _is_global = entry
        last_writer = self._last_writer
        for key in ws_keys:
            last_writer[key] = version
        if isinstance(readset, tuple):
            last_reader = self._last_reader
            for key in readset:
                last_reader[key] = version
        else:
            # A bloom cannot be indexed by key: kept whole, probed per record.
            self._bloom_records.append((version, ReadsetDigest(bloom=readset)))
        self._segments.add(version, ws_keys, self._floor)

    def record_evicted(self, entry: WindowEntry) -> None:
        version, _client, _seq, readset, ws_keys, _is_global = entry
        self._floor = max(self._floor, version)
        for key in ws_keys:
            if self._last_writer.get(key) == version:
                del self._last_writer[key]
        if isinstance(readset, tuple):
            for key in readset:
                if self._last_reader.get(key) == version:
                    del self._last_reader[key]
        else:
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
        snapshot = txn.snapshot
        if not readset.is_exact:
            return self._segments.bloom_conflict(readset, snapshot)
        last_writer = self._last_writer
        for key in readset.keys:
            version = last_writer.get(key)
            if version is not None and version > snapshot:
                return True
        return False

    def committed_backward_conflict(
        self, txn: TxnProjection, counters: CertifierCounters
    ) -> bool:
        """``txn.ws ∩ rs(r)`` for any committed ``r`` after the snapshot.

        Exact-readset records answer from the last-reader map; records
        whose readsets travelled as blooms are probed one by one (the
        fallback the counters track).
        """
        ws_keys = txn.ws_keys
        snapshot = txn.snapshot
        last_reader = self._last_reader
        for key in ws_keys:
            version = last_reader.get(key)
            if version is not None and version > snapshot:
                return True
        if self._bloom_records and self._bloom_records[-1][0] > snapshot:
            # Newest-first so the walk touches only post-snapshot records;
            # the verdict is a disjunction, so probe order cannot change it.
            probed = 0
            hit = False
            for version, digest in reversed(self._bloom_records):
                if version <= snapshot:
                    break
                probed += 1
                if digest.contains_any(ws_keys):
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
        for entry in window:
            self.record_added(entry)
        for entry in pending:
            self.entry_added(entry)


class IndexedCertifier:
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

    def _count_query(self, fallbacks_before: int) -> None:
        """A query is a *hit* unless it needed a per-record bloom fallback."""
        counters = self.counters
        if counters.index_fallbacks == fallbacks_before:
            counters.index_hits += 1

    # -- Algorithm 2 lines 51–52 + the deferral dependency set ----------
    def outcome_conflicts(self, txn: TxnProjection) -> list[TxnId]:
        counters = self.counters
        fallbacks_before = counters.index_fallbacks
        conflicting = self.index.pending_forward_conflicts(txn)
        if txn.is_global and txn.writeset:
            conflicting |= self.index.pending_backward_conflicts(txn, counters)
        self._count_query(fallbacks_before)
        if not conflicting:
            return []
        # Report in pending order, exactly as the scan does.
        return [entry.tid for entry in self.pending if entry.tid in conflicting]

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

        Line 58 of the paper reads ``PL[k].rt < DC``, but its own comment
        ("no leaping globals after threshold") and §IV-G.3's determinism
        argument require the opposite: a local may only leap a global
        whose threshold is *not* yet reached (``rt >= DC``), as here.
        """
        counters = self.counters
        fallbacks_before = counters.index_fallbacks
        conflicts_a = self.index.pending_forward_conflicts(txn)
        if conflicts_a:
            self._count_query(fallbacks_before)
            return None
        conflicts_d = self.index.pending_backward_conflicts(txn, counters)
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
