"""Unit tests for key-indexed certification (``repro.core.certindex``).

The index must produce *bit-identical* verdicts to the reference scan on
every query — certification decides commit order at every replica, so a
single divergent verdict is a replica-divergence bug.  These tests pin
the equivalence on targeted histories (the Hypothesis differential suite
covers random ones), the counters, and the memory bounds of the
geometric write-key segments.
"""

import pytest

from repro.core.certifier import CertificationWindow, CommittedRecord
from repro.core.certindex import (
    CertifierCounters,
    IndexedCertifier,
    KeyConflictIndex,
    _WriteSegments,
)
from repro.core.checkpoint import window_from_wire, window_to_wire
from repro.core.pending import PendingList, PendingTxn
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection
from repro.reconfig.epochs import ConfigChange
from repro.reconfig.messages import InstallMigration

from tests.oracles.scan_certifier import (
    ScanCertifier,
    certify,
    find_reorder_position,
    outcome_conflicts,
)
from tests.properties.test_batch_differential import build_server


def proj(
    name: str,
    reads=(),
    writes=(),
    partitions=("p0",),
    snapshot=0,
    bloom=False,
):
    readset = (
        ReadsetDigest.bloomed(reads) if bloom else ReadsetDigest.exact(reads)
    )
    return TxnProjection(
        tid=TxnId("c", hash(name) % 10_000),
        partition="p0",
        readset=readset,
        writeset={key: 1 for key in writes},
        snapshot=snapshot,
        partitions=tuple(partitions),
        coordinator="s",
        client="c",
    )


def record(version, reads=(), writes=(), is_global=False, bloom=False):
    readset = (
        ReadsetDigest.bloomed(reads) if bloom else ReadsetDigest.exact(reads)
    )
    return CommittedRecord(
        tid=TxnId("c", 1000 + version),
        version=version,
        readset=readset,
        ws_keys=frozenset(writes),
        is_global=is_global,
    )


def pending_entry(p, rt=0):
    return PendingTxn(proj=p, rt=rt, delivered_at=0.0)


def indexed(capacity=64, floor=0):
    window = CertificationWindow(capacity, floor=floor)
    pending = PendingList()
    return IndexedCertifier(window, pending), window, pending


class TestCertifyEquivalence:
    """IndexedCertifier.certify ≡ CertificationWindow.certify."""

    CASES = [
        # (txn kwargs, expected)
        (dict(reads=["b"], writes=["b"], snapshot=0), True),
        (dict(reads=["x"], writes=["x"], snapshot=0), False),
        (dict(reads=["x"], writes=["x"], snapshot=1), True),  # saw the write
        (dict(reads=["q"], writes=["g"], partitions=("p0", "p1"), snapshot=0), False),
        (dict(reads=["q"], writes=["g"], snapshot=0), True),  # local: no backward test
        (dict(reads=["x"], writes=[], snapshot=0, bloom=True), False),
        (dict(reads=["b"], writes=["b"], snapshot=0, bloom=True), True),
    ]

    @pytest.mark.parametrize("kwargs, expected", CASES)
    def test_matches_scan(self, kwargs, expected):
        certifier, window, _ = indexed()
        window.add(record(1, reads=["g"], writes=["x"]))
        txn = proj("t", **kwargs)
        assert certify(window, txn) is expected
        assert certifier.certify(txn) is expected

    def test_snapshot_below_floor_is_unknowable(self):
        certifier, window, _ = indexed(capacity=2)
        for version in range(1, 6):
            window.add(record(version, writes=["w"]))
        assert window.floor == 3
        too_old = proj("t", reads=["q"], writes=["q"], snapshot=2)
        assert certifier.certify(too_old) is None
        at_floor = proj("u", reads=["q"], writes=["q"], snapshot=3)
        assert certifier.certify(at_floor) is True

    def test_superseded_write_survives_eviction(self):
        """Key k is written at v1 and v3; evicting v1 must keep v3's entry."""
        certifier, window, _ = indexed(capacity=2)
        window.add(record(1, writes=["k"]))
        window.add(record(2, writes=["other"]))
        window.add(record(3, writes=["k"]))  # evicts v1
        assert window.floor == 1
        txn = proj("t", reads=["k"], writes=["k"], snapshot=1)
        assert certify(window, txn) is False
        assert certifier.certify(txn) is False

    def test_bloom_committed_readset_checked_backward(self):
        """A committed record whose readset is a bloom still blocks a
        global writing one of its read keys (the per-record fallback)."""
        certifier, window, _ = indexed()
        window.add(record(1, reads=["g"], writes=[], bloom=True))
        txn = proj("t", reads=["q"], writes=["g"], partitions=("p0", "p1"))
        assert certify(window, txn) is False
        assert certifier.certify(txn) is False
        clean = proj("u", reads=["q"], writes=["zz"], partitions=("p0", "p1"))
        assert certify(window, clean) is certifier.certify(clean) is True


class TestPendingEquivalence:
    def test_outcome_conflicts_order_matches_scan(self):
        certifier, _, pending = indexed()
        for name, writes in [("a", ["x"]), ("b", ["y"]), ("c", ["x"])]:
            pending.append(
                pending_entry(proj(name, reads=["q"], writes=writes, partitions=("p0", "p1")))
            )
        txn = proj("t", reads=["x"], writes=["q"], partitions=("p0", "p1"))
        assert certifier.outcome_conflicts(txn) == outcome_conflicts(txn, pending)
        assert len(certifier.outcome_conflicts(txn)) == 3  # two forward + one backward

    def test_removal_clears_the_index(self):
        certifier, _, pending = indexed()
        entry = pending_entry(proj("g", reads=["x"], writes=["x"], partitions=("p0", "p1")))
        pending.append(entry)
        pending.remove(entry.tid)
        txn = proj("t", reads=["x"], writes=["x"], partitions=("p0", "p1"))
        assert certifier.outcome_conflicts(txn) == []

    def test_pop_head_clears_the_index(self):
        certifier, _, pending = indexed()
        pending.append(pending_entry(proj("g", reads=["x"], writes=["x"], partitions=("p0", "p1"))))
        pending.pop_head()
        txn = proj("t", reads=["x"], writes=["x"], partitions=("p0", "p1"))
        assert certifier.outcome_conflicts(txn) == []

    def test_bloom_pending_readset_probed(self):
        certifier, _, pending = indexed()
        pending.append(
            pending_entry(
                proj("g", reads=["a"], writes=["w"], partitions=("p0", "p1"), bloom=True)
            )
        )
        txn = proj("t", reads=["q"], writes=["a"], partitions=("p0", "p1"))
        assert certifier.outcome_conflicts(txn) == outcome_conflicts(txn, pending)
        assert certifier.outcome_conflicts(txn) != []


class TestReorderEquivalence:
    """Every unit case of ``find_reorder_position`` through the index."""

    def global_entry(self, name, reads, writes, rt):
        return pending_entry(
            proj(name, reads=reads, writes=writes, partitions=("p0", "p1")), rt=rt
        )

    CASES = [
        # (entries, txn kwargs, delivered_count)
        ([], dict(reads=["a"], writes=["a"]), 5),
        ([("g", ["x"], ["x"], 100, True)], dict(reads=["a"], writes=["a"]), 10),
        ([("g", ["q"], ["x"], 100, True)], dict(reads=["x"], writes=["x"]), 10),
        (
            [("g", ["x"], ["x"], 100, True), ("l", ["y"], ["y"], 100, False)],
            dict(reads=["a"], writes=["a"]),
            10,
        ),
        ([("g", ["x"], ["x"], 5, True)], dict(reads=["a"], writes=["a"]), 6),
        ([("g", ["x"], ["x"], 5, True)], dict(reads=["a"], writes=["a"]), 5),
        ([("g", ["a"], ["x"], 100, True)], dict(reads=["b", "a"], writes=["a"]), 10),
        (
            [("g1", ["x"], ["x"], 100, True), ("g2", ["y"], ["y"], 100, True)],
            dict(reads=["a"], writes=["a"]),
            10,
        ),
        (
            [("g1", ["a"], ["x"], 100, True), ("g2", ["y"], ["y"], 100, True)],
            dict(reads=["b", "a"], writes=["a"]),
            10,
        ),
        ([("g1", ["q"], ["w"], 2, True)], dict(reads=["a"], writes=["a"]), 10),
    ]

    @pytest.mark.parametrize("entries, kwargs, dc", CASES)
    def test_matches_scan(self, entries, kwargs, dc):
        certifier, _, pending = indexed()
        for name, reads, writes, rt, is_global in entries:
            if is_global:
                pending.append(self.global_entry(name, reads, writes, rt))
            else:
                pending.append(pending_entry(proj(name, reads=reads, writes=writes), rt=rt))
        txn = proj("t", **kwargs)
        expected = find_reorder_position(txn, pending, dc)
        assert certifier.find_reorder_position(txn, dc) == expected


class TestWriteSegments:
    def test_geometric_merging_bounds_segment_count(self):
        segments = _WriteSegments(capacity=1024)
        for version in range(1, 1001):
            segments.add(version, frozenset({f"k{version}"}), floor=0)
        # Binary-counter discipline: O(log n) segments for n inserts.
        assert segments.segment_count() <= 11

    def test_capacity_merge_purges_evicted_entries(self):
        capacity = 16
        segments = _WriteSegments(capacity)
        # Keys recycle, so the live window only ever references
        # ``capacity`` distinct keys; the purge must keep entry_count
        # from growing with history length.
        for version in range(1, 2001):
            key = f"k{version % capacity}"
            floor = max(0, version - capacity)
            segments.add(version, frozenset({key}), floor)
        assert segments.entry_count() <= 4 * capacity

    def test_bloom_conflict_matches_per_record_probes(self):
        segments = _WriteSegments(capacity=8)
        writes = {1: ["a"], 2: ["b"], 3: ["c"], 4: ["a", "d"]}
        for version, keys in writes.items():
            segments.add(version, frozenset(keys), floor=0)
        digest = ReadsetDigest.bloomed(["d"])
        for snapshot in range(0, 5):
            expected = any(
                digest.contains_any(keys)
                for version, keys in writes.items()
                if version > snapshot
            )
            assert segments.bloom_conflict(digest, snapshot) is expected


class TestEvictionIndexConsistency:
    def test_evicted_reader_entries_retire(self):
        certifier, window, _ = indexed(capacity=2)
        window.add(record(1, reads=["r"], writes=[]))
        window.add(record(2, writes=["a"]))
        window.add(record(3, writes=["b"]))  # evicts v1 (the reader)
        index = certifier.index
        assert index._last_reader == {}
        assert "a" in index._last_writer and "b" in index._last_writer

    def test_evicted_bloom_records_retire(self):
        certifier, window, _ = indexed(capacity=2)
        window.add(record(1, reads=["r"], writes=[], bloom=True))
        window.add(record(2, writes=["a"]))
        window.add(record(3, writes=["b"]))
        assert len(certifier.index._bloom_records) == 0


class TestCounters:
    def test_index_hits_count_pure_index_queries(self):
        counters = CertifierCounters()
        window = CertificationWindow(64)
        pending = PendingList()
        certifier = IndexedCertifier(window, pending, counters)
        window.add(record(1, writes=["x"]))
        certifier.certify(proj("t", reads=["x"], writes=["x"], snapshot=0))
        assert counters.index_hits == 1
        assert counters.index_fallbacks == 0
        assert counters.ctest_calls == 0

    def test_bloom_committed_readsets_count_fallbacks(self):
        counters = CertifierCounters()
        window = CertificationWindow(64)
        certifier = IndexedCertifier(window, PendingList(), counters)
        window.add(record(1, reads=["g"], writes=[], bloom=True))
        certifier.certify(proj("t", reads=["q"], writes=["g"], partitions=("p0", "p1")))
        assert counters.index_fallbacks == 1
        assert counters.ctest_calls == 1  # one per-record probe
        assert counters.index_hits == 0

    def test_scan_counts_window_span(self):
        counters = CertifierCounters()
        window = CertificationWindow(64)
        certifier = ScanCertifier(window, PendingList(), counters)
        for version in range(1, 11):
            window.add(record(version, writes=[f"k{version}"]))
        certifier.certify(proj("t", reads=["zz"], writes=["zz"], snapshot=4))
        assert counters.ctest_calls == 6  # records 5..10
        assert counters.index_hits == 0


class TestRebuild:
    def test_checkpoint_roundtrip_preserves_verdicts(self):
        window = CertificationWindow(capacity=4)
        for version, (reads, writes, bloom) in enumerate(
            [(["r1"], ["w1"], False), ([], ["w2"], False), (["r3"], [], True)], start=1
        ):
            window.add(record(version, reads=reads, writes=writes, bloom=bloom))
        restored = window_from_wire(
            window_to_wire(window), capacity=4, floor=window.floor
        )
        certifier = IndexedCertifier(restored, PendingList())
        for kwargs in [
            dict(reads=["w1"], writes=["x"], snapshot=0),
            dict(reads=["q"], writes=["r3"], partitions=("p0", "p1"), snapshot=0),
            dict(reads=["q"], writes=["q"], snapshot=0),
            dict(reads=["w2"], writes=["w2"], snapshot=2),
        ]:
            txn = proj("t", **kwargs)
            assert certifier.certify(txn) is certify(window, txn)

    def test_rebuild_includes_pending(self):
        window = CertificationWindow(capacity=4)
        pending = PendingList()
        pending.append(
            pending_entry(proj("g", reads=["x"], writes=["x"], partitions=("p0", "p1")))
        )
        certifier = IndexedCertifier(window, pending)
        txn = proj("t", reads=["x"], writes=["q"], partitions=("p0", "p1"))
        assert certifier.outcome_conflicts(txn) == outcome_conflicts(txn, pending)


class TestFactory:
    def test_migration_install_rebuilds_the_certifier(self):
        """A split install replaces the window wholesale; the certifier
        must be rebuilt over the *new* one, floor included."""
        server = build_server(0)
        before = server.certifier
        server.await_migration()
        change = ConfigChange(
            new_epoch=1,
            source="p1",
            new_partition="p0",
            new_members=("s0",),
            new_preferred="s0",
            split_salt="x",
        )
        server.on_adeliver(
            0, InstallMigration(change=change, chains={"0/k0": ((7, 1),)}, source_sc=7)
        )
        assert isinstance(server.certifier, IndexedCertifier)
        assert server.certifier is not before
        assert server.certifier.window is server.window
        assert server.window.listener is server.certifier.index
        assert server.window.floor == 7
        stale = proj("stale", reads=["0/k0"], snapshot=6)
        assert server.certifier.certify(stale) is None

    def test_scan_oracle_detaches_stale_index(self):
        window = CertificationWindow(8)
        pending = PendingList()
        IndexedCertifier(window, pending)
        assert window.listener is not None
        ScanCertifier(window, pending)
        # The scan detaches the stale index so it stops mirroring.
        assert window.listener is None
        assert pending.listener is None

    def test_listener_mirror_is_in_sync(self):
        certifier, window, pending = indexed(capacity=8)
        window.add(record(1, writes=["k"]))
        fresh = KeyConflictIndex(8)
        fresh.rebuild(window, pending)
        assert fresh._last_writer == certifier.index._last_writer
