"""Unit tests for certification and the reorder-position search.

These exercise the exact tests from the paper — ``ctest`` (Algorithm 2
lines 46–47), the committed-window certification (line 49) and each of
the four reorder-position conditions (lines 55–60) — on the scan that
spells them out (``tests/oracles/scan_certifier.py``; the shipped index
is held to it in ``test_certindex.py``).
"""

from collections import deque

import pytest

from repro.core.certifier import CertificationWindow, window_entry
from repro.core.pending import PendingList, PendingTxn
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection

from tests.oracles.scan_certifier import certify, ctest, entries_after, find_reorder_position


def proj(
    name: str,
    reads=(),
    writes=(),
    partitions=("p0",),
    snapshot=0,
    partition="p0",
):
    return TxnProjection(
        tid=TxnId("c", hash(name) % 10_000),
        partition=partition,
        readset=ReadsetDigest.exact(reads),
        writeset={key: 1 for key in writes},
        snapshot=snapshot,
        partitions=tuple(partitions),
        coordinator="s",
        client="c",
    )


def record(version, reads=(), writes=(), is_global=False):
    return window_entry(
        TxnId("c", 1000 + version), version, ReadsetDigest.exact(reads), writes, is_global
    )


def pending_entry(p, rt=0):
    return PendingTxn(proj=p, rt=rt, delivered_at=0.0)


class TestCtest:
    def test_local_passes_when_reads_fresh(self):
        local = proj("t", reads=["x"], writes=["x"])
        assert ctest(local, record(1, reads=["y"], writes=["y"]))

    def test_local_fails_on_stale_read(self):
        local = proj("t", reads=["x"], writes=["x"])
        assert not ctest(local, record(1, writes=["x"]))

    def test_local_ignores_write_write_overlap(self):
        """Locals only need rs ∩ ws' = ∅; their writes may touch what the
        earlier transaction read (they serialize after it)."""
        local = proj("t", reads=["a"], writes=["a"])
        assert ctest(local, record(1, reads=["a"], writes=["b"]))

    def test_global_checked_both_ways(self):
        """Globals need symmetry so either delivery order serializes
        (the paper's footnote-2 scenario)."""
        global_txn = proj("t", reads=["x"], writes=["x"], partitions=("p0", "p1"))
        # Other transaction READ x, which this one writes -> fail.
        assert not ctest(global_txn, record(1, reads=["x"], writes=["y"]))
        # Disjoint in both directions -> pass.
        assert ctest(global_txn, record(1, reads=["z"], writes=["w"]))

    def test_empty_sets_never_conflict(self):
        read_only_ish = proj("t", reads=["x"], writes=[], partitions=("p0", "p1"))
        assert ctest(read_only_ish, record(1, reads=["x"]))


class TestCertificationWindow:
    def test_passes_when_no_overlapping_commits(self):
        window = CertificationWindow(capacity=10)
        window.add(record(1, writes=["a"]))
        txn = proj("t", reads=["b"], writes=["b"], snapshot=0)
        assert certify(window, txn) is True

    def test_only_commits_after_snapshot_are_checked(self):
        window = CertificationWindow(capacity=10)
        window.add(record(1, writes=["x"]))
        saw_it = proj("t", reads=["x"], writes=["x"], snapshot=1)
        missed_it = proj("u", reads=["x"], writes=["x"], snapshot=0)
        assert certify(window, saw_it) is True
        assert certify(window, missed_it) is False

    def test_conflict_anywhere_in_window_fails(self):
        window = CertificationWindow(capacity=10)
        for version in range(1, 6):
            window.add(record(version, writes=[f"k{version}"]))
        txn = proj("t", reads=["k3"], writes=["k3"], snapshot=1)
        assert certify(window, txn) is False

    def test_snapshot_older_than_window_is_unknowable(self):
        window = CertificationWindow(capacity=2)
        for version in range(1, 6):
            window.add(record(version, writes=["w"]))
        assert window.floor == 3
        txn = proj("t", reads=["q"], writes=["q"], snapshot=2)
        assert certify(window, txn) is None
        at_floor = proj("u", reads=["q"], writes=["q"], snapshot=3)
        assert at_floor.snapshot == window.floor
        assert certify(window, at_floor) is True

    def test_versions_must_increase(self):
        window = CertificationWindow(capacity=10)
        window.add(record(2))
        with pytest.raises(ValueError):
            window.add(record(2))

    def test_global_readset_checked_against_new_writes(self):
        window = CertificationWindow(capacity=10)
        window.add(record(1, reads=["g"], writes=[]))
        txn = proj("t", reads=["q"], writes=["g"], partitions=("p0", "p1"), snapshot=0)
        # committed read g; this global writes g -> symmetric test fails
        assert certify(window, txn) is False

    def test_eviction_keeps_a_bounded_list_in_step_with_a_deque(self):
        """Eviction advances a head offset and compacts now and then, so
        it is O(1) amortized, and the list stays within twice the
        capacity while reading as a bounded deque would."""
        capacity = 1_000
        window = CertificationWindow(capacity)
        reference: deque = deque(maxlen=capacity)
        for version in range(1, 10_001):
            entry = record(version, reads=[f"r{version % 7}"], writes=[f"w{version % 5}"])
            window.add(entry)
            reference.append(entry)
            evicted = version - capacity
            assert window.floor == max(0, evicted)
            assert len(window._entries) <= 2 * capacity
            assert list(window) == list(reference)
            snapshot = max(window.floor, version - version % 700)
            after = [entry for entry in reference if entry[0] > snapshot]
            assert entries_after(window, snapshot) == after


class TestReorderPosition:
    def global_entry(self, name, reads, writes, rt):
        return pending_entry(
            proj(name, reads=reads, writes=writes, partitions=("p0", "p1")), rt=rt
        )

    def test_empty_pending_list_appends_at_zero(self):
        local = proj("t", reads=["a"], writes=["a"])
        assert find_reorder_position(local, PendingList(), delivered_count=5) == 0

    def test_leaps_compatible_global(self):
        pending = PendingList()
        pending.append(self.global_entry("g", ["x"], ["x"], rt=100))
        local = proj("t", reads=["a"], writes=["a"])
        assert find_reorder_position(local, pending, delivered_count=10) == 0

    def test_condition_a_stale_reads_forbid_any_slot(self):
        """The local read something a pending transaction writes: abort."""
        pending = PendingList()
        pending.append(self.global_entry("g", ["q"], ["x"], rt=100))
        local = proj("t", reads=["x"], writes=["x"])
        assert find_reorder_position(local, pending, delivered_count=10) is None

    def test_condition_b_never_leaps_another_local(self):
        pending = PendingList()
        pending.append(self.global_entry("g", ["x"], ["x"], rt=100))
        pending.append(pending_entry(proj("l", reads=["y"], writes=["y"]), rt=100))
        newcomer = proj("t", reads=["a"], writes=["a"])
        # Slots 0 and 1 would leap the local at position 1 -> only append.
        assert find_reorder_position(newcomer, pending, delivered_count=10) == 2

    def test_condition_c_no_leaping_past_threshold(self):
        pending = PendingList()
        pending.append(self.global_entry("g", ["x"], ["x"], rt=5))
        local = proj("t", reads=["a"], writes=["a"])
        # Delivered count has passed g's threshold: g may already have
        # completed elsewhere, so leaping would be non-deterministic.
        assert find_reorder_position(local, pending, delivered_count=6) == 1
        # At or before the threshold the leap is allowed.
        assert find_reorder_position(local, pending, delivered_count=5) == 0

    def test_condition_d_must_not_invalidate_votes(self):
        pending = PendingList()
        # Global read a; the local writes a: leaping would change g's vote.
        pending.append(self.global_entry("g", ["a"], ["x"], rt=100))
        local = proj("t", reads=["b", "a"], writes=["a"])
        # Slot 0 violates (d); slot 1 is fine since g writes x ∉ rs(t)...
        # but wait: t reads a and g writes x, so condition (a) holds at 1.
        assert find_reorder_position(local, pending, delivered_count=10) == 1

    def test_leftmost_valid_slot_is_chosen(self):
        pending = PendingList()
        pending.append(self.global_entry("g1", ["x"], ["x"], rt=100))
        pending.append(self.global_entry("g2", ["y"], ["y"], rt=100))
        local = proj("t", reads=["a"], writes=["a"])
        assert find_reorder_position(local, pending, delivered_count=10) == 0

    def test_partial_leap_over_suffix_only(self):
        pending = PendingList()
        # g1 conflicts via (d): local writes what g1 reads.
        pending.append(self.global_entry("g1", ["a"], ["x"], rt=100))
        pending.append(self.global_entry("g2", ["y"], ["y"], rt=100))
        local = proj("t", reads=["b", "a"], writes=["a"])
        assert find_reorder_position(local, pending, delivered_count=10) == 1

    def test_mixed_conditions_force_append(self):
        pending = PendingList()
        pending.append(self.global_entry("g1", ["q"], ["w"], rt=2))  # past threshold
        local = proj("t", reads=["a"], writes=["a"])
        assert find_reorder_position(local, pending, delivered_count=10) == 1
