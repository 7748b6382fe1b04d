"""Property tests for certification against a brute-force oracle.

``find_reorder_position`` is the heart of the reordering extension; here
hypothesis generates random pending lists and transactions, and the
result is compared against an exhaustive oracle that checks the paper's
four conditions at every slot.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.certifier import CertificationWindow, CommittedRecord, ctest
from repro.core.pending import PendingList, PendingTxn
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection

from tests.oracles.scan_certifier import certify, find_reorder_position, outcome_conflicts

KEYS = ["a", "b", "c", "d", "e"]

key_sets = st.sets(st.sampled_from(KEYS), max_size=3)


def make_proj(seq, reads, writes, is_global):
    partitions = ("p0", "p1") if is_global else ("p0",)
    return TxnProjection(
        tid=TxnId("c", seq),
        partition="p0",
        readset=ReadsetDigest.exact(reads),
        writeset={key: seq for key in writes},
        snapshot=0,
        partitions=partitions,
        coordinator="s",
        client="c",
    )


pending_entry = st.builds(
    lambda seq, reads, extra_writes, is_global, rt: PendingTxn(
        proj=make_proj(seq, set(reads) | set(extra_writes), extra_writes, is_global),
        rt=rt,
        delivered_at=0.0,
    ),
    seq=st.integers(0, 10_000),
    reads=key_sets,
    extra_writes=key_sets,
    is_global=st.booleans(),
    rt=st.integers(0, 30),
)


def oracle_positions(txn, entries, dc):
    """All slots satisfying the paper's conditions (brute force)."""
    valid = []
    for position in range(len(entries) + 1):
        ok = True
        for k, entry in enumerate(entries):
            if k < position:
                # (a) reads must not be stale w.r.t. earlier entries.
                if txn.readset.contains_any(entry.proj.ws_keys):
                    ok = False
                    break
            else:
                # (b) only globals may be leaped,
                # (c) none past their reorder threshold,
                # (d) no vote invalidation in either direction.
                if not entry.proj.is_global:
                    ok = False
                    break
                if entry.rt < dc:
                    ok = False
                    break
                if txn.readset.contains_any(entry.proj.ws_keys):
                    ok = False
                    break
                if entry.proj.readset.contains_any(txn.writeset.keys()):
                    ok = False
                    break
        if ok:
            valid.append(position)
    return valid


class TestReorderPositionOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(pending_entry, max_size=5),
        reads=key_sets,
        writes=key_sets,
        dc=st.integers(0, 30),
    )
    def test_matches_bruteforce_oracle(self, entries, reads, writes, dc):
        # Deduplicate tids (PendingList requires it).
        pending = PendingList()
        seen = set()
        unique = []
        for entry in entries:
            if entry.tid not in seen:
                seen.add(entry.tid)
                pending.append(entry)
                unique.append(entry)
        txn = make_proj(99_999, set(reads) | set(writes), writes, is_global=False)
        result = find_reorder_position(txn, pending, dc)
        valid = oracle_positions(txn, unique, dc)
        if valid:
            assert result == min(valid), (
                f"expected leftmost valid {min(valid)}, got {result}"
            )
        else:
            assert result is None

    @settings(max_examples=100, deadline=None)
    @given(entries=st.lists(pending_entry, max_size=5), reads=key_sets, writes=key_sets)
    def test_empty_conflicts_guarantee_a_slot(self, entries, reads, writes):
        """When outcome_conflicts is empty, the local must find a slot
        (the server relies on this: non-deferred locals never abort at
        the reorder step)."""
        pending = PendingList()
        seen = set()
        for entry in entries:
            if entry.tid not in seen:
                seen.add(entry.tid)
                pending.append(entry)
        txn = make_proj(99_999, set(reads) | set(writes), writes, is_global=False)
        if not outcome_conflicts(txn, pending):
            assert find_reorder_position(txn, pending, delivered_count=0) is not None


class TestCtestProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        rs1=key_sets, ws1=key_sets, rs2=key_sets, ws2=key_sets
    )
    def test_global_ctest_is_symmetric(self, rs1, ws1, rs2, ws2):
        """If two globals pass the symmetric test against each other they
        commute — the property §III-B relies on."""
        t1 = make_proj(1, set(rs1) | set(ws1), ws1, is_global=True)
        t2 = make_proj(2, set(rs2) | set(ws2), ws2, is_global=True)
        forward = ctest(t1, t2.readset, t2.ws_keys)
        backward = ctest(t2, t1.readset, t1.ws_keys)
        if forward and backward:
            # No conflicts in any direction: all four intersections empty.
            assert not (set(t1.writeset) & (set(rs2) | set(ws2)))
            assert not (set(t2.writeset) & (set(rs1) | set(ws1)))

    @settings(max_examples=200, deadline=None)
    @given(
        history=st.lists(st.tuples(key_sets, key_sets), max_size=6),
        reads=key_sets,
        writes=key_sets,
        snapshot=st.integers(0, 6),
    )
    def test_window_certify_equals_per_record_ctest(
        self, history, reads, writes, snapshot
    ):
        window = CertificationWindow(capacity=100)
        records = []
        for version, (record_reads, record_writes) in enumerate(history, start=1):
            record = CommittedRecord(
                tid=TxnId("h", version),
                version=version,
                readset=ReadsetDigest.exact(record_reads),
                ws_keys=frozenset(record_writes),
                is_global=False,
            )
            window.add(record)
            records.append(record)
        txn = make_proj(50_000, set(reads) | set(writes), writes, is_global=True)
        txn = TxnProjection(
            tid=txn.tid, partition="p0", readset=txn.readset, writeset=txn.writeset,
            snapshot=snapshot, partitions=txn.partitions, coordinator="s", client="c",
        )
        expected = all(
            ctest(txn, record.readset, record.ws_keys)
            for record in records
            if record.version > snapshot
        )
        assert certify(window, txn) is expected
