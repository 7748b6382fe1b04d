"""Differential property tests: indexed vs scan certification.

Hypothesis drives a random delivery history — commits with exact *and*
bloom readset digests, pending-list churn (append, reorder insert,
and pop), and a mid-history checkpoint roundtrip — through an
:class:`IndexedCertifier` and a :class:`ScanCertifier` fed identically,
and asserts every query answers *bit-identically*: ``certify``,
``outcome_conflicts`` and ``find_reorder_position``.  Certification decides commit order at every
replica, so one divergent verdict is a replica-divergence bug; this
suite is the evidence behind the "identical outcomes" claim of
docs/PROTOCOL.md §15 (``tests/integration/test_scan_oracle_cluster.py``
shows the same at the system level).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.certifier import CertificationWindow, window_entry
from repro.core.certindex import IndexedCertifier
from repro.core.checkpoint import window_from_wire, window_to_wire
from repro.core.pending import PendingList, PendingTxn
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection

from tests.oracles.scan_certifier import ScanCertifier

KEYS = ["a", "b", "c", "d", "e", "f"]

key_sets = st.sets(st.sampled_from(KEYS), max_size=3)

WINDOW_CAPACITY = 6  # small enough that random histories evict


def make_proj(seq, reads, writes, is_global, snapshot=0, bloom=False):
    readset = (
        ReadsetDigest.bloomed(reads) if bloom else ReadsetDigest.exact(reads)
    )
    return TxnProjection(
        tid=TxnId("c", seq),
        partition="p0",
        readset=readset,
        writeset={key: seq for key in writes},
        snapshot=snapshot,
        partitions=("p0", "p1") if is_global else ("p0",),
        coordinator="s",
        client="c",
    )


commit_op = st.tuples(
    st.just("commit"), key_sets, key_sets, st.booleans(), st.booleans()
)
append_op = st.tuples(
    st.just("append"), key_sets, key_sets, st.booleans(), st.booleans(),
    st.integers(0, 12),
)
insert_op = st.tuples(
    st.just("insert"), key_sets, key_sets, st.booleans(), st.integers(0, 100),
)
pop_op = st.tuples(st.just("pop"))
checkpoint_op = st.tuples(st.just("checkpoint"))
query_op = st.tuples(
    st.just("query"), key_sets, key_sets, st.booleans(), st.booleans(),
    st.integers(0, 40), st.integers(0, 12),
)

ops = st.lists(
    st.one_of(commit_op, append_op, insert_op, pop_op,
              checkpoint_op, query_op),
    min_size=1,
    max_size=40,
)


class Harness:
    """One certifier (index or scan) plus its window and pending list."""

    def __init__(self, make):
        self.window = CertificationWindow(WINDOW_CAPACITY)
        self.pending = PendingList()
        self.make = make
        self.certifier = make(self.window, self.pending)

    def checkpoint_roundtrip(self):
        self.window = window_from_wire(
            window_to_wire(self.window), WINDOW_CAPACITY, self.window.floor
        )
        self.certifier = self.make(self.window, self.pending)


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(ops=ops)
    def test_indexed_and_scan_agree_on_everything(self, ops):
        sides = [Harness(IndexedCertifier), Harness(ScanCertifier)]
        version = 0
        seq = 0
        for op in ops:
            kind = op[0]
            if kind == "commit":
                _, reads, writes, is_global, bloom = op
                version += 1
                seq += 1
                readset = (
                    ReadsetDigest.bloomed(reads)
                    if bloom
                    else ReadsetDigest.exact(reads)
                )
                for side in sides:
                    side.window.add(
                        window_entry(TxnId("h", seq), version, readset, writes, is_global)
                    )
            elif kind == "append":
                _, reads, writes, is_global, bloom, rt = op
                seq += 1
                proj = make_proj(seq, reads, writes, is_global, bloom=bloom)
                for side in sides:
                    side.pending.append(
                        PendingTxn(proj=proj, rt=rt, delivered_at=0.0)
                    )
            elif kind == "insert":
                _, reads, writes, bloom, raw_pos = op
                seq += 1
                proj = make_proj(seq, reads, writes, False, bloom=bloom)
                position = raw_pos % (len(sides[0].pending) + 1)
                for side in sides:
                    side.pending.insert(
                        position, PendingTxn(proj=proj, rt=0, delivered_at=0.0)
                    )
            elif kind == "pop":
                if len(sides[0].pending):
                    popped = [side.pending.pop_head().tid for side in sides]
                    assert popped[0] == popped[1]
            elif kind == "checkpoint":
                for side in sides:
                    side.checkpoint_roundtrip()
            else:  # query
                _, reads, writes, is_global, bloom, raw_snapshot, dc = op
                snapshot = raw_snapshot % (version + 1)
                txn = make_proj(
                    77_777, reads, writes, is_global,
                    snapshot=snapshot, bloom=bloom,
                )
                indexed, scan = (side.certifier for side in sides)
                assert indexed.certify(txn) is scan.certify(txn)
                assert indexed.outcome_conflicts(txn) == scan.outcome_conflicts(txn)
                local = make_proj(
                    88_888, reads, writes, False,
                    snapshot=snapshot, bloom=False,
                )
                assert indexed.find_reorder_position(
                    local, dc
                ) == scan.find_reorder_position(local, dc)
        # Final sweep: after all the churn, every key-probe still agrees.
        for key in KEYS:
            for snapshot in (0, version // 2, version):
                txn = make_proj(
                    99_999, {key}, {key}, True, snapshot=snapshot
                )
                indexed, scan = (side.certifier for side in sides)
                assert indexed.certify(txn) is scan.certify(txn)
