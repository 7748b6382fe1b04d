"""Unit tests for the pending list."""

import pytest

from repro.core.pending import PendingList, PendingTxn
from repro.core.transaction import Outcome, ReadsetDigest, TxnId, TxnProjection
from repro.errors import ProtocolError


def entry(seq, partitions=("p0",), votes=None):
    proj = TxnProjection(
        tid=TxnId("c", seq),
        partition="p0",
        readset=ReadsetDigest.exact(["k"]),
        writeset={"k": seq},
        snapshot=0,
        partitions=tuple(partitions),
        coordinator="s",
        client="c",
    )
    e = PendingTxn(proj=proj, rt=seq + 10, delivered_at=0.0)
    if votes:
        e.votes.update(votes)
    return e


class TestList:
    def test_append_and_head(self):
        pending = PendingList()
        assert pending.head() is None
        first = entry(1)
        pending.append(first)
        pending.append(entry(2))
        assert pending.head() is first
        assert len(pending) == 2

    def test_insert_at_position(self):
        pending = PendingList()
        pending.append(entry(1))
        pending.append(entry(2))
        leaper = entry(3)
        pending.insert(0, leaper)
        assert pending.head() is leaper
        assert [e.proj.tid.seq for e in pending] == [3, 1, 2]

    def test_insert_bounds_checked(self):
        pending = PendingList()
        with pytest.raises(ProtocolError):
            pending.insert(1, entry(1))

    def test_duplicate_tids_rejected(self):
        pending = PendingList()
        pending.append(entry(1))
        with pytest.raises(ProtocolError):
            pending.append(entry(1))

    def test_pop_head_removes_and_returns(self):
        pending = PendingList()
        first = entry(1)
        pending.append(first)
        assert pending.pop_head() is first
        assert len(pending) == 0
        with pytest.raises(ProtocolError):
            pending.pop_head()

    def test_lookup_and_position(self):
        pending = PendingList()
        pending.append(entry(1))
        pending.append(entry(2))
        assert pending.get(TxnId("c", 2)).proj.tid.seq == 2
        assert [e.tid for e in pending].index(TxnId("c", 2)) == 1
        assert pending.get(TxnId("c", 9)) is None

    def test_globals_pending_filter(self):
        pending = PendingList()
        pending.append(entry(1))
        pending.append(entry(2, partitions=("p0", "p1")))
        globals_ = pending.globals_pending()
        assert [e.proj.tid.seq for e in globals_] == [2]


class TestVotes:
    def test_missing_votes(self):
        e = entry(1, partitions=("p0", "p1"), votes={"p0": "commit"})
        assert e.missing_votes() == ["p1"]
        assert not e.has_all_votes()

    def test_outcome_requires_all_votes(self):
        e = entry(1, partitions=("p0", "p1"), votes={"p0": "commit"})
        with pytest.raises(ProtocolError):
            e.decided_outcome()

    def test_unanimous_commit(self):
        e = entry(1, partitions=("p0", "p1"), votes={"p0": "commit", "p1": "commit"})
        assert e.decided_outcome() is Outcome.COMMIT

    def test_any_abort_vote_aborts(self):
        e = entry(1, partitions=("p0", "p1"), votes={"p0": "commit", "p1": "abort"})
        assert e.decided_outcome() is Outcome.ABORT
