"""Unit tests for transaction ids, digests, and projections."""

import pytest

from repro.core.transaction import Outcome, ReadsetDigest, TxnId, TxnProjection
from repro.errors import ProtocolError
from tests.conftest import roundtrip


class TestTxnId:
    def test_equality_and_hash(self):
        assert TxnId("c1", 1) == TxnId("c1", 1)
        assert TxnId("c1", 1) != TxnId("c1", 2)
        assert len({TxnId("c1", 1), TxnId("c1", 1)}) == 1

    def test_ordering(self):
        assert TxnId("c1", 1) < TxnId("c1", 2) < TxnId("c2", 0)

    def test_str(self):
        assert str(TxnId("c1", 7)) == "c1#7"

    def test_codec_roundtrip(self):
        assert roundtrip(TxnId("c1", 3)) == TxnId("c1", 3)


class TestReadsetDigest:
    def test_exact_membership(self):
        digest = ReadsetDigest.exact(["a", "b"])
        assert digest.contains_any(["b", "x"])
        assert not digest.contains_any(["x", "y"])
        assert digest.is_exact

    def test_bloom_membership_no_false_negatives(self):
        digest = ReadsetDigest.bloomed(["a", "b", "c"])
        assert digest.contains_any(["c"])
        assert not digest.is_exact

    def test_bloom_roundtrips_through_codec(self):
        digest = ReadsetDigest.bloomed(["k1", "k2"])
        decoded = roundtrip(digest)
        assert decoded.contains_any(["k1"])

    def test_must_be_exactly_one_representation(self):
        with pytest.raises(ProtocolError):
            ReadsetDigest(keys=None, bloom=None)
        with pytest.raises(ProtocolError):
            ReadsetDigest(keys=frozenset({"a"}), bloom=b"xx")

    def test_empty_exact_digest(self):
        digest = ReadsetDigest.exact(())
        assert not digest.contains_any(["anything"])
        assert not digest.contains_any([])


class TestProjection:
    def make(self, partitions=("p0",), partition="p0", ws=None):
        return TxnProjection(
            tid=TxnId("c", 1),
            partition=partition,
            readset=ReadsetDigest.exact(["k"]),
            writeset=ws or {"k": 1},
            snapshot=0,
            partitions=tuple(partitions),
            coordinator="s1",
            client="c",
        )

    def test_local_vs_global(self):
        assert self.make(partitions=("p0",)).is_local
        assert self.make(partitions=("p0", "p1")).is_global

    def test_ws_keys(self):
        assert self.make(ws={"a": 1, "b": 2}).ws_keys == frozenset({"a", "b"})

    def test_partition_must_be_involved(self):
        with pytest.raises(ProtocolError):
            self.make(partitions=("p1",), partition="p0")

    def test_codec_roundtrip(self):
        proj = self.make(partitions=("p0", "p1"))
        decoded = roundtrip(proj)
        assert decoded == proj
        assert decoded.is_global


class TestOutcome:
    def test_values(self):
        assert Outcome.COMMIT.value == "commit"
        assert Outcome("abort") is Outcome.ABORT
