"""Unit tests for checkpoint serialization and window round trips."""

import pytest

from repro.core.certifier import CertificationWindow, window_entry
from repro.core.checkpoint import (
    ServerCheckpoint,
    WindowRecord,
    window_from_wire,
    window_to_wire,
)
from repro.core.transaction import ReadsetDigest, TxnId
from repro.errors import ProtocolError
from repro.net.message import encode_message
from tests.conftest import roundtrip

from tests.oracles.scan_certifier import certify


def sample_checkpoint():
    window = CertificationWindow(capacity=10)
    window.add(window_entry(TxnId("c", 1), 3, ReadsetDigest.exact(["0/a"]), ["0/a"], True))
    return ServerCheckpoint(
        partition="p0",
        next_instance=7,
        sc=3,
        dc=9,
        chains={"0/a": ((0, None), (3, 42)), "0/b": ((2, "x"),)},
        gc_horizon=1,
        window=window_to_wire(window),
        window_floor=0,
    )


class TestSerialization:
    def test_bytes_round_trip(self):
        checkpoint = sample_checkpoint()
        restored = ServerCheckpoint.from_bytes(checkpoint.to_bytes())
        assert restored == checkpoint
        assert restored.chains["0/a"] == ((0, None), (3, 42))

    def test_codec_round_trip(self):
        checkpoint = sample_checkpoint()
        assert roundtrip(checkpoint) == checkpoint

    def test_from_bytes_rejects_other_messages(self):
        from repro.core.messages import NoopTick

        with pytest.raises(ProtocolError):
            ServerCheckpoint.from_bytes(encode_message(NoopTick()))


class TestWindowWire:
    def test_round_trip_preserves_certification_behaviour(self):
        window = CertificationWindow(capacity=5)
        for version in range(1, 4):
            window.add(
                window_entry(
                    TxnId("c", version),
                    version,
                    ReadsetDigest.exact([f"k{version}"]),
                    [f"k{version}"],
                    bool(version % 2),
                )
            )
        restored = window_from_wire(window_to_wire(window), capacity=5, floor=window.floor)
        assert len(restored) == len(window)
        from repro.core.transaction import TxnProjection

        txn = TxnProjection(
            tid=TxnId("t", 1),
            partition="p0",
            readset=ReadsetDigest.exact(["k2"]),
            writeset={"k2": 0},
            snapshot=1,
            partitions=("p0",),
            coordinator="s",
            client="c",
        )
        assert certify(window, txn) == certify(restored, txn)
        assert certify(window, txn) is False  # k2 written at version 2 > 1

    def test_floor_survives(self):
        restored = window_from_wire((), capacity=3, floor=9)
        assert restored.floor == 9

    def test_bloom_digests_survive(self):
        window = CertificationWindow(capacity=3)
        window.add(window_entry(TxnId("c", 1), 1, ReadsetDigest.bloomed(["hot"]), ["hot"], True))
        restored = window_from_wire(window_to_wire(window), capacity=3, floor=0)
        record = WindowRecord.of(next(iter(restored)))
        assert record.readset.contains_any(["hot"])
        assert not record.readset.is_exact
