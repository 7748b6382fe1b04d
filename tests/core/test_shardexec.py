"""Unit tests for the sharded certification executor (``repro.core.shardexec``).

Targeted histories pinning: shard routing stability, the fanout's
slicing of committed records (exact and bloom readsets), verdict
equivalence between :class:`ShardedCertifier` and the unsharded
:class:`IndexedCertifier` on every query type, phase-1 batch plans, and
checkpoint-restore / migration-install rebuilds through a live server.  The Hypothesis differential suite
(``tests/properties/test_prop_shardexec.py``) covers random delivery
scripts end to end.
"""

import pytest

from repro.core.batch import BatchingConfig
from repro.core.certifier import CertificationWindow, CommittedRecord
from repro.core.certindex import IndexedCertifier
from repro.core.config import SdurConfig
from repro.core.pending import PendingList, PendingTxn
from repro.core.shardexec import ShardExecConfig, ShardedCertifier, shard_of
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection
from repro.errors import ConfigurationError
from repro.reconfig.epochs import ConfigChange
from repro.reconfig.messages import InstallMigration

from tests.properties.test_prop_shardexec import (
    build_server,
    concretize,
    replay,
    state_of,
)


def proj(seq, reads=(), writes=(), partitions=("p0",), snapshot=0, bloom=False):
    readset = ReadsetDigest.bloomed(reads) if bloom else ReadsetDigest.exact(reads)
    return TxnProjection(
        tid=TxnId("c", seq),
        partition="p0",
        readset=readset,
        writeset={key: seq for key in writes},
        snapshot=snapshot,
        partitions=tuple(partitions),
        coordinator="s",
        client="c",
    )


def record(version, reads=(), writes=(), is_global=False, bloom=False):
    readset = ReadsetDigest.bloomed(reads) if bloom else ReadsetDigest.exact(reads)
    return CommittedRecord(
        tid=TxnId("c", 1000 + version),
        version=version,
        readset=readset,
        ws_keys=frozenset(writes),
        is_global=is_global,
    )


def sharded(num_shards=4, capacity=64, hash_seed=0):
    config = ShardExecConfig(num_shards=num_shards, hash_seed=hash_seed)
    window = CertificationWindow(capacity)
    pending = PendingList()
    certifier = ShardedCertifier(window, pending, config=config)
    return certifier, window, pending


#: A history mixing exact and bloom readsets, locals and globals, with
#: enough records to straddle a small window's evictions.
def fill(window, capacity_stress=False):
    histories = [
        record(1, reads=["a"], writes=["x", "y"]),
        record(2, reads=["b", "c"], writes=["z"], is_global=True),
        record(3, reads=["x"], writes=["a"], bloom=True, is_global=True),
        record(4, reads=["d"], writes=["b"]),
        record(5, reads=["y", "z"], writes=["c"], bloom=True),
        record(6, reads=["e"], writes=["d", "e"], is_global=True),
    ]
    if capacity_stress:
        histories += [
            record(7 + i, reads=[f"k{i}"], writes=[f"w{i % 3}"]) for i in range(8)
        ]
    for rec in histories:
        window.add(rec)


QUERIES = [
    dict(reads=["x"], writes=["q"], snapshot=0),
    dict(reads=["q"], writes=["x"], snapshot=0),
    dict(reads=["a"], writes=["b"], partitions=("p0", "p1"), snapshot=0),
    dict(reads=["q"], writes=["x"], partitions=("p0", "p1"), snapshot=2),
    dict(reads=["q"], writes=["y", "z"], partitions=("p0", "p1"), snapshot=1),
    dict(reads=["x", "y"], writes=["c"], snapshot=4),
    dict(reads=["m"], writes=["n"], snapshot=6),
    dict(reads=["a", "b", "c"], writes=[], snapshot=0, bloom=True),
    dict(reads=["nope"], writes=[], snapshot=0, bloom=True),
    dict(reads=["q"], writes=["e"], partitions=("p0", "p1"), snapshot=3),
    dict(reads=["q"], writes=["z"], partitions=("p0", "p1"), snapshot=0, bloom=True),
]


class TestConfig:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardExecConfig(num_shards=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigurationError):
            ShardExecConfig(hash_seed=-1)

    def test_with_shard_executor_helper(self):
        assert SdurConfig().shardexec is None
        config = SdurConfig().with_shard_executor(ShardExecConfig(num_shards=8))
        assert config.shardexec.num_shards == 8
        assert SdurConfig().with_shard_executor().shardexec == ShardExecConfig()


class TestShardOf:
    def test_stable_and_in_range(self):
        for key in ("a", "0/k3", "user:42", ""):
            for num in (1, 2, 7, 64):
                first = shard_of(key, num)
                assert 0 <= first < num
                assert shard_of(key, num) == first  # process-independent CRC

    def test_seed_changes_placement(self):
        keys = [f"k{i}" for i in range(64)]
        assert [shard_of(k, 8, 0) for k in keys] != [shard_of(k, 8, 5) for k in keys]

    def test_covers_all_shards(self):
        hit = {shard_of(f"k{i}", 4) for i in range(100)}
        assert hit == {0, 1, 2, 3}


class TestVerdictEquivalence:
    """ShardedCertifier ≡ IndexedCertifier on every query, shard count,
    and seed — including bloom records owned by one shard and probed
    with write keys that hash elsewhere (the cross-shard case)."""

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("hash_seed", [0, 17])
    @pytest.mark.parametrize("capacity_stress", [False, True])
    def test_certify_matches(self, num_shards, hash_seed, capacity_stress):
        capacity = 6 if capacity_stress else 64
        ref_window = CertificationWindow(capacity)
        reference = IndexedCertifier(ref_window, PendingList())
        certifier, window, _pending = sharded(
            num_shards, capacity=capacity, hash_seed=hash_seed
        )
        fill(ref_window, capacity_stress)
        fill(window, capacity_stress)
        for seq, kwargs in enumerate(QUERIES):
            txn = proj(seq, **kwargs)
            assert certifier.certify(txn) == reference.certify(txn), kwargs

    @pytest.mark.parametrize("num_shards", [1, 3, 8])
    def test_pending_queries_match(self, num_shards):
        ref = IndexedCertifier(CertificationWindow(64), PendingList())
        certifier, _window, pending = sharded(num_shards)
        entries = [
            proj(100, reads=["a"], writes=["x"], partitions=("p0", "p1")),
            proj(101, reads=["y"], writes=["b"], bloom=True, partitions=("p0", "p1")),
            proj(102, reads=["c"], writes=["c"]),
        ]
        for p in entries:
            entry = PendingTxn(proj=p, rt=0, delivered_at=0.0)
            ref.pending.append(entry)
            pending.append(entry)
        for seq, kwargs in enumerate(QUERIES):
            txn = proj(200 + seq, **kwargs)
            assert certifier.outcome_conflicts(txn) == ref.outcome_conflicts(txn)
            assert certifier.find_reorder_position(txn, 5) == ref.find_reorder_position(
                txn, 5
            )

    @pytest.mark.parametrize("num_shards", [2, 7])
    def test_precertify_batch_matches_single_certify(self, num_shards):
        """Phase 1's conflict vector over a static window must equal the
        per-transaction verdicts (no in-batch effects here)."""
        certifier, window, _pending = sharded(num_shards)
        fill(window)
        projs = [proj(seq, **kwargs) for seq, kwargs in enumerate(QUERIES)]
        plan = certifier.precertify_batch(projs)
        for txn, conflict in zip(projs, plan.conflicts):
            assert conflict is (certifier.certify(txn) is False)
        assert plan.total_units == sum(plan.shard_units)
        assert plan.total_units > 0


class TestEvictionSlicing:
    def test_bloom_record_retires_with_its_shard(self):
        """A bloom digest is owned by shard version % N and must be
        popped there — and only there — when its record is evicted."""
        certifier, window, _pending = sharded(4, capacity=3)
        for version in range(1, 8):
            window.add(record(version, reads=[f"r{version}"], writes=[f"w{version}"], bloom=True))
        live = {version % 4 for version in range(5, 8)}  # capacity 3: 5..7 live
        for shard_id, shard in enumerate(certifier.shards):
            assert shard.has_bloom_records() == (shard_id in live)

    def test_floor_masks_evicted_state(self):
        certifier, window, _pending = sharded(2, capacity=2)
        fill(window)  # 6 records through a 2-slot window: floor = 4
        assert certifier.certify(proj(1, reads=["x"], snapshot=window.floor - 1)) is None
        assert certifier.certify(proj(2, reads=["q"], snapshot=window.floor)) in (
            True,
            False,
        )


class TestServerIntegration:
    def test_checkpoint_restore_rebuilds_shards(self):
        """Shard indices carry no checkpoint state: a restore rebuilds
        them from the window, and the restored server's trajectory stays
        bit-identical to a restored serial server's."""
        shardexec = ShardExecConfig(num_shards=4)
        batching = BatchingConfig(max_batch=4)
        warmup = concretize(
            [("txn", False, False, [i % 6], [(i + 1) % 6], 0) for i in range(10)]
        )
        tail = concretize(
            [("txn", False, bool(i % 2), [i % 6], [(i + 2) % 6], i % 8) for i in range(12)]
        )

        def run(shard_config):
            first = replay(warmup, shard_config, batching, set(), 0)
            checkpoint = first.take_checkpoint()
            second = build_server(shard_config, batching, 0)
            second.restore_checkpoint(checkpoint)
            for instance, value in enumerate(tail):
                second.on_adeliver(len(warmup) + instance, value)
            second.flush_batches()
            return second

        serial = run(None)
        restored = run(shardexec)
        assert state_of(restored) == state_of(serial)
        assert isinstance(restored.certifier, ShardedCertifier)
        assert restored.stats.shard_certify_calls > 0

    def test_migration_install_rebuilds_shards(self):
        """A split install replaces the window wholesale; the certifier
        must be rebuilt — still sharded — over the new one."""
        server = build_server(ShardExecConfig(num_shards=4), None, 0)
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
        assert isinstance(server.certifier, ShardedCertifier)
        assert server.certifier is not before
        assert server.certifier.window is server.window
        assert server.window.floor == 7
        stale = proj(1, reads=["0/k0"], snapshot=6)
        assert server.certifier.certify(stale) is None
