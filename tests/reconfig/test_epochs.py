"""Unit tests for epoch-versioned routing and split planning."""

import pytest

from repro.core.directory import ClusterDirectory
from repro.core.partitioning import PartitionMap
from repro.errors import ConfigurationError, ProtocolError
from repro.reconfig import (
    ConfigChange,
    SplitPartitionMap,
    VersionedRouting,
    directory_with_split,
    key_moves,
    moved_chains,
    plan_split,
)
from repro.reconfig.coordinator import allocate_server_names, next_partition_name


def two_partition_directory() -> ClusterDirectory:
    return ClusterDirectory(
        partitions={"p0": ["s1", "s2", "s3"], "p1": ["s4", "s5", "s6"]},
        preferred={"p0": "s1", "p1": "s4"},
    )


def make_routing() -> VersionedRouting:
    return VersionedRouting(two_partition_directory(), PartitionMap.by_index(2))


def split_change(routing: VersionedRouting | None = None) -> ConfigChange:
    return plan_split(routing or make_routing(), "p0")


class TestKeyMoves:
    def test_deterministic(self):
        assert key_moves("0/k1", "salt") == key_moves("0/k1", "salt")

    def test_salt_changes_the_half(self):
        keys = [f"0/k{i}" for i in range(200)]
        a = {k for k in keys if key_moves(k, "salt-a")}
        b = {k for k in keys if key_moves(k, "salt-b")}
        assert a != b

    def test_roughly_half_move(self):
        keys = [f"0/k{i}" for i in range(200)]
        moving = sum(1 for k in keys if key_moves(k, "salt"))
        assert 60 <= moving <= 140


class TestSplitPartitionMap:
    def test_moves_only_the_salted_half_of_the_source(self):
        base = PartitionMap.by_index(2)
        split = SplitPartitionMap(base, "p0", "p2", "s")
        keys = [f"{p}/k{i}" for p in range(2) for i in range(50)]
        for key in keys:
            before = base.partition_of(key)
            after = split.partition_of(key)
            if before == "p1":
                assert after == "p1"
            elif key_moves(key, "s"):
                assert after == "p2"
            else:
                assert after == "p0"

    def test_new_partition_name_must_be_dense(self):
        with pytest.raises(ConfigurationError):
            SplitPartitionMap(PartitionMap.by_index(2), "p0", "p7", "s")

    def test_splits_stack(self):
        base = PartitionMap.by_index(2)
        once = SplitPartitionMap(base, "p0", "p2", "a")
        twice = SplitPartitionMap(once, "p0", "p3", "b")
        assert twice.num_partitions == 4
        keys = [f"0/k{i}" for i in range(100)]
        assert {"p0", "p2", "p3"} <= {twice.partition_of(k) for k in keys}


class TestPlanSplit:
    def test_allocates_fresh_server_names(self):
        change = split_change()
        assert change.new_partition == "p2"
        assert change.new_members == ("s7", "s8", "s9")
        assert change.new_preferred == "s7"
        assert change.new_epoch == 1

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_split(make_routing(), "p9")

    def test_helpers(self):
        assert next_partition_name(PartitionMap.by_index(3)) == "p3"
        assert allocate_server_names(two_partition_directory(), 2) == ["s7", "s8"]


class TestVersionedRouting:
    def test_apply_advances_epoch_and_ownership(self):
        routing = make_routing()
        change = split_change(routing)
        assert routing.apply(change)
        assert routing.epoch == 1
        assert routing.ownership_epoch("p0") == 1
        assert routing.ownership_epoch("p2") == 1
        # p1's keyspace is untouched: old-epoch transactions stay valid.
        assert routing.ownership_epoch("p1") == 0
        assert routing.knows_partition("p2")
        assert routing.directory.servers_of("p2") == ["s7", "s8", "s9"]

    def test_apply_is_idempotent(self):
        routing = make_routing()
        change = split_change(routing)
        assert routing.apply(change)
        assert not routing.apply(change)
        assert routing.epoch == 1

    def test_epoch_gap_is_a_protocol_error(self):
        routing = make_routing()
        change = split_change(routing)
        future = ConfigChange(
            new_epoch=3,
            source=change.source,
            new_partition=change.new_partition,
            new_members=change.new_members,
            new_preferred=change.new_preferred,
            split_salt=change.split_salt,
        )
        with pytest.raises(ProtocolError):
            routing.apply(future)

    def test_apply_all_sorts_by_epoch(self):
        routing = make_routing()
        first = split_change(routing)
        preview = routing.fork()
        preview.apply(first)
        second = plan_split(preview, "p0")
        assert routing.apply_all([second, first])
        assert routing.epoch == 2

    def test_fork_is_independent(self):
        routing = make_routing()
        fork = routing.fork()
        fork.apply(split_change(fork))
        assert routing.epoch == 0
        assert not routing.knows_partition("p2")
        assert fork.epoch == 1

    def test_changes_since(self):
        routing = make_routing()
        change = split_change(routing)
        routing.apply(change)
        assert routing.changes_since(0) == (change,)
        assert routing.changes_since(1) == ()


class TestDirectoryWithSplit:
    def test_adds_partition_and_preferred(self):
        change = split_change()
        directory = directory_with_split(two_partition_directory(), change)
        assert directory.servers_of("p2") == ["s7", "s8", "s9"]
        assert directory.preferred_of("p2") == "s7"
        # The original partitions are untouched.
        assert directory.servers_of("p0") == ["s1", "s2", "s3"]


class TestMovedChains:
    def test_selects_only_moving_keys(self):
        split = SplitPartitionMap(PartitionMap.by_index(2), "p0", "p2", "s")
        dump = {f"0/k{i}": [(1, i)] for i in range(40)}
        dump["1/other"] = [(2, "stay")]
        moved = moved_chains(dump, split, "p2")
        assert moved
        assert "1/other" not in moved
        for key in moved:
            assert split.partition_of(key) == "p2"
        for key in set(dump) - set(moved):
            assert split.partition_of(key) != "p2"
