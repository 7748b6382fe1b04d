"""Unit and property tests for the multiversion store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SnapshotTooOldError, StorageError
from repro.storage.mvstore import MultiVersionStore


class TestBasics:
    def test_missing_key_reads_as_initial(self):
        store = MultiVersionStore()
        assert store.read("x").value is None
        assert store.read("x").version == 0

    def test_apply_and_read_latest(self):
        store = MultiVersionStore()
        store.apply({"x": 1}, version=1)
        assert store.read_latest("x").value == 1
        assert store.current_version == 1

    def test_seed_loads_version_zero(self):
        store = MultiVersionStore()
        store.seed({"x": 10})
        assert store.read("x", snapshot=0).value == 10
        assert store.current_version == 0

    def test_seed_after_apply_rejected(self):
        store = MultiVersionStore()
        store.apply({"x": 1}, 1)
        with pytest.raises(StorageError):
            store.seed({"y": 2})

    def test_snapshot_read_sees_old_version(self):
        store = MultiVersionStore()
        store.apply({"x": 1}, 1)
        store.apply({"x": 2}, 2)
        store.apply({"x": 3}, 3)
        assert store.read("x", snapshot=1).value == 1
        assert store.read("x", snapshot=2).value == 2
        assert store.read("x", snapshot=3).value == 3

    def test_snapshot_between_versions_sees_most_recent_below(self):
        store = MultiVersionStore()
        store.apply({"x": 1}, 1)
        store.apply({"y": 9}, 2)  # x untouched at version 2
        store.apply({"x": 3}, 3)
        assert store.read("x", snapshot=2).value == 1

    def test_snapshot_zero_sees_only_seed(self):
        store = MultiVersionStore()
        store.seed({"x": "initial"})
        store.apply({"x": "new"}, 1)
        assert store.read("x", snapshot=0).value == "initial"

    def test_versions_must_increase(self):
        store = MultiVersionStore()
        store.apply({"x": 1}, 1)
        with pytest.raises(StorageError):
            store.apply({"x": 2}, 1)

    def test_empty_writeset_still_bumps_version(self):
        store = MultiVersionStore()
        store.apply({}, 1)
        assert store.current_version == 1

    def test_contains_and_len(self):
        store = MultiVersionStore()
        store.apply({"x": 1, "y": 2}, 1)
        assert "x" in store and "z" not in store
        assert len(store) == 2
        assert set(store.keys()) == {"x", "y"}


class TestGarbageCollection:
    def test_gc_keeps_latest_at_or_below_horizon(self):
        store = MultiVersionStore()
        for version in range(1, 6):
            store.apply({"x": version}, version)
        dropped = store.collect_garbage(3)
        assert dropped == 2  # versions 1, 2 dropped; 3 kept as horizon value
        assert store.read("x", snapshot=3).value == 3
        assert store.read("x", snapshot=5).value == 5

    def test_read_below_horizon_raises(self):
        store = MultiVersionStore()
        for version in range(1, 6):
            store.apply({"x": version}, version)
        store.collect_garbage(3)
        with pytest.raises(SnapshotTooOldError):
            store.read("x", snapshot=2)

    def test_gc_horizon_monotone(self):
        store = MultiVersionStore()
        store.apply({"x": 1}, 1)
        store.collect_garbage(1)
        with pytest.raises(StorageError):
            store.collect_garbage(0)

    def test_gc_on_untouched_keys_is_safe(self):
        store = MultiVersionStore()
        store.apply({"x": 1}, 1)
        store.apply({"y": 2}, 2)
        store.collect_garbage(2)
        assert store.read("x", snapshot=2).value == 1


class TestSharedSeed:
    """Keys seeded with one object share one version-0 record; reads,
    GC and checkpoints cannot tell."""

    def seeded(self):
        store = MultiVersionStore()
        listed = [1, 2]
        store.seed({"a": 0, "b": 0, "c": listed, "d": listed, "e": [1, 2]})
        return store

    def test_one_record_per_seeded_object(self):
        store = self.seeded()
        base = [store.versions_of(key)[0] for key in "abcde"]
        assert base[0] is base[1] and base[2] is base[3]
        assert base[3] is not base[4] and base[3] == base[4]

    def test_reads_gc_and_checkpoint_see_private_chains(self):
        store = self.seeded()
        store.apply({"a": 5}, 1)
        store.apply({"a": 6, "c": "new"}, 2)
        assert [store.read(key, 0).value for key in "abc"] == [0, 0, [1, 2]]
        assert [store.read(key, 2).value for key in "abcd"] == [6, 0, "new", [1, 2]]
        assert store.collect_garbage(2) == 3  # a: versions 0 and 1; c: version 0
        assert store.read("b", 2).value == 0 and store.read("d", 2).value == [1, 2]
        with pytest.raises(SnapshotTooOldError):
            store.read("b", 1)
        dump = store.dump()
        assert dump["a"] == [(2, 6)] and dump["b"] == [(0, 0)] and dump["c"] == [(2, "new")]
        restored = MultiVersionStore()
        restored.restore(dump, current_version=2, gc_horizon=store.gc_horizon)
        assert restored.dump() == dump
        assert all(restored.read(key, 2) == store.read(key, 2) for key in "abcde")


class TestProperties:
    @given(
        writes=st.lists(
            st.tuples(st.sampled_from("abcd"), st.integers(-100, 100)),
            min_size=1,
            max_size=30,
        )
    )
    def test_snapshot_reads_are_immutable_history(self, writes):
        """Once written at version v, key@v reads the same forever."""
        store = MultiVersionStore()
        expected: dict[tuple[str, int], int] = {}
        latest: dict[str, int] = {}
        for version, (key, value) in enumerate(writes, start=1):
            store.apply({key: value}, version)
            latest[key] = value
            for known_key, known_value in latest.items():
                expected[(known_key, version)] = known_value
        for (key, version), value in expected.items():
            assert store.read(key, snapshot=version).value == value

    @given(st.lists(st.sampled_from("ab"), min_size=1, max_size=20))
    def test_version_chain_sorted(self, keys):
        store = MultiVersionStore()
        for version, key in enumerate(keys, start=1):
            store.apply({key: version}, version)
        for key in set(keys):
            versions = [vv.version for vv in store.versions_of(key)]
            assert versions == sorted(versions)
