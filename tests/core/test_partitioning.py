"""Unit tests for key -> partition mapping."""

import pytest

from repro.core.partitioning import PartitionMap
from repro.errors import ConfigurationError


class TestHashed:
    def test_partition_ids(self):
        pmap = PartitionMap(3)
        assert [pmap.partition_name(i) for i in range(3)] == ["p0", "p1", "p2"]
        assert {pmap.partition_of(f"key{i}") for i in range(100)} == {"p0", "p1", "p2"}

    def test_stable_across_instances(self):
        a = PartitionMap(4)
        b = PartitionMap(4)
        keys = [f"key{i}" for i in range(100)]
        assert [a.partition_of(k) for k in keys] == [b.partition_of(k) for k in keys]

    def test_roughly_uniform(self):
        pmap = PartitionMap(4)
        counts = {}
        for i in range(4000):
            counts[pmap.partition_of(f"key{i}")] = counts.get(pmap.partition_of(f"key{i}"), 0) + 1
        assert all(count > 500 for count in counts.values())

    def test_at_least_one_partition(self):
        with pytest.raises(ConfigurationError):
            PartitionMap(0)


class TestByIndex:
    def test_numeric_prefix_controls_placement(self):
        pmap = PartitionMap.by_index(2)
        assert pmap.partition_of("0/objA") == "p0"
        assert pmap.partition_of("1/objA") == "p1"
        assert pmap.partition_of("2/objA") == "p0"  # modulo

    def test_partitions_of_deduplicates_and_sorts(self):
        pmap = PartitionMap.by_index(3)
        assert pmap.partitions_of(["2/a", "0/b", "2/c"]) == ("p0", "p2")

    def test_bad_assignment_detected(self):
        pmap = PartitionMap(2, assign=lambda key: 7)
        with pytest.raises(ConfigurationError):
            pmap.partition_of("x")
