"""Unit tests for the atomic-broadcast facade."""

import pytest

from repro.consensus.abcast import AbcastFabric
from repro.consensus.replica import PaxosConfig, PaxosReplica
from repro.errors import ConfigurationError


def build_two_partitions(world):
    """Two groups p0={a1,a2,a3}, p1={b1,b2,b3} with fabrics on every node."""
    groups = {"p0": ["a1", "a2", "a3"], "p1": ["b1", "b2", "b3"]}
    hints = {"p0": "a1", "p1": "b1"}
    delivered = {p: {m: [] for m in members} for p, members in groups.items()}
    fabrics = {}
    replicas = []
    for partition, members in groups.items():
        for member in members:
            runtime = world.runtime_for(member)
            replica = PaxosReplica(
                runtime,
                partition,
                members,
                PaxosConfig(static_leader=members[0]),
                on_deliver=lambda i, v, p=partition, m=member: delivered[p][m].append(v),
            )
            runtime.listen(lambda src, msg, r=replica: r.handle(src, msg))
            fabric = AbcastFabric(runtime, groups, hints)
            fabric.attach_replica(partition, replica)
            fabrics[member] = fabric
            replicas.append(replica)
    for replica in replicas:
        replica.start()
    return fabrics, delivered


class TestFabric:
    def test_local_abcast_goes_through_own_replica(self, world):
        fabrics, delivered = build_two_partitions(world)
        world.run(until=1.0)
        fabrics["a2"].abcast("p0", "local-value")
        world.run(until=2.0)
        assert all(delivered["p0"][m] == ["local-value"] for m in delivered["p0"])
        assert all(delivered["p1"][m] == [] for m in delivered["p1"])

    def test_remote_abcast_reaches_only_target_partition(self, world):
        fabrics, delivered = build_two_partitions(world)
        world.run(until=1.0)
        fabrics["a1"].abcast("p1", "cross-partition")
        world.run(until=2.0)
        assert all(delivered["p1"][m] == ["cross-partition"] for m in delivered["p1"])
        assert all(delivered["p0"][m] == [] for m in delivered["p0"])

    def test_unknown_partition_rejected(self, world):
        fabrics, _ = build_two_partitions(world)
        with pytest.raises(ConfigurationError):
            fabrics["a1"].abcast("p9", "value")

    def test_bad_hint_rejected(self, world):
        runtime = world.runtime_for("x")
        with pytest.raises(ConfigurationError):
            AbcastFabric(runtime, {"p0": ["a"]}, {"p0": "not-a-member"})

    def test_hint_for_unknown_partition_rejected(self, world):
        runtime = world.runtime_for("x")
        with pytest.raises(ConfigurationError):
            AbcastFabric(runtime, {"p0": ["a"]}, {"p9": "a"})

    def test_attach_replica_requires_membership(self, world):
        fabrics, _ = build_two_partitions(world)
        replica = fabrics["a1"].local_replicas["p0"]
        with pytest.raises(ConfigurationError):
            fabrics["a1"].attach_replica("p1", replica)

    def test_coordinator_tracks_replica_leader_view(self, world):
        fabrics, _ = build_two_partitions(world)
        world.run(until=1.0)
        assert fabrics["a2"].coordinator_of("p0") == "a1"
        assert fabrics["a2"].coordinator_of("p1") == "b1"  # hint for remote
