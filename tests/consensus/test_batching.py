"""Turn group commit: the Paxos leader opens one instance per loop turn.

On the simulator a turn is one simulated instant: every proposal the
leader takes in at the same instant shares one instance (PROTOCOL.md §4).
"""

import pytest

from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from repro.consensus.messages import Accept, Batch, ClientPropose
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.experiments.scalability import COSTS, LAN_DELTA
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import run_experiment
from repro.runtime.sim import SimWorld
from repro.workload.microbench import MicroBenchmark
from tests.consensus.test_replica import make_group, of_type, tap


def started(world, **kwargs):
    replicas, delivered = make_group(world, **kwargs)
    heard = {m: tap(world, m, replicas[m]) for m in replicas}
    for replica in replicas.values():
        replica.start()
    world.run(until=1.0)
    return replicas, delivered, heard


class TestBatching:
    def test_values_delivered_in_submission_order(self, world):
        """One instant's proposals are one ``Batch`` instance, unpacked
        in submission order at every replica."""
        replicas, delivered, heard = started(world)
        values = [f"v{i}" for i in range(10)]
        for value in values:
            replicas["a"].propose(value)
        world.run(until=2.0)
        [(_, accept)] = of_type(heard["b"], Accept)
        assert (accept.instance, accept.value) == (0, Batch(values=tuple(values)))
        assert all(delivered[m] == [(0, v) for v in values] for m in delivered)

    def test_batching_uses_fewer_instances(self, world):
        """Four turns of five proposals are four instances."""
        replicas, delivered, _ = started(world)
        for turn in range(4):
            for i in range(5):
                replicas["a"].propose((turn, i))
            world.run_for(0.0)  # the turn closes
        world.run(until=2.0)
        assert [v for _, v in delivered["c"]] == [(t, i) for t in range(4) for i in range(5)]
        assert [i for i, _ in delivered["c"]] == [t for t in range(4) for _ in range(5)]
        assert replicas["c"].log.next_to_deliver == 4

    def test_batching_reduces_message_count(self):
        def messages_for(one_turn: bool) -> int:
            world = SimWorld(seed=6)
            replicas, delivered, _ = started(world)
            baseline = world.network.messages_sent
            for i in range(50):
                replicas["a"].propose(i)
                if not one_turn:
                    world.run_for(0.0)
            world.run(until=3.0)
            assert [v for _, v in delivered["b"]] == list(range(50))
            return world.network.messages_sent - baseline

        assert messages_for(one_turn=True) < messages_for(one_turn=False) / 3

    def test_single_value_batch_not_wrapped(self, world):
        """A lone proposal goes out as a bare ``Accept`` (no ``Batch``
        envelope) in the instant it was made: closing the turn adds no
        latency."""
        replicas, delivered, heard = started(world)
        start = world.now
        replicas["a"].propose("solo")
        while not delivered["a"]:
            world.kernel.step()
        [(_, accept)] = of_type(heard["b"], Accept)
        assert accept.value == "solo"
        assert replicas["a"].log.state(0).chosen_value == "solo"
        assert world.now - start == pytest.approx(0.002)  # Accept, then Accepted

    def test_forwarded_proposals_also_batch(self, world):
        """Forwards sent in one instant land at the leader in one instant
        and share its instance."""
        replicas, delivered, heard = started(world)
        values = [f"fwd{i}" for i in range(6)]
        for value in values:
            replicas["b"].propose(value)
        world.run(until=2.0)
        assert [msg.value for _, msg in of_type(heard["a"], ClientPropose)] == values
        [(_, accept)] = of_type(heard["c"], Accept)
        assert accept.value == Batch(values=tuple(values))
        assert [v for _, v in delivered["c"]] == values

    def test_a_leader_that_crashes_with_a_full_turn_buffer_sends_no_accept(self, world):
        """The turn's close is a timer of the leader's node, so a crash in
        the same instant cancels it: nothing leaves, nothing is decided."""
        replicas, delivered, heard = started(world)
        for i in range(3):
            replicas["a"].propose(f"v{i}")
        world.crash("a")
        world.run(until=2.0)
        assert not of_type(heard["b"], Accept) and not of_type(heard["c"], Accept)
        assert not any(delivered.values())
        assert replicas["a"]._next_instance == 0


class TestBatchesInACluster:
    def test_an_s2_shaped_run_decides_batches_and_stays_serializable(self):
        """S2's shape, shortened: LAN, the CPU model, closed-loop clients
        with globals.  Proposals that coincide at a leader share an
        instance, and the checkers judge that path."""
        deployment = lan_deployment(2)
        cluster = build_cluster(
            deployment,
            PartitionMap.by_index(2),
            SdurConfig(costs=COSTS),
            seed=71,
            intra_delay=LAN_DELTA,
        )
        pairs = [
            (
                cluster.add_client(region=deployment.preferred_region[partition]),
                MicroBenchmark(2, int(partition[1:]), 0.2, items_per_partition=200),
            )
            for partition in deployment.partition_ids
            for _ in range(6)
        ]
        # The log forgets delivered instances, so collect the chosen values
        # as each leader delivers them.
        batches = []
        for handle in cluster.servers.values():
            replica = handle.replica

            def deliver(instance, value, *args, replica=replica, inner=replica._deliver):
                if replica.is_leader and isinstance(value, Batch):
                    batches.append(value)
                inner(instance, value, *args)

            replica._deliver = deliver
        run = run_experiment(
            cluster, pairs, warmup=0.2, measure=1.0, drain=1.0, record_history=True
        )
        assert batches and all(len(batch.values) >= 2 for batch in batches)
        assert run.summary().committed > 100
        check_serializability(run.recorder).raise_if_failed()
        replica_agreement(run.recorder, cluster.replica_counts()).raise_if_failed()
