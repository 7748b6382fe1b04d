"""Classic DUR baseline: behaviour and equivalence with one-partition SDUR."""

import pytest

from repro.baseline.dur import build_classic_dur, classic_dur_deployment
from repro.checker.serializability import check_serializability
from repro.core.config import SdurConfig, ServiceCosts
from repro.errors import ConfigurationError
from repro.workload.microbench import MicroBenchmark
from repro.harness.driver import run_experiment
from tests.conftest import run_txn, update_program


class TestDeployment:
    def test_single_group_full_replication(self):
        deployment = classic_dur_deployment(5)
        assert deployment.partition_ids == ["p0"]
        assert len(deployment.directory.servers_of("p0")) == 5

    def test_needs_at_least_one_server(self):
        with pytest.raises(ConfigurationError):
            classic_dur_deployment(0)


class TestBehaviour:
    def test_commits_and_replicates_everywhere(self):
        cluster = build_classic_dur(3, seed=1, intra_delay=0.001)
        cluster.seed({"x": 0})
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        for _ in range(5):
            assert run_txn(cluster, client, update_program(["x"])).committed
        for handle in cluster.servers.values():
            assert handle.server.store.read_latest("x")[1] == 5

    def test_no_transaction_is_global(self):
        cluster = build_classic_dur(3, seed=1, intra_delay=0.001)
        cluster.seed({"x": 0, "y": 0})
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        result = run_txn(cluster, client, update_program(["x", "y"]))
        assert result.committed
        assert not result.is_global
        stats = next(iter(cluster.servers.values())).server.stats
        assert stats.committed_global == 0

    def test_conflicts_still_abort(self):
        cluster = build_classic_dur(3, seed=1, intra_delay=0.001)
        cluster.seed({"x": 0, "y": 0})
        c1, c2 = cluster.add_client(), cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        done = []
        c1.execute(update_program(["x", "y"]), done.append)
        c2.execute(update_program(["x", "y"]), done.append)
        cluster.world.run_for(2.0)
        assert sorted(r.outcome.value for r in done) == ["abort", "commit"]

    def test_history_serializable(self):
        cluster = build_classic_dur(3, seed=4, intra_delay=0.001)
        cluster.seed({f"k{i}": 0 for i in range(6)})
        clients = [cluster.add_client() for _ in range(3)]
        cluster.start()
        recorder = cluster.attach_recorder()
        cluster.world.run_for(0.5)
        rng = cluster.world.rng.stream("w")
        done = []
        for i in range(30):
            keys = rng.sample([f"k{i}" for i in range(6)], 2)
            clients[i % 3].execute(update_program(keys), done.append)
            cluster.world.run_for(0.01)
        cluster.world.run_for(3.0)
        for result in done:
            recorder.record_result(result)
        check_serializability(recorder).raise_if_failed()


class TestScalingCeiling:
    def test_more_replicas_do_not_raise_throughput(self):
        """The motivating observation for SDUR: classic DUR's throughput
        is flat in the number of replicas (every server certifies and
        applies everything)."""
        costs = ServiceCosts(certify=0.0005, apply=0.0005)

        def throughput(num_servers):
            cluster = build_classic_dur(
                num_servers, SdurConfig(costs=costs), seed=2, intra_delay=0.0005
            )
            pairs = []
            for _ in range(8):
                client = cluster.add_client()
                pairs.append(
                    (client, MicroBenchmark(1, 0, 0.0, items_per_partition=2000))
                )
            run = run_experiment(cluster, pairs, warmup=0.5, measure=3.0, drain=0.5)
            return run.summary().throughput

        small, large = throughput(3), throughput(9)
        assert large < small * 1.3, f"classic DUR scaled unexpectedly: {small} -> {large}"
