"""Unit tests for cluster assembly and the experiment runner."""

import pytest

from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.errors import ConfigurationError
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import ClosedLoopDriver, run_experiment, run_open_loop
from repro.metrics.collector import MetricsCollector
from repro.workload.microbench import MicroBenchmark
from repro.workload.overload import ConstantRate
from tests.conftest import make_cluster, run_txn, update_program


class TestBuild:
    def test_partition_count_must_match(self):
        with pytest.raises(ConfigurationError):
            build_cluster(lan_deployment(2), PartitionMap.by_index(3), SdurConfig())

    def test_every_server_wired(self):
        cluster = make_cluster(num_partitions=2)
        assert set(cluster.servers) == {"s1", "s2", "s3", "s4", "s5", "s6"}
        for handle in cluster.servers.values():
            assert handle.replica.group_id == handle.partition
            assert handle.server.partition == handle.partition

    def test_leaders_pinned_to_preferred(self):
        cluster = make_cluster(num_partitions=2)
        cluster.start()
        cluster.world.run_for(0.5)
        assert cluster.servers["s1"].replica.is_leader
        assert not cluster.servers["s2"].replica.is_leader
        assert cluster.servers["s4"].replica.is_leader

    def test_seed_splits_by_partition(self):
        cluster = make_cluster(num_partitions=2)
        cluster.seed({"0/a": 1, "1/b": 2})
        assert cluster.servers["s1"].server.store.read_latest("0/a")[1] == 1
        assert "1/b" not in cluster.servers["s1"].server.store
        assert cluster.servers["s4"].server.store.read_latest("1/b")[1] == 2

    def test_seed_after_start_rejected(self):
        cluster = make_cluster(num_partitions=1)
        cluster.start()
        with pytest.raises(ConfigurationError):
            cluster.seed({"0/a": 1})

    def test_start_idempotent(self):
        cluster = make_cluster(num_partitions=1)
        cluster.start()
        cluster.start()
        cluster.world.run_for(0.2)

    def test_server_stats_snapshot(self):
        cluster = make_cluster(num_partitions=1)
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        run_txn(cluster, client, update_program(["0/x"]))
        stats = cluster.server_stats()
        assert stats["s1"]["committed_local"] == 1


class TestDriver:
    def test_closed_loop_reissues_until_stopped(self):
        cluster = make_cluster(num_partitions=1)
        client = cluster.add_client()
        cluster.start()
        collector = MetricsCollector()
        driver = ClosedLoopDriver(
            client,
            MicroBenchmark(1, 0, 0.0, items_per_partition=100),
            collector,
        )
        driver.start()
        cluster.world.run_for(2.0)
        driver.stop()
        in_flight_allowance = 1
        cluster.world.run_for(1.0)
        assert driver.issued > 10
        assert len(collector) >= driver.issued - in_flight_allowance

    def test_run_experiment_windows(self):
        cluster = make_cluster(num_partitions=1)
        client = cluster.add_client()
        run = run_experiment(
            cluster,
            [(client, MicroBenchmark(1, 0, 0.0, items_per_partition=100))],
            warmup=0.5,
            measure=2.0,
            drain=0.5,
        )
        assert run.window_start == 0.5
        assert run.window_end == 2.5
        summary = run.summary()
        assert summary.committed > 0
        # Results that finished during warm-up are excluded.
        warm = [r for r in run.collector.results if r.finished < 0.5]
        assert len(run.collector.in_window(0.5, 2.5)) == len(run.collector.results) - len(
            warm
        ) - len([r for r in run.collector.results if r.finished > 2.5])

    def test_record_history_attaches_recorder(self):
        cluster = make_cluster(num_partitions=1)
        client = cluster.add_client()
        run = run_experiment(
            cluster,
            [(client, MicroBenchmark(1, 0, 0.0, items_per_partition=100))],
            warmup=0.2,
            measure=1.0,
            record_history=True,
        )
        assert run.recorder is not None
        assert run.recorder.commits


class TestExperimentRunReadsTheCluster:
    """Server counters and traces come from the cluster the run holds,
    not from copies in the collector — closed and open loop alike."""

    @staticmethod
    def _runs(config=None):
        workload = MicroBenchmark(1, 0, 0.0, items_per_partition=100)
        closed_cluster = make_cluster(num_partitions=1, config=config)
        yield run_experiment(
            closed_cluster, [(closed_cluster.add_client(), workload)], warmup=0.2, measure=1.0
        )
        open_cluster = make_cluster(num_partitions=1, config=config)
        yield run_open_loop(
            open_cluster,
            [(open_cluster.add_client(), workload, ConstantRate(50.0))],
            warmup=0.2,
            measure=1.0,
        )

    def test_counter_is_the_end_of_run_total_across_servers(self):
        for run in self._runs():
            committed = run.counter("committed_local")
            assert committed == sum(
                stats["committed_local"] for stats in run.cluster.server_stats().values()
            )
            # Three replicas each commit what the one client saw commit.
            assert committed == 3 * len([r for r in run.collector.results if r.committed])
            assert run.counter("no_such_counter") == 0
            # A snapshot: driving the cluster further does not move it.
            client = next(iter(run.cluster.clients.values()))
            assert run_txn(run.cluster, client, update_program(["0/k1"])).committed
            run.cluster.world.run_for(0.5)
            assert run.counter("committed_local") == committed

    def test_traces_are_built_from_the_cluster_recorder(self):
        for run in self._runs(SdurConfig(tracing=True)):
            traces = run.traces()
            assert set(traces) == {r.tid for r in run.collector.results}
            assert all(trace.find("client.done") for trace in traces.values())
        for run in self._runs():
            assert run.traces() == {}  # tracing off: nothing to build
