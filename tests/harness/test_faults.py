"""Unit tests for fault schedules and the throughput timeline."""

import pytest

from repro.core.client import TxnResult
from repro.core.transaction import Outcome, TxnId
from repro.errors import ConfigurationError
from repro.harness.faults import Fault, FaultSchedule, throughput_timeline
from tests.conftest import make_cluster, run_txn, update_program


class TestFaultValidation:
    def test_crash_needs_a_node(self):
        with pytest.raises(ConfigurationError):
            Fault(at=1.0, kind="crash", target=("a", "b"))

    def test_cut_needs_a_link(self):
        with pytest.raises(ConfigurationError):
            Fault(at=1.0, kind="cut", target="a")

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            Fault(at=-1.0, kind="crash", target="a")

    def test_split_needs_a_partition(self):
        with pytest.raises(ConfigurationError):
            Fault(at=1.0, kind="split", target=("p0", "p1"))


class TestSchedule:
    def test_crash_fires_at_scheduled_time(self):
        cluster = make_cluster(num_partitions=1)
        cluster.start()
        schedule = FaultSchedule().crash(2.0, "s2")
        schedule.arm(cluster)
        cluster.world.run_for(1.0)
        assert "s2" not in cluster.world.network._crashed
        cluster.world.run_for(2.0)
        assert "s2" in cluster.world.network._crashed
        assert schedule.fired == [(2.0, "crash", "s2")]

    def test_cut_and_heal(self):
        cluster = make_cluster(num_partitions=1)
        cluster.start()
        schedule = FaultSchedule().cut(1.0, "s1", "s2").heal(2.0, "s1", "s2")
        schedule.arm(cluster)
        cluster.world.run_for(1.5)
        assert cluster.world.network.link_is_cut("s1", "s2")
        cluster.world.run_for(1.0)
        assert not cluster.world.network.link_is_cut("s1", "s2")

    def test_cluster_still_serves_around_scheduled_follower_crash(self):
        cluster = make_cluster(num_partitions=1)
        cluster.seed({"0/x": 0})
        client = cluster.add_client()
        cluster.start()
        FaultSchedule().crash(0.5, "s3").arm(cluster)
        cluster.world.run_for(1.0)
        assert run_txn(cluster, client, update_program(["0/x"])).committed


class TestScheduleEdges:
    def test_heal_of_never_cut_link_is_a_noop(self):
        cluster = make_cluster(num_partitions=1)
        cluster.start()
        schedule = FaultSchedule().heal(1.0, "s1", "s2")
        schedule.arm(cluster)
        cluster.world.run_for(2.0)
        assert schedule.fired == [(1.0, "heal", ("s1", "s2"))]
        assert not cluster.world.network.link_is_cut("s1", "s2")

    def test_two_faults_at_the_same_instant_both_fire(self):
        cluster = make_cluster(num_partitions=1)
        cluster.start()
        schedule = FaultSchedule().crash(1.0, "s2").cut(1.0, "s1", "s3")
        schedule.arm(cluster)
        cluster.world.run_for(2.0)
        assert len(schedule.fired) == 2
        assert {kind for _, kind, _ in schedule.fired} == {"crash", "cut"}
        assert "s2" in cluster.world.network._crashed
        assert cluster.world.network.link_is_cut("s1", "s3")

    def test_crash_of_already_crashed_node_is_idempotent(self):
        cluster = make_cluster(num_partitions=1)
        cluster.seed({"0/x": 0})
        client = cluster.add_client()
        cluster.start()
        schedule = FaultSchedule().crash(0.5, "s3").crash(1.0, "s3")
        schedule.arm(cluster)
        cluster.world.run_for(2.0)
        assert [kind for _, kind, _ in schedule.fired] == ["crash", "crash"]
        assert "s3" in cluster.world.network._crashed
        # The rest of the cluster is unaffected by the double crash.
        assert run_txn(cluster, client, update_program(["0/x"])).committed


def result_at(finished, committed=True):
    return TxnResult(
        tid=TxnId("c", int(finished * 1000)),
        outcome=Outcome.COMMIT if committed else Outcome.ABORT,
        started=finished - 0.01,
        finished=finished,
        is_global=False,
        read_only=False,
        partitions=("p0",),
    )


class TestThroughputTimeline:
    def test_buckets_count_commits(self):
        results = [result_at(0.5), result_at(1.5), result_at(1.6), result_at(2.5)]
        timeline = throughput_timeline(results, start=0.0, end=3.0, bucket=1.0)
        assert timeline == [(0.0, 1.0), (1.0, 2.0), (2.0, 1.0)]

    def test_aborts_excluded(self):
        results = [result_at(0.5), result_at(0.6, committed=False)]
        timeline = throughput_timeline(results, start=0.0, end=1.0)
        assert timeline == [(0.0, 1.0)]

    def test_out_of_range_ignored(self):
        results = [result_at(5.0)]
        timeline = throughput_timeline(results, start=0.0, end=2.0)
        assert all(tps == 0 for _, tps in timeline)

    def test_bucket_scaling(self):
        results = [result_at(0.1), result_at(0.2)]
        timeline = throughput_timeline(results, start=0.0, end=0.5, bucket=0.5)
        assert timeline == [(0.0, 4.0)]  # 2 commits / 0.5s

    def test_invalid_bucket(self):
        with pytest.raises(ConfigurationError):
            throughput_timeline([], 0.0, 1.0, bucket=0.0)
