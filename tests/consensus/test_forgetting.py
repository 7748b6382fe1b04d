"""A replica forgets what every member of its group has delivered.

Each ``Accepted`` reports the acceptor's ``next_to_deliver``; the leader
stamps every ``Accept`` with the group floor built from those reports,
and every replica drops its log entries below it (PROTOCOL.md §4, "What
a replica forgets").  The log therefore holds a bounded suffix while all
members report, grows while one is silent, and shrinks back once it has caught
up.  A forgotten instance is never recreated, and a new leader
never mistakes one for a hole.
"""

from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from repro.consensus.messages import Accept, Accepted, Chosen, PaxosNoop
from repro.consensus.replica import PaxosConfig, PaxosReplica
from repro.core.config import SdurConfig
from repro.harness.driver import ClosedLoopDriver
from repro.metrics.collector import MetricsCollector
from repro.workload.microbench import MicroBenchmark
from tests.conftest import make_cluster, run_txn, update_program
from tests.oracles.stub_runtime import StubRuntime


#: Most entries a log holds while every member reports: the few
#: instances in flight.
BOUND = 4


def log_sizes(cluster) -> dict[str, int]:
    return {name: len(h.replica.log._instances) for name, h in cluster.servers.items()}


def commit_locals(cluster, client, count, partitions=(0, 1)):
    for i in range(count):
        p = partitions[i % len(partitions)]
        keys = [f"{p}/a{i % 97}", f"{p}/b{i % 89}"]
        assert run_txn(cluster, client, update_program(keys)).committed


class TestPlateau:
    def test_the_log_stays_flat_shrinks_back_after_a_silent_follower(self):
        cluster = make_cluster(2, config=SdurConfig(gossip_interval=None))
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        commit_locals(cluster, client, 200)
        early = log_sizes(cluster)
        commit_locals(cluster, client, 1_800)
        late = log_sizes(cluster)
        delivered = {n: h.replica.log.next_to_deliver for n, h in cluster.servers.items()}
        assert min(delivered.values()) >= 1_000  # 2 000 commits, two partitions
        for name in early:
            assert late[name] <= BOUND and abs(late[name] - early[name]) <= 2, (early, late)

        # s3, a follower of p0, hears nothing: the floor stops at its last
        # report, so p0's leader and its other follower keep everything.
        for peer in ("s1", "s2"):
            cluster.world.network.cut_link("s3", peer)
        commit_locals(cluster, client, 300, partitions=(0,))
        grown = log_sizes(cluster)
        assert grown["s1"] >= 300 and grown["s2"] >= 300, grown
        assert grown["s4"] <= BOUND  # p1 is untouched

        # Healed, s3 catches up through LearnRequest, reports its cursor
        # in its next Accepted, and the next Accepts let everyone forget.
        for peer in ("s1", "s2"):
            cluster.world.network.heal_link("s3", peer)
        commit_locals(cluster, client, 2, partitions=(0,))
        cluster.world.run_for(1.5)
        commit_locals(cluster, client, 4, partitions=(0,))
        servers = cluster.servers
        assert servers["s3"].replica.log.next_to_deliver == servers["s1"].replica.log.next_to_deliver
        assert max(log_sizes(cluster).values()) <= BOUND, log_sizes(cluster)


def stub_group(count: int, silent: str | None = None):
    """Three replicas on hand-driven runtimes after ``count`` proposals,
    each its own instance (``StubRuntime`` has no loop turns); every
    message to or from ``silent`` is lost once Phase 1 is over."""
    members = list("abc")
    runtimes = {m: StubRuntime(m) for m in members}
    replicas = {
        m: PaxosReplica(runtimes[m], "g", members, PaxosConfig(static_leader="a"))
        for m in members
    }

    def pump(lost=None):
        while any(runtime.sent for runtime in runtimes.values()):
            for src, runtime in runtimes.items():
                sent, runtime.sent = runtime.sent, []
                for dst, msg in sent:
                    if lost not in (src, dst):
                        replicas[dst].handle(src, msg)

    for replica in replicas.values():
        replica.start()
    pump()  # Phase 1
    for i in range(count):
        replicas["a"].propose(f"v{i}")
        pump(silent)
    return runtimes, replicas


class TestForgottenInstances:
    def test_late_messages_for_a_forgotten_instance_change_and_send_nothing_new(self):
        runtimes, replicas = stub_group(100)
        leader, follower = replicas["a"], replicas["b"]
        ballot = leader._my_ballot
        for replica in replicas.values():
            assert replica.log.next_to_deliver == 100
            assert replica.log.is_forgotten(0) and 0 not in replica.log._instances
            assert len(replica.log._instances) <= BOUND
        timers = len(runtimes["b"].timers)

        # A duplicate Accept is answered as before (with the cursor), and
        # leaves no entry behind.
        follower.handle("a", Accept(group="g", ballot=ballot, instance=0, value="v0", floor=0))
        assert runtimes["b"].sent == [
            ("a", Accepted(group="g", ballot=ballot, instance=0, next_to_deliver=100))
        ]
        runtimes["b"].sent.clear()
        # The relay naming it, and the value-bearing answer to a
        # LearnRequest: already delivered, so nothing to ask and nothing
        # to record.
        follower.handle("a", Chosen(group="g", instance=0, ballot=ballot))
        follower.handle("a", Chosen(group="g", instance=0, value="v0"))
        assert runtimes["b"].sent == [] and len(runtimes["b"].timers) == timers
        assert 0 not in follower.log._instances and follower.log.next_to_deliver == 100

        # A late vote at the leader counts toward nothing.
        leader.handle("c", Accepted(group="g", ballot=ballot, instance=0, next_to_deliver=100))
        assert runtimes["a"].sent == [] and 0 not in leader.log._instances

    def test_a_member_never_heard_from_pins_the_floor_at_zero(self):
        _, replicas = stub_group(5, silent="c")
        leader = replicas["a"]
        assert leader.log.next_to_deliver == 5
        assert not leader.log.is_forgotten(0) and len(leader.log._instances) == 5


class TestLeaderChangeAfterForgetting:
    def test_a_new_leader_noops_no_delivered_instance(self):
        """Elected leaders; p0's leader crashes mid-load after its group
        has forgotten most of what it delivered."""
        cluster = make_cluster(
            2,
            config=SdurConfig(notify_all_replicas=True, vote_timeout=2.0),
            paxos_config=PaxosConfig(
                static_leader=None, heartbeat_interval=0.05, suspect_timeout=0.4
            ),
            seed=11,
        )
        p0 = [n for n, h in cluster.servers.items() if h.partition == "p0"]
        delivered: dict[str, set[int]] = {n: set() for n in p0}
        noops: set[int] = set()
        for name in p0:
            handle = cluster.servers[name]

            def on_deliver(instance, value, inner=handle.replica.on_deliver, seen=delivered[name]):
                seen.add(instance)
                inner(instance, value)

            def send(dst, msg, inner=handle.replica.runtime.send):
                if isinstance(msg, Accept) and isinstance(msg.value, PaxosNoop):
                    noops.add(msg.instance)
                inner(dst, msg)

            handle.replica.on_deliver = on_deliver
            handle.replica.runtime.send = send
        recorder = cluster.attach_recorder()
        collector = MetricsCollector()
        drivers = [
            ClosedLoopDriver(
                cluster.add_client(commit_timeout=1.0, read_timeout=0.5),
                MicroBenchmark(2, home, 0.1, items_per_partition=500),
                collector,
                recorder,
            )
            for home in (0, 1)
            for _ in range(3)
        ]
        cluster.start()
        for driver in drivers:
            driver.start()
        cluster.world.run(until=3.0)
        [old] = [n for n in p0 if cluster.servers[n].replica.is_leader]
        log = cluster.servers[old].replica.log
        assert log.next_to_deliver > 200 and log.is_forgotten(100)
        committed_before = sum(r.committed for r in collector.results)
        cluster.world.crash(old)
        cluster.world.run(until=7.0)
        for driver in drivers:
            driver.stop()
        cluster.world.run(until=10.0)

        survivors = [n for n in p0 if n != old]
        [new] = [n for n in survivors if cluster.servers[n].replica.is_leader]
        assert sum(r.committed for r in collector.results) > committed_before + 50
        # Every noop the new leader proposed fills a real hole: no replica
        # delivered a value at that instance.
        assert noops.isdisjoint(set().union(*delivered.values()))
        assert cluster.servers[new].replica.log.next_to_deliver > log.next_to_deliver
        check_serializability(recorder).raise_if_failed()
        replica_agreement(recorder).raise_if_failed()
