"""Delta gossip under lost ticks: detect the gap, resync, never split.

A server's gossip tick carries only the global commits since its previous
tick (docs/PROTOCOL.md §6).  These scenarios lose ticks on purpose — one
replica of each partition is cut off from the other partition while
cross-partition transfers keep committing — and check that the isolated
replica serves stale but consistent vectors while cut, asks for a resync
when the links heal, and catches up within two gossip intervals of it.
A partition created by a live split must converge on deltas alone.
"""

from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from repro.core.messages import CommitGossip
from repro.harness.faults import FaultSchedule
from repro.reconfig import key_moves
from tests.conftest import make_cluster, run_txn, update_program
from tests.integration.test_readonly import (
    INITIAL_BALANCE,
    account_keys,
    audit_program,
    transfer_program,
)

GOSSIP_INTERVAL = 0.05  # SdurConfig() default
ONE_WAY = 0.001  # make_cluster's intra_delay


def step_until(cluster, predicate, timeout):
    deadline = cluster.world.now + timeout
    while not predicate():
        assert cluster.world.now < deadline, "condition not reached in time"
        assert cluster.world.kernel.step(), "simulation ran dry"


class TestCutAndHeal:
    def test_isolated_replica_resyncs_and_never_serves_a_split_vector(self):
        cluster = make_cluster(num_partitions=2, seed=23)
        keys = account_keys(2)
        cluster.seed({key: INITIAL_BALANCE for key in keys})
        p0_servers = cluster.directory.servers_of("p0")
        p1_servers = cluster.directory.servers_of("p1")
        isolated = p1_servers[-1]  # a follower: p1 keeps its leader's links
        writers = [cluster.add_client() for _ in range(3)]
        auditor = cluster.add_client(session_server=isolated)
        cluster.start()
        recorder = cluster.attach_recorder()
        cluster.world.run_for(0.5)

        cut_at, heal_at = cluster.world.now + 0.3, cluster.world.now + 1.3
        schedule = FaultSchedule()
        for peer in p0_servers:
            schedule.cut(cut_at, isolated, peer).heal(heal_at, isolated, peer)
        for peer in p1_servers:
            schedule.cut(cut_at, p0_servers[-1], peer).heal(heal_at, p0_servers[-1], peer)
        schedule.arm(cluster)

        rng = cluster.world.rng.stream("resync-bank")
        transfers, sums = [], []

        def keep_transferring(client):
            def on_done(result):
                transfers.append(result)
                if cluster.world.now < heal_at + 1.0:
                    issue()

            def issue():
                src = rng.choice([k for k in keys if k.startswith("0/")])
                dst = rng.choice([k for k in keys if k.startswith("1/")])
                client.execute(transfer_program(src, dst), on_done)

            issue()

        def keep_auditing(result=None):
            if cluster.world.now < heal_at + 1.0:
                auditor.execute(audit_program(keys, sums), keep_auditing, read_only=True)

        for writer in writers:
            keep_transferring(writer)
        keep_auditing()

        server = cluster.servers[isolated].server
        source = cluster.servers[p0_servers[0]].server
        cluster.world.run_for(heal_at - cluster.world.now - 0.001)
        # Still cut: p0 moved on, the isolated replica's view of it did not.
        sc_at_heal = source.sc
        assert server.stats.gossip_resyncs == 0
        stale = server.snapshot_builder.vector()["p0"]
        assert stale < sc_at_heal

        # Healed: the next delta from p0 starts beyond the watermark.
        step_until(cluster, lambda: server.stats.gossip_resyncs >= 1, GOSSIP_INTERVAL * 1.5)
        cluster.world.run_for(2 * ONE_WAY)  # request out, reply back
        replied_at = cluster.world.now
        step_until(
            cluster,
            lambda: server.snapshot_builder.vector()["p0"] >= sc_at_heal,
            2 * GOSSIP_INTERVAL,
        )
        assert cluster.world.now - replied_at <= 2 * GOSSIP_INTERVAL

        cluster.world.run_for(5.0)
        for result in transfers:
            recorder.record_result(result)
        committed = [r for r in transfers if r.committed]
        assert len(committed) > 20
        total = INITIAL_BALANCE * len(keys)
        assert len(sums) > 20
        assert all(s == total for s in sums), f"torn snapshot: {set(sums)}"
        check_serializability(recorder).raise_if_failed()
        replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()

        # Repair was bounded and local: each cut-off replica asked each
        # remote sender at most once, and nobody else asked at all (their
        # watermarks were kept up by the replicas that stayed connected).
        resyncs = {n: h.server.stats.gossip_resyncs for n, h in cluster.servers.items()}
        cut_off = {isolated: len(p0_servers), p0_servers[-1]: len(p1_servers)}
        for node, count in resyncs.items():
            assert (1 <= count <= cut_off[node]) if node in cut_off else count == 0, resyncs
        # Everyone ends on the same, current vector.
        final = {n: h.server.snapshot_builder.vector() for n, h in cluster.servers.items()}
        expected = {"p0": source.sc, "p1": server.sc}
        assert all(v == expected for v in final.values()), final


class TestSplitConvergesOnDeltas:
    def test_new_partition_frontier_reaches_every_server_without_a_full_payload(self):
        cluster = make_cluster(num_partitions=2, seed=3)
        seeded = {f"0/k{i}": 0 for i in range(12)}
        seeded.update({f"1/k{i}": 0 for i in range(6)})
        cluster.seed(seeded)
        client = cluster.add_client()
        cluster.start()
        recorder = cluster.attach_recorder()
        cluster.world.run_for(0.5)
        for i in range(6):
            run_txn(cluster, client, update_program([f"0/k{i}", f"1/k{i}"]))

        # Every CommitGossip any server sends from here on.
        sent = []
        network_send = cluster.world.network.send

        def tap(src, dst, msg):
            if isinstance(msg, CommitGossip):
                sent.append(msg)
            network_send(src, dst, msg)

        cluster.world.network.send = tap

        change = cluster.split_partition("p0")
        cluster.world.run_for(5.0)
        moved = [k for k in seeded if k.startswith("0/") and key_moves(k, change.split_salt)]
        results = [
            run_txn(cluster, client, update_program([moved[0], f"1/k{i}"])) for i in range(4)
        ]
        assert all(r.committed and set(r.partitions) == {"p1", "p2"} for r in results)
        cluster.world.run_for(2 * GOSSIP_INTERVAL + 4 * ONE_WAY)

        new_servers = cluster.directory.servers_of("p2")
        sc = {
            p: cluster.servers[cluster.directory.servers_of(p)[0]].server.sc
            for p in ("p0", "p1", "p2")
        }
        assert sc["p2"] > cluster.servers[new_servers[0]].server.window.floor
        for node, handle in cluster.servers.items():
            assert handle.server.snapshot_builder.vector() == sc, node

        # Only deltas travelled: after a sender's first tick nothing it sent
        # reaches back to 0 again, and no payload repeats an earlier one's
        # globals (a whole-history payload repeats all of them).
        from_new = [m for m in sent if m.partition == "p2"]
        assert from_new and not any(m.resync for m in from_new)
        listed = [entry for m in from_new for entry in m.globals_committed]
        per_sender_copies = len(new_servers) * (len(cluster.servers) - len(new_servers))
        assert len(listed) == len(results) * per_sender_copies
        # The new servers started late, so they asked the old partitions
        # once each; nobody had to ask the new partition for anything.
        resyncs = {n: h.server.stats.gossip_resyncs for n, h in cluster.servers.items()}
        assert all(resyncs[n] == 0 for n in resyncs if n not in new_servers), resyncs
        assert all(0 < resyncs[n] <= len(resyncs) - len(new_servers) for n in new_servers)

        for result in results:
            recorder.record_result(result)
        check_serializability(recorder).raise_if_failed()
        replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()
