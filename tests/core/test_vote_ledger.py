"""Termination semantics at one server (docs/PROTOCOL.md §14).

Every vote — our own verdict and every remote partition's — takes effect
only at its delivery position in the partition's own log, so nothing
about termination depends on message-arrival timing.  These tests drive
one SdurServer by hand and watch what reaches the wire and the client;
the loopback fabric below plays the partition's atomic broadcast by
feeding own-partition proposals back to ``on_adeliver`` in order.  The
component's own branches are covered without a server in
``tests/termination/test_ledger_component.py``.
"""

from repro.core.config import SdurConfig
from repro.core.directory import ClusterDirectory
from repro.core.messages import AbortRequest, OutcomeNotice, Vote
from repro.core.partitioning import PartitionMap
from repro.core.server import SdurServer
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection
from repro.net.topology import US_EAST, Topology
from repro.runtime.sim import SimWorld
from repro.termination import VoteLedger, VoteRecord


class LoopbackFabric:
    """Feeds own-partition abcasts back to the server, in log order."""

    def __init__(self):
        self.server = None
        self.broadcasts = []
        self._next_instance = 100

    def abcast(self, partition, value):
        self.broadcasts.append((partition, value))
        if self.server is not None and partition == self.server.partition:
            instance = self._next_instance
            self._next_instance += 1
            self.server.runtime.set_timer(
                0.0, lambda i=instance, v=value: self.server.on_adeliver(i, v)
            )


class CaptureFabric:
    """Captures abcasts without delivering them (manual log control)."""

    def __init__(self):
        self.broadcasts = []

    def abcast(self, partition, value):
        self.broadcasts.append((partition, value))


def make_server(fabric=None, retry_interval=None, world=None):
    world = world or SimWorld(seed=1)
    topology = Topology()
    for name in ("s1", "s2", "q1", "q2", "client"):
        topology.add(name, US_EAST)
    directory = ClusterDirectory(
        partitions={"p0": ["s1", "s2"], "p1": ["q1", "q2"]},
        preferred={"p0": "s1", "p1": "q1"},
        topology=topology,
    )
    runtime = world.runtime_for("s1")
    sent = []
    for name in ("s2", "q1", "q2", "client"):
        world.network.register(name, lambda src, msg, n=name: sent.append((n, msg)))
    fabric = fabric or LoopbackFabric()
    server = SdurServer(
        runtime=runtime,
        partition="p0",
        directory=directory,
        partition_map=PartitionMap.by_index(2),
        fabric=fabric,
        config=SdurConfig(vote_timeout=None, gossip_interval=None),
    )
    server.ledger.retry_interval = retry_interval
    if isinstance(fabric, LoopbackFabric):
        fabric.server = server
    runtime.listen(server.handle)
    return world, server, sent


def proj(seq, reads, writes, partitions=("p0", "p1"), snapshot=0):
    return TxnProjection(
        tid=TxnId("c", seq),
        partition="p0",
        readset=ReadsetDigest.exact(reads),
        writeset={k: seq for k in writes},
        snapshot=snapshot,
        partitions=tuple(partitions),
        coordinator="s1",
        client="client",
    )


def votes_sent(sent, seq):
    return [
        (node, msg)
        for node, msg in sent
        if isinstance(msg, Vote) and msg.tid == TxnId("c", seq)
    ]


def outcome_of(sent, seq):
    for node, msg in sent:
        if isinstance(msg, OutcomeNotice) and msg.tid == TxnId("c", seq):
            return msg.outcome
    return None


def vote_records(fabric, seq=None):
    return [
        value
        for partition, value in fabric.broadcasts
        if isinstance(value, VoteRecord)
        and (seq is None or value.tid == TxnId("c", seq))
    ]


def abort_request(seq, involved=("p0", "p1")):
    return AbortRequest(
        tid=TxnId("c", seq),
        partition="p0",
        requester="p1",
        involved=tuple(involved),
        client="client",
    )


class TestOwnVerdict:
    def test_every_server_terminates_through_a_ledger(self):
        _, server, _ = make_server()
        assert type(server.ledger) is VoteLedger

    def test_vote_emitted_only_at_self_delivery(self):
        fabric = CaptureFabric()
        world, server, sent = make_server(fabric=fabric)
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        world.run_for(0.1)
        # The verdict went into our own log, not onto the wire.
        records = vote_records(fabric, 1)
        assert len(records) == 1 and records[0].vote == "commit"
        assert records[0].involved == ("p0", "p1")
        assert not votes_sent(sent, 1)
        assert server.pending.get(TxnId("c", 1)).votes == {}
        # Self-delivery releases the inter-partition Vote.
        server.on_adeliver(50, records[0])
        world.run_for(0.1)
        g1_votes = votes_sent(sent, 1)
        assert {node for node, _ in g1_votes} == {"q1", "q2"}
        assert all(msg.vote == "commit" for _, msg in g1_votes)
        assert server.stats.votes_ordered == 1
        assert server.pending.get(TxnId("c", 1)).votes == {"p0": "commit"}

    def test_duplicate_record_deliveries_are_dropped(self):
        fabric = CaptureFabric()
        world, server, sent = make_server(fabric=fabric)
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        world.run_for(0.1)
        record = vote_records(fabric, 1)[0]
        server.on_adeliver(50, record)
        server.on_adeliver(51, record)  # outbox retry raced the leader
        world.run_for(0.1)
        assert server.stats.votes_ordered == 1
        assert len(votes_sent(sent, 1)) == 2  # one Vote each to q1, q2


class TestRemoteVotes:
    def test_remote_vote_resequenced_through_own_log(self):
        fabric = LoopbackFabric()
        world, server, sent = make_server(fabric=fabric)
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        world.run_for(0.1)  # own verdict self-delivers via loopback
        server.handle("q1", Vote(tid=TxnId("c", 1), partition="p1", vote="commit"))
        # Arrival has no protocol effect: the vote is only proposed.
        entry = server.pending.get(TxnId("c", 1))
        assert entry.votes.get("p1") is None
        assert server.ledger.in_flight == 1
        world.run_for(0.1)  # relayed record reaches its log position
        assert outcome_of(sent, 1) == "commit"
        assert server.stats.votes_ordered == 2  # own verdict + relay
        assert server.store.read_latest("a")[1] == 1

    def test_early_remote_vote_buffered_until_projection(self):
        world, server, sent = make_server()
        # p1 delivered g1 first and voted; our projection is not in yet.
        server.handle("q1", Vote(tid=TxnId("c", 1), partition="p1", vote="commit"))
        world.run_for(0.1)
        assert server.stats.votes_ordered == 1
        assert TxnId("c", 1) not in server.pending
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        world.run_for(0.1)  # merges the early vote, self-delivers our own
        assert outcome_of(sent, 1) == "commit"

    def test_completed_txn_ignores_late_remote_votes(self):
        world, server, sent = make_server()
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        server.handle("q1", Vote(tid=TxnId("c", 1), partition="p1", vote="commit"))
        world.run_for(0.2)
        assert outcome_of(sent, 1) == "commit"
        ordered = server.stats.votes_ordered
        # A duplicate Vote (e.g. from the other p1 replica) after
        # completion must not be proposed again.
        server.handle("q2", Vote(tid=TxnId("c", 1), partition="p1", vote="commit"))
        world.run_for(0.2)
        assert server.stats.votes_ordered == ordered
        assert server.ledger.in_flight == 0


class TestProposalPath:
    def test_non_leader_defers_to_retry_timer(self):
        fabric = CaptureFabric()
        world, server, _ = make_server(fabric=fabric, retry_interval=0.05)
        server.is_partition_leader = lambda: False
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        world.run_for(0.01)
        assert not vote_records(fabric, 1)  # followers do not propose at once
        world.run_for(0.1)
        records = vote_records(fabric, 1)
        assert records, "outbox retry must propose from followers too"
        # Delivery clears the outbox and stops the re-proposals.
        server.on_adeliver(50, records[0])
        world.run_for(0.01)
        assert server.ledger.in_flight == 0
        count = len(vote_records(fabric, 1))
        world.run_for(0.3)
        assert len(vote_records(fabric, 1)) == count


class TestCycleRule:
    def test_abort_request_dooms_minimal_tid(self):
        fabric = CaptureFabric()
        world, server, sent = make_server(fabric=fabric)
        # g2 first, then g1 reading g2's write: g1 defers on a larger id.
        server.on_adeliver(0, proj(2, reads=["a"], writes=["a"]))
        server.on_adeliver(1, proj(1, reads=["a", "b"], writes=["b"]))
        world.run_for(0.1)
        entry = server.pending.get(TxnId("c", 1))
        assert entry.deps == {TxnId("c", 2)}
        server.on_adeliver(2, abort_request(1))
        world.run_for(0.1)
        assert server.stats.cycles_resolved == 1
        assert entry.cycle_victim and entry.doomed
        # The abort verdict goes through the log like any other vote.
        records = vote_records(fabric, 1)
        assert any(r.vote == "abort" and r.partition == "p0" for r in records)

    def test_abort_request_spares_larger_tid(self):
        fabric = CaptureFabric()
        world, server, _ = make_server(fabric=fabric)
        # g2 defers on the *smaller* g1: the rule must not fire.
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        server.on_adeliver(1, proj(2, reads=["a", "b"], writes=["b"]))
        world.run_for(0.1)
        server.on_adeliver(2, abort_request(2))
        world.run_for(0.1)
        assert server.stats.cycles_resolved == 0
        entry = server.pending.get(TxnId("c", 2))
        assert entry is not None and not entry.doomed

    def test_abort_request_walks_through_deferred_local(self):
        """The cycle's minimum can be a *local* transaction: locals never
        arm vote timeouts, so no abort request ever names them directly.
        The request for a larger global must walk down the dependency
        chain and doom the local, or the cycle wedges forever (this
        deadlocked full-system runs before the chain walk existed)."""
        fabric = CaptureFabric()
        world, server, _ = make_server(fabric=fabric)
        # g3 waits on p1's vote; local l1 defers on g3; g2 defers on l1.
        server.on_adeliver(0, proj(3, reads=["a"], writes=["a"]))
        server.on_adeliver(
            1, proj(1, reads=["a", "b"], writes=["b"], partitions=("p0",))
        )
        server.on_adeliver(2, proj(2, reads=["b", "c"], writes=["c"]))
        world.run_for(0.1)
        assert server.pending.get(TxnId("c", 2)).deps == {TxnId("c", 1)}
        assert server.pending.get(TxnId("c", 1)).deps == {TxnId("c", 3)}
        server.on_adeliver(3, abort_request(2))
        world.run_for(0.1)
        victim = server.pending.get(TxnId("c", 1))
        assert server.stats.cycles_resolved == 1
        assert victim.cycle_victim and victim.doomed
        # g2's deferral evaporated: its commit verdict heads to the log.
        records = vote_records(fabric, 2)
        assert any(r.vote == "commit" and r.partition == "p0" for r in records)

    def test_cycle_victim_counts_as_ledger_abort(self):
        fabric = CaptureFabric()
        world, server, sent = make_server(fabric=fabric)
        server.on_adeliver(0, proj(2, reads=["a"], writes=["a"]))
        server.on_adeliver(1, proj(1, reads=["a", "b"], writes=["b"]))
        world.run_for(0.1)
        server.on_adeliver(2, abort_request(1))
        # Let g2 commit so the doomed g1 reaches the head and completes.
        record = vote_records(fabric, 2)[0]
        server.on_adeliver(3, record)
        server.handle("q1", Vote(tid=TxnId("c", 2), partition="p1", vote="commit"))
        relayed = [r for r in vote_records(fabric, 2) if r.partition == "p1"]
        server.on_adeliver(4, relayed[0])
        world.run_for(0.1)
        assert outcome_of(sent, 2) == "commit"
        assert outcome_of(sent, 1) == "abort"
        assert server.stats.vote_ledger_aborts == 1
        assert server.stats.aborted_deferred == 1


class TestAbortRequests:
    def test_completed_txn_replies_with_recorded_verdict(self):
        world, server, sent = make_server()
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        server.handle("q1", Vote(tid=TxnId("c", 1), partition="p1", vote="commit"))
        world.run_for(0.2)
        assert outcome_of(sent, 1) == "commit"
        del sent[:]
        # The requester never saw our Vote (e.g. it was restored from a
        # checkpoint): the re-request replays the verdict.
        server.on_adeliver(10, abort_request(1))
        world.run_for(0.1)
        replies = votes_sent(sent, 1)
        assert replies and all(msg.vote == "commit" for _, msg in replies)

    def test_undelivered_txn_aborts_early_through_log(self):
        world, server, sent = make_server()
        server.on_adeliver(0, abort_request(5))
        world.run_for(0.1)  # abort record self-delivers, Vote goes out
        aborts = votes_sent(sent, 5)
        assert aborts and all(msg.vote == "abort" for _, msg in aborts)
        assert {node for node, _ in aborts} == {"q1", "q2"}
        # The projection arriving afterwards completes as an abort.
        server.on_adeliver(1, proj(5, reads=["a"], writes=["a"]))
        world.run_for(0.1)
        assert outcome_of(sent, 5) == "abort"
        assert TxnId("c", 5) not in server.pending
