"""The arrival-time oracle, driven on one server by hand.

``tests/oracles/optimistic_termination.py`` keeps the behaviour
``SdurServer`` had before votes were ordered through the log.  These
cases pinned that behaviour when it lived in ``src/``: votes below act
the moment ``handle()`` sees them.  The snapshot-gate cases live here
too — with votes ordered through the log every replica has completed a
global before anything that read its commit is delivered, so only
arrival-time votes can leave a delivery waiting on ``snapshot > SC``.
"""

from repro.core.messages import Vote
from repro.core.transaction import TxnId
from tests.core.test_vote_ledger import make_server as make_ledger_server
from tests.core.test_vote_ledger import outcome_of, proj, votes_sent
from tests.oracles.optimistic_termination import OptimisticTermination


def make_server():
    world, server, sent = make_ledger_server()
    server.ledger = OptimisticTermination.of(server)
    return world, server, sent


class TestArrivalTimeVotes:
    def test_own_vote_leaves_at_delivery_and_nothing_is_ordered(self):
        world, server, sent = make_server()
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        world.run_for(0.1)
        assert {node for node, _ in votes_sent(sent, 1)} == {"q1", "q2"}
        assert server.pending.get(TxnId("c", 1)).votes == {"p0": "commit"}
        server.handle("q1", Vote(tid=TxnId("c", 1), partition="p1", vote="commit"))
        world.run_for(0.1)
        assert outcome_of(sent, 1) == "commit"
        assert server.stats.votes_ordered == 0

    def test_early_votes_apply_on_delivery(self):
        world, server, sent = make_server()
        server.handle("q1", Vote(tid=TxnId("c", 1), partition="p1", vote="commit"))
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        world.run_for(0.1)
        assert outcome_of(sent, 1) == "commit"

    def test_early_votes_for_deferred_txn_apply_at_decision(self):
        world, server, sent = make_server()
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        # p1's commit vote for g2 arrives before g2 is even decided here.
        server.handle("q1", Vote(tid=TxnId("c", 2), partition="p1", vote="commit"))
        server.on_adeliver(1, proj(2, reads=["a", "b"], writes=["b"]))
        world.run_for(0.1)
        assert not votes_sent(sent, 2)  # still deferred
        server.handle("q1", Vote(tid=TxnId("c", 1), partition="p1", vote="abort"))
        world.run_for(0.1)
        assert outcome_of(sent, 2) == "commit"


class TestSnapshotGate:
    def test_future_snapshot_stalls_delivery_until_sc_catches_up(self):
        world, server, sent = make_server()
        # Pending global g1 holds SC at 0.
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        # t2 was read at another replica that already applied g1: its
        # snapshot (1) is ahead of this replica.
        server.on_adeliver(
            1, proj(2, reads=["b"], writes=["b"], partitions=("p0",), snapshot=1)
        )
        world.run_for(0.1)
        assert len(server._stalled) == 1
        assert server.dc == 1  # t2 not yet counted
        # g1 commits -> SC reaches 1 -> the gate opens.
        server.handle("q1", Vote(tid=TxnId("c", 1), partition="p1", vote="commit"))
        world.run_for(0.1)
        assert server.sc == 2
        assert outcome_of(sent, 2) == "commit"
        assert not server._stalled

    def test_gate_preserves_delivery_order(self):
        world, server, sent = make_server()
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        server.on_adeliver(
            1, proj(2, reads=["b"], writes=["b"], partitions=("p0",), snapshot=1)
        )
        # A third delivery with a satisfied snapshot still queues behind.
        server.on_adeliver(
            2, proj(3, reads=["c"], writes=["c"], partitions=("p0",), snapshot=0)
        )
        world.run_for(0.1)
        assert len(server._stalled) == 2
        server.handle("q1", Vote(tid=TxnId("c", 1), partition="p1", vote="commit"))
        world.run_for(0.1)
        # Commit versions follow delivery order: g1=1, t2=2, t3=3.
        assert server.store.read_latest("b").version == 2
        assert server.store.read_latest("c").version == 3
