"""Direct tests of the deterministic-certification machinery.

These drive one SdurServer by hand — crafted deliveries, no Paxos, no
client — to pin down the exact semantics of the snapshot gate, deferred
verdicts, dooming, and dependency resolution (the protocol corrections
documented in DESIGN.md).  Votes enter the way they do in the shipped
system: as ``VoteRecord``s delivered through the partition's own log.
The loopback fabric of tests/core/test_vote_ledger.py plays that log for
the server's own verdicts; ``remote_vote`` delivers p1's.  What a vote does at *arrival* is the
ledger's business (tests/core/test_vote_ledger.py).
"""

from repro.core.transaction import TxnId
from repro.termination import VoteRecord
from tests.core.test_vote_ledger import make_server, outcome_of, proj, votes_sent


def remote_vote(server, seq, vote):
    """p1's verdict for transaction ``seq`` reaches its log position."""
    record = VoteRecord(tid=TxnId("c", seq), partition="p1", vote=vote)
    server.on_adeliver(1000 + seq, record)


class TestDeferral:
    def test_conflicting_global_defers_its_vote(self):
        world, server, sent = make_server()
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        world.run_for(0.1)
        assert votes_sent(sent, 1), "first global votes as soon as its verdict is ordered"
        # g2 writes what g1 read: symmetric conflict -> defer, no vote yet.
        server.on_adeliver(1, proj(2, reads=["a", "b"], writes=["b"], snapshot=0))
        world.run_for(0.1)
        assert not votes_sent(sent, 2)
        assert server.stats.deferred == 1
        entry = server.pending.get(TxnId("c", 2))
        assert entry.deps == {TxnId("c", 1)}

    def test_dep_abort_releases_commit_vote(self):
        world, server, sent = make_server()
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        server.on_adeliver(1, proj(2, reads=["a", "b"], writes=["b"]))
        world.run_for(0.1)
        # p1 votes abort for g1: g1 aborts, the dependency evaporates.
        remote_vote(server, 1, "abort")
        world.run_for(0.1)
        assert outcome_of(sent, 1) == "abort"
        g2_votes = votes_sent(sent, 2)
        assert g2_votes and all(m.vote == "commit" for _, m in g2_votes)

    def test_dep_commit_dooms_dependent(self):
        world, server, sent = make_server()
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        server.on_adeliver(1, proj(2, reads=["a", "b"], writes=["b"]))
        world.run_for(0.1)
        remote_vote(server, 1, "commit")
        world.run_for(0.1)
        assert outcome_of(sent, 1) == "commit"
        g2_votes = votes_sent(sent, 2)
        assert g2_votes and all(m.vote == "abort" for _, m in g2_votes)
        # g2 was doomed and, being the new head with a known outcome,
        # completed as an abort without waiting for remote votes.
        assert TxnId("c", 2) not in server.pending
        assert outcome_of(sent, 2) == "abort"
        assert server.sc == 1  # only g1 applied

    def test_doom_cascades_through_chains(self):
        """g1 commits -> g2 (reads g1's write) doomed -> g3 (deferred on
        g2) is released with a commit vote, because its only conflict was
        with a transaction that will never apply."""
        world, server, sent = make_server()
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        server.on_adeliver(1, proj(2, reads=["a", "b"], writes=["b"]))
        server.on_adeliver(2, proj(3, reads=["b", "c"], writes=["c"]))
        world.run_for(0.1)
        assert server.stats.deferred == 2
        assert not votes_sent(sent, 3)
        remote_vote(server, 1, "commit")
        world.run_for(0.1)
        assert [m.vote for _, m in votes_sent(sent, 2)] and all(
            m.vote == "abort" for _, m in votes_sent(sent, 2)
        )
        g3_votes = votes_sent(sent, 3)
        assert g3_votes and all(m.vote == "commit" for _, m in g3_votes)

    def test_deferred_local_appends_no_leap(self):
        world, server, sent = make_server()
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        # A local that read what the pending global wrote: deferred.
        server.on_adeliver(1, proj(2, reads=["a", "z"], writes=["z"], partitions=("p0",)))
        world.run_for(0.1)
        assert server.pending.position_of(TxnId("c", 2)) == 1
        # g1 aborts -> the local commits.
        remote_vote(server, 1, "abort")
        world.run_for(0.1)
        assert outcome_of(sent, 2) == "commit"
        assert server.store.read_latest("z").value == 2


class TestEarlyVotes:
    def test_early_votes_apply_on_delivery(self):
        world, server, sent = make_server()
        remote_vote(server, 1, "commit")
        world.run_for(0.01)
        assert TxnId("c", 1) not in server.pending
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        world.run_for(0.1)
        assert outcome_of(sent, 1) == "commit"

    def test_early_votes_for_deferred_txn_apply_at_decision(self):
        world, server, sent = make_server()
        server.on_adeliver(0, proj(1, reads=["a"], writes=["a"]))
        # p1's commit vote for g2 is ledgered before g2 is even delivered here.
        remote_vote(server, 2, "commit")
        world.run_for(0.01)
        server.on_adeliver(1, proj(2, reads=["a", "b"], writes=["b"]))
        world.run_for(0.1)
        assert not votes_sent(sent, 2)  # still deferred
        remote_vote(server, 1, "abort")
        world.run_for(0.1)
        assert outcome_of(sent, 2) == "commit"
