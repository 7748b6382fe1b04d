"""The termination component on its own (docs/PROTOCOL.md §14).

No ``SdurServer`` here: a :class:`VoteLedger` gets a ``PendingList``, a
stub runtime and routing view, and recording callbacks — exactly the
arguments the server hands it — and is driven through its fixed points.
The server-level behaviour (votes emitted at self-delivery, remote votes
re-sequenced, outcomes reaching the client) is pinned with a real server
in ``tests/core/test_vote_ledger.py``.
"""

from types import SimpleNamespace

import pytest

from repro.consensus.messages import Batch, Chosen
from repro.consensus.replica import PaxosReplica
from repro.core.messages import AbortRequest, Vote
from repro.core.pending import PendingList, PendingTxn
from repro.core.transaction import Outcome, ReadsetDigest, TxnId, TxnProjection
from repro.runtime.sim import SimWorld
from repro.termination import VoteLedger, VoteRecord

from tests.oracles.stub_runtime import StubRuntime

INVOLVED = ("p0", "p1")


class StubRouting:
    """``knows_partition`` + ``directory.servers_of`` over one dict."""

    def __init__(self):
        self.partitions = {"p0": ["s1", "s2"], "p1": ["q1", "q2"]}
        self.directory = self

    def knows_partition(self, partition):
        return partition in self.partitions

    def servers_of(self, partition):
        return self.partitions[partition]


def make(runtime=None, **kwargs):
    """A ledger for partition p0 plus everything it was handed."""
    rig = SimpleNamespace(
        runtime=runtime or StubRuntime("s1"),
        routing=StubRouting(),
        pending=PendingList(),
        completed={},
        proposals=[],
        doomed=[],
        drains=[],
        stats=SimpleNamespace(votes_ordered=0, cycles_resolved=0),
    )
    kwargs.setdefault("retry_interval", None)
    rig.ledger = VoteLedger(
        rig.runtime,
        "p0",
        lambda partition, value: rig.proposals.append((partition, value)),
        routing=rig.routing,
        pending=rig.pending,
        completed=rig.completed.get,
        doom=lambda entry: rig.doomed.append(entry.tid),
        drain=lambda: rig.drains.append(None),
        stats=rig.stats,
        **kwargs,
    )
    return rig


def tid(seq):
    return TxnId("c", seq)


def pend(rig, seq, deps=(), partitions=INVOLVED):
    """Append a pending entry the way the server does after certifying."""
    proj = TxnProjection(
        tid=tid(seq),
        partition="p0",
        readset=ReadsetDigest.exact(["a"]),
        writeset={"a": seq},
        snapshot=0,
        partitions=tuple(partitions),
        coordinator="s1",
        client="client",
    )
    entry = PendingTxn(proj=proj, rt=0, delivered_at=0.0, deps={tid(d) for d in deps})
    rig.pending.append(entry)
    return entry


def abort_request(seq):
    return AbortRequest(
        tid=tid(seq), partition="p0", requester="p1", involved=INVOLVED, client="client"
    )


def record(seq, partition, vote, involved=()):
    return VoteRecord(tid=tid(seq), partition=partition, vote=vote, involved=involved)


def votes(rig):
    return [(dst, msg.tid.seq, msg.vote) for dst, msg in rig.runtime.sent if isinstance(msg, Vote)]


class TestCastAndDeliver:
    def test_cast_orders_the_verdict_and_emits_only_at_self_delivery(self):
        rig = make()
        entry = pend(rig, 1)
        rig.ledger.cast(entry.proj, Outcome.COMMIT)
        assert rig.proposals == [("p0", record(1, "p0", "commit", INVOLVED))]
        assert not rig.runtime.sent and entry.votes == {}
        rig.ledger.deliver(rig.proposals[0][1])
        assert votes(rig) == [("q1", 1, "commit"), ("q2", 1, "commit")]
        assert entry.votes == {"p0": "commit"}
        assert rig.stats.votes_ordered == 1 and len(rig.drains) == 1

    def test_arrived_vote_is_only_proposed(self):
        rig = make()
        entry = pend(rig, 1)
        rig.ledger.on_vote("q1", Vote(tid=tid(1), partition="p1", vote="commit"))
        rig.ledger.on_vote("q2", Vote(tid=tid(1), partition="p1", vote="commit"))
        assert rig.proposals == [("p0", record(1, "p1", "commit"))]  # once
        assert entry.votes == {} and not rig.drains
        assert rig.ledger.in_flight == 1

    def test_vote_for_a_completed_transaction_is_dropped(self):
        rig = make()
        rig.completed[tid(1)] = "commit"
        rig.ledger.on_vote("q1", Vote(tid=tid(1), partition="p1", vote="commit"))
        assert not rig.proposals

    def test_duplicate_deliveries_and_reproposals_are_ignored(self):
        rig = make()
        pend(rig, 1)
        rig.ledger.propose(tid(1), "p1", "commit")
        rig.ledger.deliver(record(1, "p1", "commit"))
        rig.ledger.deliver(record(1, "p1", "commit"))  # a retry raced the leader
        rig.ledger.propose(tid(1), "p1", "commit")  # already applied
        assert rig.stats.votes_ordered == 1
        assert len(rig.proposals) == 1 and rig.ledger.in_flight == 0

    def test_group_members_take_effect_in_group_order(self):
        """Records proposed in one loop turn share one Paxos ``Batch``
        instance; the replica unpacks it into one ``deliver`` per record,
        in batch order, and a duplicate member is absorbed."""
        rig = make()
        replica = PaxosReplica(
            rig.runtime,
            "p0",
            ["s1", "s2"],
            on_deliver=lambda instance, value: rig.ledger.deliver(value),
        )
        entry = pend(rig, 1, partitions=("p0", "p1", "p2"))
        batch = Batch(
            values=(
                record(1, "p1", "commit"),
                record(1, "p1", "abort"),  # same key: the first one won
                record(1, "p2", "abort"),
            )
        )
        replica.handle("s2", Chosen(group="p0", instance=0, value=batch))
        assert replica.log.next_to_deliver == 1
        assert entry.votes == {"p1": "commit", "p2": "abort"}
        assert rig.stats.votes_ordered == 2 and len(rig.drains) == 2

    def test_follower_waits_for_the_retry_timer(self):
        rig = make(is_leader=lambda: False, retry_interval=0.05)
        rig.ledger.propose(tid(1), "p0", "commit")
        assert not rig.proposals and rig.ledger.in_flight == 1
        (due, fire), = rig.runtime.timers
        rig.runtime.clock = due
        fire()
        assert [value for _, value in rig.proposals] == [record(1, "p0", "commit")]

    def test_retry_reproposes_only_records_a_full_interval_old(self):
        """One timer serves the whole outbox; when it fires, a record
        queued a moment ago is still in flight and is left alone."""
        world = SimWorld(seed=1)
        rig = make(runtime=world.runtime_for("s1"), retry_interval=0.25)

        def proposed():
            return [value.tid.seq for _, value in rig.proposals]

        rig.ledger.propose(tid(1), "p0", "commit")
        world.run_for(0.2)
        rig.ledger.propose(tid(2), "p0", "commit")
        world.run_for(0.1)  # t = 0.3: the timer fired at 0.25 for #1 alone
        assert proposed() == [1, 2, 1]
        world.run_for(0.18)  # t = 0.48: re-armed for #2, the oldest survivor
        assert proposed()[3:] == [2]
        rig.ledger.deliver(record(2, "p0", "commit"))
        world.run_for(0.3)  # t = 0.78: #1 again a full interval after 0.25 and 0.5
        assert proposed()[4:] == [1, 1]
        rig.ledger.deliver(record(1, "p0", "commit"))
        world.run_for(1.0)
        assert len(rig.proposals) == 6 and rig.ledger.in_flight == 0


class TestEarlyVotes:
    def test_early_votes_merge_at_admission(self):
        rig = make()
        rig.ledger.deliver(record(1, "p1", "commit"))  # p1 delivered g1 first
        assert rig.stats.votes_ordered == 1 and not rig.drains
        entry = pend(rig, 1)
        rig.ledger.admit(entry)
        assert entry.votes == {"p1": "commit"}
        other = pend(rig, 2)
        rig.ledger.admit(other)
        assert other.votes == {}

    def test_early_buffer_is_bounded(self):
        rig = make(limit=2)
        for seq in (1, 2, 3):
            rig.ledger.deliver(record(seq, "p1", "commit"))
        oldest, newest = pend(rig, 1), pend(rig, 3)
        rig.ledger.admit(oldest)
        rig.ledger.admit(newest)
        assert oldest.votes == {}  # evicted
        assert newest.votes == {"p1": "commit"}

    def test_aborted_early_transaction_discards_its_votes(self):
        rig = make()
        rig.ledger.deliver(record(5, "p1", "commit"))  # buffered: g5 unknown
        rig.ledger.on_abort_request(abort_request(5))
        assert tid(5) in rig.ledger.aborted_early
        rig.ledger.deliver(record(5, "p2", "commit"))  # dead already: not buffered
        rig.ledger.discard(tid(5))  # the projection showed up
        assert tid(5) not in rig.ledger.aborted_early
        entry = pend(rig, 5)
        rig.ledger.admit(entry)
        assert entry.votes == {}


class TestAbortRequest:
    def test_completed_reemits_the_recorded_verdict(self):
        rig = make()
        rig.completed[tid(1)] = "commit"
        rig.ledger.on_abort_request(abort_request(1))
        assert votes(rig) == [("q1", 1, "commit"), ("q2", 1, "commit")]
        assert not rig.proposals and not rig.doomed

    def test_pending_decided_reemits_only_after_self_delivery(self):
        rig = make()
        entry = pend(rig, 1)
        rig.ledger.cast(entry.proj, Outcome.COMMIT)
        rig.ledger.on_abort_request(abort_request(1))
        assert not rig.runtime.sent  # the in-flight record will emit it
        rig.ledger.deliver(rig.proposals[0][1])
        del rig.runtime.sent[:]
        rig.ledger.on_abort_request(abort_request(1))
        assert votes(rig) == [("q1", 1, "commit"), ("q2", 1, "commit")]
        assert not rig.doomed

    def test_pending_deferred_dooms_the_cycle_minimum(self):
        rig = make()
        pend(rig, 2)
        victim = pend(rig, 1, deps=[2])  # defers on a larger id
        rig.ledger.on_abort_request(abort_request(1))
        assert rig.doomed == [tid(1)] and victim.cycle_victim
        assert rig.stats.cycles_resolved == 1 and len(rig.drains) == 1

    def test_pending_deferred_on_a_smaller_id_is_spared(self):
        rig = make()
        pend(rig, 1)
        pend(rig, 2, deps=[1])
        rig.ledger.on_abort_request(abort_request(2))
        assert not rig.doomed and rig.stats.cycles_resolved == 0

    def test_chain_walk_reaches_a_local_minimum(self):
        """global → local → global: locals never get an abort request of
        their own, so the request for g2 must walk down to l1."""
        rig = make()
        pend(rig, 3)
        local = pend(rig, 1, deps=[3], partitions=("p0",))
        pend(rig, 2, deps=[1])
        rig.ledger.on_abort_request(abort_request(2))
        assert rig.doomed == [tid(1)] and local.cycle_victim  # exactly the minimum

    def test_undelivered_aborts_early_through_the_log_once(self):
        rig = make()
        rig.ledger.on_abort_request(abort_request(5))
        assert tid(5) in rig.ledger.aborted_early
        assert rig.proposals == [("p0", record(5, "p0", "abort", INVOLVED))]
        assert not rig.runtime.sent  # ordered first
        rig.ledger.on_abort_request(abort_request(5))  # the requester re-fired
        assert len(rig.proposals) == 1
        rig.ledger.deliver(rig.proposals[0][1])
        assert votes(rig) == [("q1", 5, "abort"), ("q2", 5, "abort")]
        rig.ledger.on_abort_request(abort_request(5))
        assert len(rig.proposals) == 1 and len(rig.ledger.aborted_early) == 1


class TestRouting:
    def test_vote_for_an_unknown_partition_waits_for_the_directory(self):
        rig = make()
        rig.ledger.deliver(record(1, "p0", "commit", ("p0", "p1", "p2")))
        assert votes(rig) == [("q1", 1, "commit"), ("q2", 1, "commit")]
        rig.ledger.on_partition_learned()  # some other change: still unknown
        assert len(votes(rig)) == 2
        rig.routing.partitions["p2"] = ["r1", "r2"]
        rig.ledger.on_partition_learned()
        assert votes(rig)[2:] == [("r1", 1, "commit"), ("r2", 1, "commit")]
        rig.ledger.on_partition_learned()
        assert len(votes(rig)) == 4

    @pytest.mark.parametrize("known", [True, False])
    def test_vote_timeout_requests_an_abort_from_each_silent_partition(self, known):
        rig = make(vote_timeout=1.0)
        entry = pend(rig, 1, partitions=("p0", "p1") if known else ("p0", "p9"))
        rig.ledger.admit(entry)
        (due, fire), = rig.runtime.timers
        assert due == 1.0
        fire()
        if known:
            request = AbortRequest(
                tid=tid(1), partition="p1", requester="p0", involved=INVOLVED, client="client"
            )
            assert rig.proposals == [("p1", request)]
        else:
            assert not rig.proposals  # directory change in flight; the next firing retries
        assert len(rig.runtime.timers) == 2  # re-armed
        entry.votes.update({"p0": "commit", "p1": "commit", "p9": "commit"})
        rig.runtime.timers[1][1]()
        assert len(rig.runtime.timers) == 2  # all votes in: the timeout retires
