"""Unit + property tests for the globally-consistent snapshot builder."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import snapshots
from repro.core.messages import CommitGossip
from repro.core.snapshots import GlobalSnapshotBuilder
from repro.core.transaction import TxnId
from repro.errors import ConfigurationError
from tests.oracles.gossip import full_history_payload


def tid(n):
    return TxnId("c", n)


@pytest.fixture
def builder():
    return GlobalSnapshotBuilder(["p0", "p1"], "p0")


class TestBasics:
    def test_own_partition_must_be_listed(self):
        with pytest.raises(ConfigurationError):
            GlobalSnapshotBuilder(["p0"], "p9")

    def test_initial_vector_is_zero(self, builder):
        assert builder.vector() == {"p0": 0, "p1": 0}

    def test_local_commits_advance_own_entry(self, builder):
        builder.on_local_commit(tid(1), 1, ("p0",), is_global=False)
        builder.on_local_commit(tid(2), 2, ("p0",), is_global=False)
        assert builder.vector() == {"p0": 2, "p1": 0}

    def test_gossip_advances_remote_entry(self, builder):
        builder.on_gossip(CommitGossip(partition="p1", sc=7))
        assert builder.vector() == {"p0": 0, "p1": 7}

    def test_gossip_for_unknown_partition_ignored(self, builder):
        builder.on_gossip(CommitGossip(partition="p9", sc=5))
        assert builder.vector() == {"p0": 0, "p1": 0}

    def test_unknown_partition_gossip_replayed_on_register(self, builder):
        """Gossip racing a split's directory change is buffered, not lost:
        registering the partition replays it so the frontier catches up
        without waiting out another gossip interval."""
        builder.on_gossip(
            CommitGossip(
                partition="p9", sc=5, globals_committed=((tid(3), 4, ("p1", "p9")),)
            )
        )
        builder.on_gossip(
            CommitGossip(
                partition="p1", sc=7, globals_committed=((tid(3), 6, ("p1", "p9")),)
            )
        )
        builder.add_partition("p9")
        vector = builder.vector()
        assert vector["p9"] == 5
        assert vector["p1"] == 7  # the shared global is fully visible

    def test_pending_gossip_buffer_is_bounded(self, monkeypatch):
        monkeypatch.setattr(snapshots, "GOSSIP_HISTORY", 4)
        builder = GlobalSnapshotBuilder(["p0", "p1"], "p0")
        for sc in range(1, 10):
            builder.on_gossip(CommitGossip(partition="p9", sc=sc))
        assert len(builder._pending_gossip) == 4
        builder.add_partition("p9")
        assert builder.vector()["p9"] == 9  # newest payloads survived
        assert not builder._pending_gossip

    def test_replay_only_consumes_matching_partition(self, builder):
        builder.on_gossip(CommitGossip(partition="p8", sc=2))
        builder.on_gossip(CommitGossip(partition="p9", sc=3))
        builder.add_partition("p9")
        assert builder.vector()["p9"] == 3
        assert [m.partition for m in builder._pending_gossip] == ["p8"]
        builder.add_partition("p8")
        assert builder.vector()["p8"] == 2

    def test_gossip_is_monotone(self, builder):
        builder.on_gossip(CommitGossip(partition="p1", sc=7))
        builder.on_gossip(CommitGossip(partition="p1", sc=3))  # stale
        assert builder.vector()["p1"] == 7


class TestAtomicity:
    def test_vector_excludes_half_visible_global(self, builder):
        """A global committed locally but with unknown remote version must
        be hidden: the local entry is lowered below it."""
        builder.on_local_commit(tid(9), 3, ("p0", "p1"), is_global=True)
        vector = builder.vector()
        assert vector["p0"] == 2  # lowered below version 3

    def test_vector_includes_fully_known_global(self, builder):
        builder.on_local_commit(tid(9), 3, ("p0", "p1"), is_global=True)
        builder.on_gossip(
            CommitGossip(
                partition="p1", sc=5, globals_committed=((tid(9), 4, ("p0", "p1")),)
            )
        )
        assert builder.vector() == {"p0": 3, "p1": 5}

    def test_remote_global_beyond_local_knowledge_is_hidden(self, builder):
        # p1 committed global t at version 2, but p0's version is unknown.
        builder.on_gossip(
            CommitGossip(
                partition="p1", sc=4, globals_committed=((tid(5), 2, ("p0", "p1")),)
            )
        )
        vector = builder.vector()
        assert vector["p1"] == 1  # lowered below the split global

    def test_cascading_lowering(self, builder):
        """Hiding one global can force hiding another (fixpoint)."""
        # t1 fully known at (p0:2, p1:2); t2 known only at p0:3.
        builder.on_local_commit(tid(1), 2, ("p0", "p1"), is_global=True)
        builder.on_local_commit(tid(2), 3, ("p0", "p1"), is_global=True)
        builder.on_gossip(
            CommitGossip(
                partition="p1", sc=9, globals_committed=((tid(1), 2, ("p0", "p1")),)
            )
        )
        vector = builder.vector()
        assert vector["p0"] == 2  # t2 hidden, t1 visible
        assert vector["p1"] == 9

    def test_gossip_payload_carries_own_globals(self, builder):
        builder.on_local_commit(tid(1), 1, ("p0", "p1"), is_global=True)
        payload = builder.next_delta()
        assert payload.partition == "p0"
        assert payload.sc == 1
        assert payload.globals_committed == ((tid(1), 1, ("p0", "p1")),)


class TestDeltaGossip:
    """Ticks carry what is new; a gap is reported and repaired on request."""

    @pytest.fixture
    def sender(self):
        return GlobalSnapshotBuilder(["p0", "p1"], "p1")

    def test_tick_carries_only_globals_since_the_previous_tick(self, sender):
        sender.on_local_commit(tid(1), 1, ("p0", "p1"), is_global=True)
        sender.on_local_commit(tid(2), 2, ("p1",), is_global=False)
        first = sender.next_delta()
        assert (first.complete_from, first.sc) == (0, 2)
        assert first.globals_committed == ((tid(1), 1, ("p0", "p1")),)
        sender.on_local_commit(tid(3), 3, ("p0", "p1"), is_global=True)
        second = sender.next_delta()
        assert (second.complete_from, second.sc) == (2, 3)
        assert second.globals_committed == ((tid(3), 3, ("p0", "p1")),)

    def test_idle_tick_is_empty_and_still_connects(self, sender, builder):
        sender.on_local_commit(tid(1), 1, ("p1",), is_global=False)
        assert builder.on_gossip(sender.next_delta()) is None
        idle = sender.next_delta()
        assert (idle.complete_from, idle.sc, idle.globals_committed) == (1, 1, ())
        assert builder.on_gossip(idle) is None
        assert builder.vector()["p1"] == 1

    def test_missed_tick_is_reported_and_repaired_by_resync(self, sender, builder):
        for n in range(1, 4):
            sender.on_local_commit(tid(n), n, ("p0", "p1"), is_global=True)
            builder.on_local_commit(tid(n), n, ("p0", "p1"), is_global=True)
        assert builder.on_gossip(sender.next_delta()) is None
        sender.on_local_commit(tid(4), 4, ("p0", "p1"), is_global=True)
        builder.on_local_commit(tid(4), 4, ("p0", "p1"), is_global=True)
        sender.next_delta()  # lost on the way
        sender.on_local_commit(tid(5), 5, ("p0", "p1"), is_global=True)
        builder.on_local_commit(tid(5), 5, ("p0", "p1"), is_global=True)
        # The next tick starts at 4; the receiver's watermark is 3.
        assert builder.on_gossip(sender.next_delta()) == 3
        assert builder.vector() == {"p0": 3, "p1": 3}  # stale, not split
        reply = sender.payload_since(3, resync=True)
        assert reply.resync and reply.complete_from == 3
        assert [version for _, version, _ in reply.globals_committed] == [4, 5]
        assert builder.on_gossip(reply) is None
        assert builder.vector() == {"p0": 5, "p1": 5}

    def test_payload_since_zero_is_the_whole_history_oracle(self, sender):
        for n in range(1, 6):
            sender.on_local_commit(tid(n), n, ("p0", "p1"), is_global=n % 2 == 1)
        sender.next_delta()
        assert sender.payload_since(0) == full_history_payload(sender)

    def test_window_eviction_is_declared_in_complete_from(self, monkeypatch):
        monkeypatch.setattr(snapshots, "GOSSIP_HISTORY", 2)
        sender = GlobalSnapshotBuilder(["p0", "p1"], "p1")
        for n in range(1, 5):
            sender.on_local_commit(tid(n), n, ("p0", "p1"), is_global=True)
        payload = sender.next_delta()
        assert payload.complete_from == 2  # versions 1 and 2 fell out
        assert [version for _, version, _ in payload.globals_committed] == [3, 4]
        assert payload == full_history_payload(sender)

    def test_overlapping_resync_reply_is_idempotent(self, sender, builder):
        for n in range(1, 5):
            sender.on_local_commit(tid(n), n, ("p0", "p1"), is_global=True)
        builder.on_gossip(sender.next_delta())
        commits = list(builder._commits["p1"])
        order = list(builder._txn_order)
        assert builder.on_gossip(sender.payload_since(0, resync=True)) is None
        assert builder._commits["p1"] == commits
        assert list(builder._txn_order) == order

    def test_out_of_order_payloads_keep_versions_ascending(self, builder):
        involved = ("p0", "p1")
        late = CommitGossip("p1", 2, ((tid(1), 1, involved), (tid(2), 2, involved)), 0)
        early = CommitGossip("p1", 4, ((tid(3), 3, involved), (tid(4), 4, involved)), 2)
        assert builder.on_gossip(early) == 0  # gap: nothing below 2 known
        assert builder.vector()["p1"] == 0
        assert builder.on_gossip(late) is None
        assert [v for v, _ in builder._commits["p1"]] == [1, 2, 3, 4]
        assert builder.on_gossip(early) is None  # a duplicate now connects
        assert builder._complete_through["p1"] == 4

    def test_split_child_connects_from_zero_without_a_resync(self):
        """absorb_migration jumps the counter; the child's own log has no
        commits below it, so its first delta spans (0, sc] truthfully."""
        child = GlobalSnapshotBuilder(["p0", "p1", "p2"], "p2")
        child.absorb_migration(40)
        child.on_local_commit(tid(1), 41, ("p1", "p2"), is_global=True)
        receiver = GlobalSnapshotBuilder(["p0", "p1"], "p0")
        delta = child.next_delta()
        assert (delta.complete_from, delta.sc) == (0, 41)
        assert receiver.on_gossip(delta) is None  # buffered: p2 unknown
        receiver.add_partition("p2")
        assert receiver._complete_through["p2"] == 41

    def test_merge_target_jump_stays_connected(self, sender, builder):
        sender.on_local_commit(tid(1), 1, ("p0", "p1"), is_global=True)
        assert builder.on_gossip(sender.next_delta()) is None
        sender.absorb_migration(7)  # the synthetic merge commit
        sender.on_local_commit(tid(2), 8, ("p0", "p1"), is_global=True)
        delta = sender.next_delta()
        assert (delta.complete_from, delta.sc) == (1, 8)
        assert builder.on_gossip(delta) is None
        assert builder._complete_through["p1"] == 8


class TestPropertyNeverSplits:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_vector_never_splits_a_global(self, data):
        """Under any interleaving of commits and partial gossip, the
        vector never includes a global at one partition and excludes it
        at another *once the inclusion is known to the builder*."""
        partitions = ["p0", "p1", "p2"]
        builder = GlobalSnapshotBuilder(partitions, "p0")
        rng = random.Random(data.draw(st.integers(0, 2**20)))
        num_txns = data.draw(st.integers(1, 25))
        # Generate a ground-truth history: each global txn gets a commit
        # version in each involved partition.
        versions = {p: 0 for p in partitions}
        truth = {}
        for n in range(num_txns):
            involved = tuple(sorted(rng.sample(partitions, 2)))
            commit_at = {}
            for p in involved:
                versions[p] += 1
                commit_at[p] = versions[p]
            truth[tid(n)] = (involved, commit_at)
        # Deliver faithful gossip: each partition advertises a random
        # number of prefixes of its history, each listing EVERY global
        # up to its sc (the real payload's completeness contract).
        for p in partitions:
            for _ in range(rng.randrange(0, 3)):
                point = rng.randint(0, versions[p])
                globals_upto = tuple(
                    (txn_id, commit_at[q], involved)
                    for txn_id, (involved, commit_at) in truth.items()
                    for q in involved
                    if q == p and commit_at[q] <= point
                )
                builder.on_gossip(
                    CommitGossip(
                        partition=p,
                        sc=point,
                        globals_committed=globals_upto,
                        complete_from=0,
                    )
                )
        vector = builder.vector()
        for txn_id, (involved, commit_at) in truth.items():
            visible = [vector.get(p, 0) >= commit_at[p] for p in involved]
            if any(visible):
                assert all(visible), f"{txn_id} split by vector {vector}"

    def test_incomplete_gossip_does_not_advance_usable_counter(self, builder):
        """A payload whose completeness range does not connect to the
        watermark must not let sc leak into the vector (it could hide
        un-listed globals)."""
        builder.on_gossip(
            CommitGossip(partition="p1", sc=10, complete_from=5)  # gap: (5, 10]
        )
        assert builder.vector()["p1"] == 0
        # Once the gap is filled, the counter becomes usable.
        builder.on_gossip(CommitGossip(partition="p1", sc=5, complete_from=0))
        builder.on_gossip(CommitGossip(partition="p1", sc=10, complete_from=5))
        assert builder.vector()["p1"] == 10


PARTITIONS = ["p0", "p1", "p2"]


class _FaultyGossipRun:
    """Two receivers of the same history, both replicas of ``p0``.

    ``delta`` gets what production sends — per-tick deltas, each dropped,
    duplicated or delayed (and so reordered) as the script says, plus the
    resync replies it asks for, which can be lost or delayed too.
    ``twin`` gets the whole-history oracle payload of every tick,
    reliably: the protocol this one replaced.
    """

    def __init__(self, txns):
        self.senders = {p: GlobalSnapshotBuilder(PARTITIONS, p) for p in ("p1", "p2")}
        self.delta = GlobalSnapshotBuilder(PARTITIONS, "p0")
        self.twin = GlobalSnapshotBuilder(PARTITIONS, "p0")
        self.involved = dict(enumerate(txns))
        self.queues = {
            p: [n for n, involved in self.involved.items() if p in involved]
            for p in PARTITIONS
        }
        self.version = {p: 0 for p in PARTITIONS}
        self.committed_at = {n: {} for n in self.involved}
        self.in_flight = []
        self.resyncs = 0

    def commit_next(self, partition):
        if not self.queues[partition]:
            return
        n = self.queues[partition].pop(0)
        self.version[partition] += 1
        version = self.version[partition]
        self.committed_at[n][partition] = version
        involved = self.involved[n]
        receivers = (
            (self.delta, self.twin) if partition == "p0" else (self.senders[partition],)
        )
        for builder in receivers:
            builder.on_local_commit(tid(n), version, involved, len(involved) > 1)
        self.check_no_global_is_split()

    def tick(self, partition, fate, resync_fate):
        sender = self.senders[partition]
        self.twin.on_gossip(full_history_payload(sender))
        msg = sender.next_delta()
        if fate == "delay":
            self.in_flight.append(msg)
        elif fate != "drop":
            for _ in range(2 if fate == "duplicate" else 1):
                self.deliver(msg, resync_fate)
        self.check_no_global_is_split()

    def deliver_delayed(self, index, resync_fate):
        if self.in_flight:
            self.deliver(self.in_flight.pop(index % len(self.in_flight)), resync_fate)

    def deliver(self, msg, resync_fate):
        have_through = self.delta.on_gossip(msg)
        self.check_no_global_is_split()
        if have_through is None or msg.resync:
            return
        self.resyncs += 1
        if resync_fate == "drop":
            return
        reply = self.senders[msg.partition].payload_since(have_through, resync=True)
        if resync_fate == "delay":
            self.in_flight.append(reply)
        else:
            self.deliver(reply, "drop")

    def complete_resync(self):
        """One more tick from every sender, delivered, and its repair."""
        for partition, sender in self.senders.items():
            self.twin.on_gossip(full_history_payload(sender))
            have_through = self.delta.on_gossip(sender.next_delta())
            if have_through is not None:
                reply = sender.payload_since(have_through, resync=True)
                assert self.delta.on_gossip(reply) is None
        self.check_no_global_is_split()

    def check_no_global_is_split(self):
        for builder in (self.delta, self.twin):
            vector = builder.vector()
            for n, involved in self.involved.items():
                if len(involved) < 2:
                    continue
                at = self.committed_at[n]
                visible = [p in at and vector[p] >= at[p] for p in involved]
                assert all(visible) or not any(visible), (
                    f"{tid(n)} {at} split by {vector}"
                )


_TXNS = st.lists(
    st.sets(st.sampled_from(PARTITIONS), min_size=1, max_size=3).map(
        lambda s: tuple(sorted(s))
    ),
    min_size=1,
    max_size=20,
)
_FATES = st.sampled_from(["deliver", "deliver", "drop", "duplicate", "delay"])
_RESYNC_FATES = st.sampled_from(["answer", "answer", "drop", "delay"])
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.sampled_from(PARTITIONS)),
        st.tuples(st.just("tick"), st.sampled_from(["p1", "p2"]), _FATES, _RESYNC_FATES),
        st.tuples(st.just("delayed"), st.integers(0, 7), _RESYNC_FATES),
    ),
    max_size=80,
)


class TestPropertyDeltaMatchesFullHistory:
    @settings(max_examples=200, deadline=None)
    @given(txns=_TXNS, steps=_STEPS)
    def test_faulty_delta_stream_never_splits_and_converges_to_the_oracle(
        self, txns, steps
    ):
        run = _FaultyGossipRun(txns)
        for step in steps:
            if step[0] == "commit":
                run.commit_next(step[1])
            elif step[0] == "tick":
                run.tick(*step[1:])
            else:
                run.deliver_delayed(*step[1:])
        run.complete_resync()
        assert run.delta.vector() == run.twin.vector()
        assert run.delta._complete_through == run.twin._complete_through
        # Stragglers arriving after the repair change nothing.
        while run.in_flight:
            run.deliver_delayed(0, "drop")
        assert run.delta.vector() == run.twin.vector()

    def test_a_lost_tick_costs_one_resync_not_a_split(self):
        run = _FaultyGossipRun([("p0", "p1"), ("p1", "p2"), ("p0", "p1")])
        for partition in ("p0", "p1", "p1", "p2"):
            run.commit_next(partition)
        run.tick("p1", "drop", "answer")
        run.commit_next("p1")
        run.commit_next("p0")
        run.tick("p1", "deliver", "answer")
        assert run.resyncs == 1
        run.tick("p2", "deliver", "answer")
        assert run.delta.vector() == run.twin.vector() == {"p0": 2, "p1": 3, "p2": 1}
