"""Integration-grade tests for the MultiPaxos replica (on the sim runtime)."""

from unittest.mock import patch

import pytest

from repro.consensus import replica as replica_module
from repro.consensus.messages import Accept, Accepted, Batch, Chosen, LearnRequest
from repro.consensus.replica import PaxosConfig, PaxosReplica
from repro.errors import ConfigurationError
from repro.net.codec import decode_packed
from repro.runtime.sim import SimWorld
from repro.storage.wal import WriteAheadLog


def make_group(
    world: SimWorld,
    members=("a", "b", "c"),
    static_leader="a",
    config: PaxosConfig | None = None,
    wals: dict | None = None,
):
    delivered = {m: [] for m in members}
    replicas = {}
    for member in members:
        runtime = world.runtime_for(member)
        member_config = config or PaxosConfig(static_leader=static_leader)
        if wals is not None:
            from dataclasses import replace

            member_config = replace(member_config, wal=wals[member])
        replica = PaxosReplica(
            runtime,
            "g",
            list(members),
            member_config,
            on_deliver=lambda i, v, m=member: delivered[m].append((i, v)),
        )
        runtime.listen(lambda src, msg, r=replica: r.handle(src, msg))
        replicas[member] = replica
    return replicas, delivered


class TestBasicAgreement:
    def test_single_value_delivered_everywhere(self, world):
        replicas, delivered = make_group(world)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        replicas["a"].propose("v0")
        world.run(until=2.0)
        assert all(delivered[m] == [(0, "v0")] for m in delivered)

    def test_stream_of_values_totally_ordered(self, world):
        replicas, delivered = make_group(world)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        for i in range(20):
            replicas["a"].propose(f"v{i}")
            world.run_for(0.0)  # the turn closes: one instance per value
        world.run(until=5.0)
        expected = [(i, f"v{i}") for i in range(20)]
        assert all(delivered[m] == expected for m in delivered)

    def test_follower_proposals_forwarded_to_leader(self, world):
        replicas, delivered = make_group(world)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        replicas["b"].propose("from-b")
        replicas["c"].propose("from-c")
        world.run(until=2.0)
        values = [v for _, v in delivered["a"]]
        assert sorted(values) == ["from-b", "from-c"]
        assert delivered["a"] == delivered["b"] == delivered["c"]

    def test_interleaved_proposals_from_all_members_agree(self, world):
        replicas, delivered = make_group(world)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        for i in range(9):
            proposer = list(replicas.values())[i % 3]
            proposer.propose(f"v{i}")
            world.run_for(0.002)
        world.run(until=3.0)
        assert delivered["a"] == delivered["b"] == delivered["c"]
        assert len(delivered["a"]) == 9

    def test_values_survive_codec_roundtrip(self):
        world = SimWorld(seed=2, codec_roundtrip=True)
        replicas, delivered = make_group(world)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        replicas["a"].propose({"nested": ["structure", 1, (2, 3)]})
        world.run(until=2.0)
        assert delivered["b"][0][1] == {"nested": ["structure", 1, (2, 3)]}


class TestMembership:
    def test_non_member_rejected(self, world):
        with pytest.raises(ConfigurationError):
            PaxosReplica(world.runtime_for("zz"), "g", ["a", "b", "c"])

    def test_quorum_size(self, world):
        replicas, _ = make_group(world)
        assert replicas["a"].quorum == 2


class TestFaultTolerance:
    def test_progress_with_one_follower_down(self, world):
        replicas, delivered = make_group(world)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        world.crash("c")
        replicas["a"].propose("v")
        world.run(until=2.0)
        assert delivered["a"] == [(0, "v")]
        assert delivered["b"] == [(0, "v")]

    def test_no_progress_without_quorum(self, world):
        replicas, delivered = make_group(world)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        world.crash("b")
        world.crash("c")
        replicas["a"].propose("v")
        world.run(until=5.0)
        assert delivered["a"] == []

    def test_leader_failover_preserves_chosen_values(self, world):
        config = PaxosConfig(
            static_leader=None, heartbeat_interval=0.05, suspect_timeout=0.2
        )
        replicas, delivered = make_group(world, config=config)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        replicas["a"].propose("before-crash")
        world.run(until=2.0)
        world.crash("a")
        world.run(until=4.0)  # let b take over and finish phase 1
        replicas["b"].propose("after-crash")
        world.run(until=6.0)
        assert delivered["b"] == [(0, "before-crash"), (1, "after-crash")]
        assert delivered["c"] == delivered["b"]

    def test_new_leader_adopts_value_accepted_by_minority(self, world):
        """A value accepted at some acceptor must survive leader change."""
        config = PaxosConfig(
            static_leader=None, heartbeat_interval=0.05, suspect_timeout=0.2
        )
        replicas, delivered = make_group(world, config=config)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        # Cut a<->c so only b (and a) accept; then crash a before Chosen
        # reaches anyone else... simpler: propose and crash the leader
        # immediately so 2b handling is underway.
        replicas["a"].propose("maybe-chosen")
        world.run_for(0.0015)  # Accept has reached b, 2b in flight
        world.crash("a")
        world.run(until=5.0)
        survivors = delivered["b"]
        if survivors:  # if recovered, it must be the original value
            assert survivors[0][1] in ("maybe-chosen",)
            assert delivered["c"] == delivered["b"]

    def test_message_loss_recovered_by_retries(self):
        world = SimWorld(seed=5, loss_probability=0.2)
        config = PaxosConfig(static_leader="a")
        with patch.multiple(replica_module, ACCEPT_RETRY=0.3, PHASE1_RETRY=0.3):
            replicas, delivered = make_group(world, config=config)
            for replica in replicas.values():
                replica.start()
            world.run(until=2.0)
            for i in range(10):
                replicas["a"].propose(f"v{i}")
            world.run(until=20.0)
        values = [v for _, v in delivered["a"]]
        assert values == [f"v{i}" for i in range(10)]
        assert delivered["b"] == delivered["a"]


class TestLearningStrategies:
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_both_strategies_agree(self, broadcast):
        world = SimWorld(seed=3)
        config = PaxosConfig(static_leader="a", accepted_broadcast=broadcast)
        replicas, delivered = make_group(world, config=config)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        for i in range(5):
            replicas["b"].propose(f"v{i}")
            world.run_for(0.001)  # each forward reaches the leader in its own turn
        world.run(until=3.0)
        expected = [(i, f"v{i}") for i in range(5)]
        assert all(delivered[m] == expected for m in delivered)

    def test_broadcast_learning_is_faster_for_followers(self):
        def follower_latency(broadcast):
            world = SimWorld(seed=3)
            config = PaxosConfig(static_leader="a", accepted_broadcast=broadcast)
            replicas, delivered = make_group(world, config=config)
            for replica in replicas.values():
                replica.start()
            world.run(until=1.0)
            start = world.now
            replicas["a"].propose("v")
            while not delivered["b"]:
                world.kernel.step()
            return world.now - start

        assert follower_latency(broadcast=True) < follower_latency(broadcast=False)


class TestDurability:
    def test_wal_recovery_replays_deliveries(self, world):
        wals = {m: WriteAheadLog() for m in ("a", "b", "c")}
        replicas, delivered = make_group(world, wals=wals)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        for i in range(3):
            replicas["a"].propose(f"v{i}")
            world.run_for(0.0)
        world.run(until=2.0)
        assert len(delivered["a"]) == 3
        # "Restart" node a: a fresh replica recovering from the same WAL.
        world2 = SimWorld(seed=9)
        for peer in ("b", "c"):
            world2.runtime_for(peer).listen(lambda src, msg: None)
        redelivered = []
        runtime = world2.runtime_for("a")
        recovered = PaxosReplica(
            runtime,
            "g",
            ["a", "b", "c"],
            PaxosConfig(static_leader="a", wal=wals["a"]),
            on_deliver=lambda i, v: redelivered.append((i, v)),
        )
        runtime.listen(lambda src, msg: recovered.handle(src, msg))
        recovered.start()
        assert redelivered == [(i, f"v{i}") for i in range(3)]
        assert recovered.log.next_to_deliver == 3

    def test_wal_survives_file_roundtrip(self, tmp_path):
        world = SimWorld(seed=4)
        wal_paths = {m: tmp_path / f"{m}.wal" for m in ("a", "b", "c")}
        wals = {m: WriteAheadLog(path) for m, path in wal_paths.items()}
        replicas, delivered = make_group(world, wals=wals)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        replicas["a"].propose("durable")
        world.run(until=2.0)
        for wal in wals.values():
            wal.close()
        reopened = WriteAheadLog(wal_paths["b"])
        assert len(reopened) == 1
        reopened.close()

    @staticmethod
    def _recover(wal: WriteAheadLog):
        """A fresh replica of node ``a`` started from ``wal`` alone."""
        world = SimWorld(seed=9)
        redelivered = []
        runtime = world.runtime_for("a")
        replica = PaxosReplica(
            runtime, "g", ["a", "b", "c"], PaxosConfig(static_leader="b", wal=wal),
            on_deliver=lambda i, v: redelivered.append((i, v)),
        )
        replica.start()
        return replica, redelivered

    def test_file_wal_replays_to_the_identical_log(self, tmp_path):
        """Records are an 8-byte instance + the wire codec's image of the
        value: what the shipped replica wrote, a reopened file replays."""
        from repro.consensus.messages import Batch, PaxosNoop
        from tests.net.test_wire_coverage import BLOOM_PROJ, PROJ, SAMPLES

        values = [PROJ, BLOOM_PROJ, Batch(values=(PROJ, "v", 7)), PaxosNoop(), "plain", *SAMPLES]
        world = SimWorld(seed=4)
        paths = {m: tmp_path / f"{m}.wal" for m in ("a", "b", "c")}
        wals = {m: WriteAheadLog(path) for m, path in paths.items()}
        replicas, delivered = make_group(world, wals=wals)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        for value in values:
            replicas["a"].propose(value)
            world.run_for(0.0)
        world.run(until=5.0)
        for wal in wals.values():
            wal.close()
        assert replicas["a"].log.next_to_deliver == len(values)

        with WriteAheadLog(paths["a"]) as reopened:
            records = list(reopened)
            recovered, redelivered = self._recover(reopened)
        # What the original wrote (its log has forgotten the delivered
        # prefix; the WAL keeps it).
        assert [int.from_bytes(record[:8], "big") for record in records] == list(
            range(len(values))
        )
        written = [decode_packed(record[8:]) for record in records]
        assert written == values and list(map(type, written)) == list(map(type, values))
        assert recovered.log.next_to_deliver == len(values)
        for instance, value in enumerate(values):
            replayed = recovered.log.state(instance)
            assert replayed.chosen and replayed.chosen_value == value
            assert type(replayed.chosen_value) is type(value)
        assert redelivered == delivered["a"]

    def test_a_crc_valid_record_that_does_not_decode_fails_loudly(self, tmp_path):
        """The WAL's CRC guards the disk, not the writer: a record whose
        bytes were wrong when they were written is named, not skipped."""
        from repro.errors import CodecError, StorageError
        from repro.net.codec import encode_packed
        from tests.net.test_wire_coverage import PROJ

        good = encode_packed(PROJ)
        flipped = bytearray(good)
        flipped[0] ^= 0x20  # the type tag: 'M' -> 'm'
        path = tmp_path / "a.wal"
        with WriteAheadLog(path) as wal:
            wal.append((0).to_bytes(8, "big") + good)
            wal.append((1).to_bytes(8, "big") + bytes(flipped))
        with WriteAheadLog(path) as reopened:  # both CRCs hold
            assert len(reopened) == 2
            with pytest.raises(StorageError, match=r"record 1 \(instance 1\) of group g") as info:
                self._recover(reopened)
        assert isinstance(info.value.__cause__, CodecError)
        # Too short to hold an instance and a value: the same failure.
        with WriteAheadLog() as wal:
            wal.append(b"\x00\x00\x07")
            with pytest.raises(StorageError, match=r"record 0 \(instance 7\)"):
                self._recover(wal)


def tap(world: SimWorld, node: str, replica: PaxosReplica) -> list:
    """Record ``(src, msg)`` for every message ``node`` receives."""
    heard = []

    def handler(src, msg):
        heard.append((src, msg))
        replica.handle(src, msg)

    world.runtime_for(node).listen(handler)
    return heard


def of_type(heard, cls):
    return [(src, msg) for src, msg in heard if isinstance(msg, cls)]


class TestValueFreeVotesAndDecisions:
    """Point-to-point ``Accepted`` and the ``Chosen`` relay name the value
    by ``(ballot, instance)`` instead of carrying it (PROTOCOL.md §4)."""

    @pytest.fixture
    def no_timers(self):
        """No timer can rescue a follower: what delivers is the protocol."""
        with patch.multiple(
            replica_module, CATCHUP_INTERVAL=60.0, COMMIT_INDEX_INTERVAL=60.0, ACCEPT_RETRY=60.0
        ):
            yield

    def test_loss_free_path_carries_the_value_once(self, world):
        replicas, delivered = make_group(world)
        heard = {m: tap(world, m, replicas[m]) for m in replicas}
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        replicas["a"].propose("v0")
        world.run(until=2.0)
        assert all(delivered[m] == [(0, "v0")] for m in delivered)
        votes = of_type(heard["a"], Accepted)
        assert len(votes) == 3 and all(msg.value is None for _, msg in votes)
        for follower in ("b", "c"):
            [(src, chosen)] = of_type(heard[follower], Chosen)
            assert src == "a" and chosen.value is None and chosen.ballot == (1, 0)
            assert not of_type(heard["a"], LearnRequest)
            # One value object, not an accepted and a chosen copy.
            entry = replicas[follower].log.state(0)
            assert entry.chosen_value is entry.accepted_value

    def test_follower_that_missed_the_accept_asks_once_and_delivers(self, world, no_timers):
        config = PaxosConfig(static_leader="a")
        replicas, delivered = make_group(world, config=config)
        heard_a = tap(world, "a", replicas["a"])
        heard_c = tap(world, "c", replicas["c"])
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        world.network.cut_link("a", "c")
        replicas["a"].propose("v0")
        world.run_for(0.0)  # the turn closes and the Accept to c is lost
        world.network.heal_link("a", "c")  # before a has a quorum to relay
        world.run(until=2.0)
        assert not of_type(heard_c, Accept)
        learn = [msg for src, msg in of_type(heard_a, LearnRequest) if src == "c"]
        assert [(m.from_instance, m.to_instance) for m in learn] == [(0, 0)]
        named, carried = [msg for _, msg in of_type(heard_c, Chosen)]
        assert (named.value, named.ballot) == (None, (1, 0))
        assert (carried.value, carried.ballot) == ("v0", None)
        assert delivered["c"] == delivered["a"] == delivered["b"] == [(0, "v0")]

    def test_chosen_at_another_ballot_than_accepted_is_asked_for_not_guessed(
        self, world, no_timers
    ):
        config = PaxosConfig(static_leader="a")
        replicas, delivered = make_group(world, config=config)
        heard_a = tap(world, "a", replicas["a"])
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        follower = replicas["c"]
        b1, b2 = (1, 0), (2, 0)
        follower.handle("a", Accept(group="g", ballot=b1, instance=0, value="v"))
        follower.handle("a", Accept(group="g", ballot=b2, instance=0, value="v"))
        follower.handle("a", Chosen(group="g", instance=0, ballot=b1))
        assert delivered["c"] == [] and not follower.log.is_chosen(0)
        world.run(until=2.0)
        learn = [msg for src, msg in of_type(heard_a, LearnRequest) if src == "c"]
        assert [(m.from_instance, m.to_instance) for m in learn] == [(0, 0)]
        # Named at the ballot it did accept last, it needs no one's help.
        follower.handle("a", Chosen(group="g", instance=0, ballot=b2))
        assert delivered["c"] == [(0, "v")]

    def test_stale_value_free_vote_changes_nothing(self, world):
        """A vote captured before a failover, replayed into the next
        leader, names a ballot that leader never proposed at."""
        config = PaxosConfig(
            static_leader=None, heartbeat_interval=0.05, suspect_timeout=0.2
        )
        replicas, delivered = make_group(world, config=config)
        heard_a = tap(world, "a", replicas["a"])
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        assert replicas["a"].is_leader
        replicas["a"].propose("before")
        world.run(until=2.0)
        old_vote = next(msg for src, msg in of_type(heard_a, Accepted) if src == "c")
        world.crash("a")
        world.run(until=4.0)
        leader = next(r for m, r in replicas.items() if m != "a" and r.is_leader)
        leader.propose("after")
        world.run(until=5.0)
        assert old_vote.value is None and old_vote.ballot != leader._my_ballot

        def state():
            return (
                {
                    i: (e.chosen, e.chosen_value, dict(e.votes or {}))
                    for i, e in leader.log._instances.items()
                },
                leader.log.next_to_deliver,
                dict(leader._proposed),
            )

        before = state()
        # Same instance at the dead leader's ballot; an undecided instance
        # at it; and the current ballot for an instance already delivered
        # (so no longer in ``_proposed``).
        for vote in (
            old_vote,
            Accepted(group="g", ballot=old_vote.ballot, instance=7),
            Accepted(group="g", ballot=leader._my_ballot, instance=1),
        ):
            leader.handle("c", vote)
            leader.handle("a", vote)
        assert state() == before
        leader.propose("later")
        world.run(until=6.0)
        survivors = [delivered[m] for m in delivered if m != "a"]
        assert survivors[0] == survivors[1]
        assert [v for _, v in survivors[0]] == ["before", "after", "later"]

    def test_broadcast_votes_keep_the_value_and_learn_in_two_delays(self, no_timers):
        world = SimWorld(seed=3)
        config = PaxosConfig(static_leader="a", accepted_broadcast=True)
        replicas, delivered = make_group(world, config=config)
        heard_b = tap(world, "b", replicas["b"])
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        start = world.now
        replicas["a"].propose("v")
        while not delivered["b"]:
            world.kernel.step()
        # Accept (one delay), then the acceptors' broadcast votes (two).
        assert world.now - start == pytest.approx(0.002)
        votes = of_type(heard_b, Accepted)
        assert votes and all(msg.value == "v" for _, msg in votes)
        world.run(until=2.0)
        assert not of_type(heard_b, Chosen)
        assert all(delivered[m] == [(0, "v")] for m in delivered)


class TestWireSize:
    def test_votes_and_decisions_are_a_fraction_of_the_accept(self):
        """The two-key projection of ``benchmarks/e2e/micro.py``'s
        ``sample_messages()``, framed as the transport frames it."""
        from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection
        from repro.net.asyncio_transport import Envelope, _frame
        from repro.net.codec import encode_packed

        keys = ["0/obj8398", "0/obj1309"]
        value = TxnProjection(
            tid=TxnId("c0~0badcafe", 4242),
            partition="p0",
            readset=ReadsetDigest.exact(keys),
            writeset={key: 4242 for key in keys},
            snapshot=4200,
            partitions=("p0",),
            coordinator="s1",
            client="c0",
        )

        def framed(msg):
            return len(_frame(encode_packed(Envelope(src="s1", payload=msg))))

        accept = framed(
            Accept(group="p0", ballot=(1, 0), instance=4242, value=value, floor=4240)
        )
        accepted = framed(
            Accepted(group="p0", ballot=(1, 0), instance=4242, next_to_deliver=4241)
        )
        chosen = framed(Chosen(group="p0", instance=4242, ballot=(1, 0)))
        # Framed as tagged JSON, the earlier wire codec: 501 / 151 / 149 bytes.  The
        # group floor an Accept carries and the cursor an Accepted reports
        # (PROTOCOL.md §4, "What a replica forgets") are 8 bytes each:
        # 178 / 55 bytes before them, 186 / 63 with them.
        assert 150 < accept < 200
        assert accepted < 68 and chosen < 60


class TestTurnGroupCommit:
    """The leader closes one instance per loop turn (PROTOCOL.md §4)."""

    def test_a_runtime_without_turns_opens_one_instance_per_value(self):
        from tests.oracles.stub_runtime import StubRuntime

        runtimes = {m: StubRuntime(m) for m in "abc"}
        delivered = {m: [] for m in "abc"}
        replicas = {
            m: PaxosReplica(
                runtimes[m], "g", list("abc"), PaxosConfig(static_leader="a"),
                on_deliver=lambda i, v, m=m: delivered[m].append((i, v)),
            )
            for m in "abc"
        }

        def pump():
            while any(runtime.sent for runtime in runtimes.values()):
                for src, runtime in runtimes.items():
                    sent, runtime.sent = runtime.sent, []
                    for dst, msg in sent:
                        replicas[dst].handle(src, msg)

        for replica in replicas.values():
            replica.start()
        pump()  # Phase 1
        for i in range(3):
            replicas["a"].propose(f"v{i}")  # one turn, if there were turns
        accepts = [msg for dst, msg in runtimes["a"].sent if dst == "b"]
        assert [(m.instance, m.value) for m in accepts] == [(i, f"v{i}") for i in range(3)]
        pump()
        assert all(delivered[m] == [(i, f"v{i}") for i in range(3)] for m in "abc")

    def test_one_turn_of_proposals_is_one_batch_instance(self, world):
        replicas, delivered = make_group(world)
        heard_b = tap(world, "b", replicas["b"])
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        for i in range(3):
            replicas["a"].propose(f"v{i}")
        world.run(until=2.0)
        [(_, accept)] = of_type(heard_b, Accept)
        assert accept.value == Batch(values=("v0", "v1", "v2"))
        # Delivery unpacks it: one on_deliver per value, all at instance 0.
        assert all(delivered[m] == [(0, f"v{i}") for i in range(3)] for m in delivered)
        assert all(replica.log.next_to_deliver == 1 for replica in replicas.values())
        # A lone proposal in a later turn is a bare Accept.
        replicas["a"].propose("alone")
        world.run(until=3.0)
        assert of_type(heard_b, Accept)[-1][1].value == "alone"
        assert delivered["b"][-1] == (1, "alone")

    def test_leader_change_with_a_full_turn_buffer_reroutes_each_value_once(self):
        """``z`` leads, is cut off, ``a`` takes over; in the turn ``a``
        buffers three proposals, ``z``'s heartbeat arrives and ``a``
        steps down.  The turn's close re-routes every buffered value to
        the new leader exactly once and opens no instance."""
        from repro.consensus.messages import ClientPropose, Heartbeat

        world = SimWorld(seed=6)
        config = PaxosConfig(static_leader=None, heartbeat_interval=0.05, suspect_timeout=0.2)
        replicas, delivered = make_group(world, members=("z", "a", "b"), config=config)
        heard_z = tap(world, "z", replicas["z"])
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        for peer in ("a", "b"):
            world.network.cut_link("z", peer)
        world.run(until=2.0)
        a = replicas["a"]
        assert a.is_leader and a._phase1_complete
        for peer in ("a", "b"):
            world.network.heal_link("z", peer)
        values = ["v0", "v1", "v2"]
        for value in values:
            a.propose(value)
        a.elector.on_heartbeat("z", Heartbeat(group="g", leader_hint="z"))  # same turn
        assert a.leader == "z" and a._batch_buffer == values
        opened = a._next_instance
        world.run(until=2.5)
        assert a._batch_buffer == [] and a._next_instance == opened
        rerouted = [msg.value for src, msg in of_type(heard_z, ClientPropose) if src == "a"]
        assert rerouted == values

    def test_a_batch_instance_survives_wal_replay(self, world):
        wals = {m: WriteAheadLog() for m in "abc"}
        replicas, delivered = make_group(world, wals=wals)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        for i in range(3):
            replicas["a"].propose(f"v{i}")
        world.run(until=2.0)
        expected = [(0, f"v{i}") for i in range(3)]
        assert delivered["a"] == expected and len(wals["a"]) == 1
        recovered, redelivered = TestDurability._recover(wals["a"])
        assert redelivered == expected
        assert recovered.log.next_to_deliver == 1
        [record] = wals["a"]
        assert decode_packed(record[8:]) == Batch(values=("v0", "v1", "v2"))

    def test_a_batch_accepted_by_a_minority_is_adopted_by_the_next_leader(self):
        world = SimWorld(seed=7)
        config = PaxosConfig(static_leader=None, heartbeat_interval=0.05, suspect_timeout=0.2)
        replicas, delivered = make_group(world, config=config)
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        world.network.cut_link("a", "c")  # only b will hold the Accept
        replicas["a"].propose("v0")
        replicas["a"].propose("v1")
        while not replicas["b"].log.accepted_at_or_above(0):
            world.kernel.step()
        world.crash("a")  # before any vote comes back: nothing was chosen
        assert not any(delivered.values())
        world.run(until=4.0)
        assert replicas["b"].is_leader
        assert delivered["b"] == delivered["c"] == [(0, "v0"), (0, "v1")]
