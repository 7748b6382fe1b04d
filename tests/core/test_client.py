"""Unit tests for the client protocol core (Algorithm 1).

These run against a real (small) simulated cluster — the client is a
protocol core, so exercising it without servers would test nothing — but
each test targets one client-side behaviour.
"""

from unittest.mock import patch

import pytest

from repro.core import client as client_module
from repro.core.client import ClientConfig, Read, ReadMany, SdurClient
from repro.core.directory import ClusterDirectory
from repro.core.messages import CommitRequest, OutcomeNotice, ReadRequest, ReadResponse
from repro.core.partitioning import PartitionMap
from repro.core.transaction import Outcome
from repro.errors import ProtocolError
from repro.net.topology import Topology
from tests.conftest import make_cluster, run_txn, update_program
from tests.oracles.stub_runtime import StubRuntime


@pytest.fixture
def cluster():
    cluster = make_cluster(num_partitions=2)
    cluster.seed({"0/a": 10, "0/b": 20, "1/c": 30})
    return cluster


@pytest.fixture
def client(cluster):
    client = cluster.add_client()
    cluster.start()
    cluster.world.run_for(0.5)
    return client


class TestReads:
    def test_single_read(self, cluster, client):
        seen = {}

        def program(txn):
            seen["a"] = yield Read("0/a")

        result = run_txn(cluster, client, program, read_only=True)
        assert result.committed
        assert seen["a"] == 10

    def test_read_many_parallel(self, cluster, client):
        seen = {}

        def program(txn):
            values = yield ReadMany(("0/a", "0/b"))
            seen.update(values)

        run_txn(cluster, client, program, read_only=True)
        assert seen == {"0/a": 10, "0/b": 20}

    def test_read_many_deduplicates(self, cluster, client):
        def program(txn):
            values = yield ReadMany(("0/a", "0/a", "0/b"))
            assert set(values) == {"0/a", "0/b"}

        assert run_txn(cluster, client, program, read_only=True).committed

    def test_read_your_own_write_from_buffer(self, cluster, client):
        observed = {}

        def program(txn):
            value = yield Read("0/a")
            txn.write("0/a", value + 5)
            observed["reread"] = yield Read("0/a")  # from the local buffer
            txn.write("0/a", observed["reread"] + 5)

        result = run_txn(cluster, client, program)
        assert result.committed
        assert observed["reread"] == 15
        assert result.writes["0/a"] == 20

    def test_unknown_key_reads_as_none(self, cluster, client):
        seen = {}

        def program(txn):
            seen["v"] = yield Read("0/never-written")

        run_txn(cluster, client, program, read_only=True)
        assert seen["v"] is None

    def test_snapshot_pinned_by_first_read(self, cluster, client):
        """All reads of a partition see one consistent snapshot even if
        commits land between them."""
        other = cluster.clients  # noqa: F841 - doc only

        def program(txn):
            a = yield Read("0/a")
            # A concurrent writer commits between our reads:
            writer_done = []
            writer = cluster.add_client()
            writer.execute(update_program(["0/a", "0/b"]), writer_done.append)
            # drive until the writer commits
            while not writer_done:
                cluster.world.kernel.step()
            b = yield Read("0/b")
            assert (a, b) == (10, 20), "snapshot must not move mid-transaction"

        result = run_txn(cluster, client, program, read_only=True)
        assert result.committed


class TestWrites:
    def test_blind_write_rejected(self, cluster, client):
        def program(txn):
            txn.write("0/a", 99)
            yield Read("0/b")

        with pytest.raises(ProtocolError, match="blind write"):
            run_txn(cluster, client, program)

    def test_write_in_read_only_txn_rejected(self, cluster, client):
        def program(txn):
            value = yield Read("0/a")
            txn.write("0/a", value)

        with pytest.raises(ProtocolError, match="read-only"):
            run_txn(cluster, client, program, read_only=True)


class TestTermination:
    def test_update_commits_and_applies(self, cluster, client):
        result = run_txn(cluster, client, update_program(["0/a"]))
        assert result.outcome is Outcome.COMMIT
        store = cluster.servers["s1"].server.store
        assert store.read_latest("0/a")[1] == 11

    def test_pure_read_commits_without_termination_messages(self, cluster, client):
        sent_before = cluster.world.network.messages_sent

        def program(txn):
            yield Read("0/a")

        result = run_txn(cluster, client, program, read_only=True)
        assert result.committed
        sent = cluster.world.network.messages_sent - sent_before
        assert sent <= 4  # request + response (+ routing slack); no broadcast

    def test_global_transaction_spans_partitions(self, cluster, client):
        result = run_txn(cluster, client, update_program(["0/a", "1/c"]))
        assert result.committed
        assert result.is_global
        assert result.partitions == ("p0", "p1")
        assert cluster.servers["s4"].server.store.read_latest("1/c")[1] == 31

    def test_result_records_read_versions(self, cluster, client):
        run_txn(cluster, client, update_program(["0/a"]))
        result = run_txn(cluster, client, update_program(["0/a"]))
        assert result.read_versions["0/a"] >= 1  # saw the first commit

    def test_labels_propagate(self, cluster, client):
        result = run_txn(cluster, client, update_program(["0/a"]), label="mine")
        assert result.label == "mine"

    def test_sequential_tids_unique(self, cluster, client):
        r1 = run_txn(cluster, client, update_program(["0/a"]))
        r2 = run_txn(cluster, client, update_program(["0/a"]))
        assert r1.tid != r2.tid
        assert r2.tid.seq > r1.tid.seq


class TestConfigPull:
    def test_lost_config_reply_does_not_stop_later_pulls(self, cluster, client):
        """A read response carrying a newer epoch makes the client pull
        the change log.  If that pull (or its reply) is lost, a later
        epoch-bearing response must pull again — the debounce expires —
        instead of leaving the client on the old routing until an abort
        and a ``StaleEpochNotice`` teach it."""
        from repro.core.client import CONFIG_PULL_RETRY
        from repro.reconfig.messages import ConfigSnapshot

        cluster.split_partition("p0")
        cluster.world.run_for(2.0)
        dropped = []

        def lossy(src, msg):
            if isinstance(msg, ConfigSnapshot) and not dropped:
                dropped.append(msg)
                return
            client.handle(src, msg)

        client.runtime.listen(lossy)

        def program(txn):
            yield Read("1/c")  # p1 is untouched by the split, but knows of it

        assert run_txn(cluster, client, program, read_only=True).committed
        cluster.world.run_for(0.5)
        assert dropped and client.routing.epoch == 0
        # Inside the debounce window a second response does not pull again.
        assert run_txn(cluster, client, program, read_only=True).committed
        cluster.world.run_for(CONFIG_PULL_RETRY)
        assert client.routing.epoch == 0 and len(dropped) == 1
        assert run_txn(cluster, client, program, read_only=True).committed
        cluster.world.run_for(0.5)
        assert client.routing.epoch == 1


class TestOneReadPath:
    """``Read(k)`` is a ``ReadMany`` of one whose result is unwrapped:
    the two spellings send the same messages and finish with the same
    ``TxnResult``, fault or no fault.  Driven by hand on the stub
    runtime — its timers never fire on their own; the newest is called."""

    def run(self, spelling, fault):
        runtime = StubRuntime("c1")
        directory = ClusterDirectory(
            partitions={"p0": ["s1", "s2", "s3"]}, preferred={"p0": "s1"}
        )
        config = ClientConfig(session_server="s1", read_timeout=1.0)
        with patch.object(client_module, "BACKOFF_JITTER", 0.0):
            client = SdurClient(runtime, directory, PartitionMap.by_index(1), config)

        def program(txn):
            if spelling == "Read":
                value = yield Read("0/k")
            else:
                value = (yield ReadMany(("0/k",)))["0/k"]
            txn.write("0/k", value + 1)

        def answer(op_id, snapshot):
            client.handle(
                runtime.sent[-1][0],
                ReadResponse(
                    tid=tid, op_id=op_id, key="0/k", value=7, snapshot=snapshot,
                    item_version=snapshot, partition="p0",
                ),
            )

        results = []
        tid = client.execute(program, results.append)
        if fault == "timeout":
            runtime.clock = 1.0
            runtime.timers[-1][1]()
        elif fault == "torn":
            # Any response of the transaction pins its partition's
            # snapshot; the read's own answer then names another one.
            answer(op_id=99, snapshot=2)
            answer(op_id=0, snapshot=3)
        answer(op_id=1 if fault == "torn" else 0, snapshot=2)
        client.handle("s1", OutcomeNotice(tid=tid, outcome="commit", partition="p0"))
        return runtime.sent, results, set(client._suspected)

    @pytest.mark.parametrize(
        "fault, read_targets, suspected",
        [
            (None, ["s1"], set()),
            # Suspecting s1 ranks it last; attempt 1 of [s2, s3, s1] is s3.
            ("timeout", ["s1", "s3"], {"s1"}),
            ("torn", ["s1", "s1"], set()),
        ],
    )
    def test_read_and_read_many_of_one_are_the_same_transaction(
        self, fault, read_targets, suspected
    ):
        sent, results, suspects = self.run("Read", fault)
        assert (sent, results, suspects) == self.run("ReadMany", fault)
        reads = [(dst, msg) for dst, msg in sent if isinstance(msg, ReadRequest)]
        assert [dst for dst, _ in reads] == read_targets and suspects == suspected
        # The re-read after a torn first contact is a new op at the pin.
        assert [(m.op_id, m.snapshot) for _, m in reads][-1] == (
            (1, 2) if fault == "torn" else (0, None)
        )
        (result,) = results
        assert result.committed and result.read_versions == {"0/k": 2}
        assert result.writes == {"0/k": 8}


class TestOneRequestPerPartition:
    """A yielded read becomes one request per partition; a read-only
    transaction's vector rides the answer to its first one.  Driven by
    hand on the stub runtime."""

    def client(self, session="s1"):
        runtime = StubRuntime("c1")
        directory = ClusterDirectory(
            partitions={"p0": ["s1", "s2", "s3"], "p1": ["s4", "s5", "s6"]},
            preferred={"p0": "s1", "p1": "s4"},
        )
        config = ClientConfig(session_server=session, read_timeout=1.0)
        with patch.object(client_module, "BACKOFF_JITTER", 0.0):
            return runtime, SdurClient(runtime, directory, PartitionMap.by_index(2), config)

    @staticmethod
    def requests(runtime):
        return [(dst, msg) for dst, msg in runtime.sent if isinstance(msg, ReadRequest)]

    def test_read_only_vector_rides_the_session_partitions_read(self):
        runtime, client = self.client(session="s4")
        seen, results = {}, []

        def program(txn):
            seen.update((yield ReadMany(("0/a", "1/x", "0/b"))))

        tid = client.execute(program, results.append, read_only=True)
        # The session server's partition goes first and asks for the
        # vector; p0's keys wait for it.
        ((dst, first),) = self.requests(runtime)
        assert (dst, first.keys, first.snapshot, first.want_vector) == ("s4", ("1/x",), None, True)
        client.handle("s4", ReadResponse(
            tid=tid, op_id=first.op_id, key="1/x", value="x", snapshot=9, item_version=8,
            partition="p1", vector={"p0": 4, "p1": 9},
        ))
        ((dst, second),) = self.requests(runtime)[1:]
        assert (dst, second.keys, second.snapshot, second.want_vector) == (
            "s1", ("0/a", "0/b"), 4, False
        )
        assert not results
        client.handle("s1", ReadResponse(
            tid=tid, op_id=second.op_id, key="0/a", value="a", snapshot=4, item_version=3,
            partition="p0", more=(("0/b", "b", 2),),
        ))
        (result,) = results
        assert result.committed and result.read_versions == {"1/x": 8, "0/a": 3, "0/b": 2}
        assert seen == {"0/a": "a", "1/x": "x", "0/b": "b"}
        assert len(self.requests(runtime)) == 2

    def test_one_request_answered_from_two_partitions(self):
        """A server whose newer map moved ``0/b`` forwards it; the new
        partition answers it under the same op id, and the read is whole
        only then."""
        runtime, client = self.client()
        results = []
        tid = client.execute(update_program(["0/a", "0/b"]), results.append)
        ((dst, request),) = self.requests(runtime)
        assert (dst, request.keys) == ("s1", ("0/a", "0/b"))
        client.handle("s1", ReadResponse(
            tid=tid, op_id=request.op_id, key="0/a", value=1, snapshot=5, item_version=5,
            partition="p0",
        ))
        (state,) = client._active.values()
        assert [op.keys for op in state.reads.values()] == [["0/b"]]
        client.handle("s7", ReadResponse(
            tid=tid, op_id=request.op_id, key="0/b", value=2, snapshot=5, item_version=4,
            partition="p2",
        ))
        # Whole: the program ran on, and ``0/b``'s new home sends the
        # transaction round again under the routing it will learn.
        assert client.stats.epoch_retries == 1 and not results


class TestCommitTarget:
    """A commit goes to the preferred server of the session server's
    partition, the coordinator Figure 1 draws; reads go to the nearest
    replica whatever the session.  Driven by hand on the stub runtime,
    with the client in the region of ``s3`` and ``s5``."""

    @staticmethod
    def commit(session, keys, suspected=()):
        """Run an update of ``keys`` to its commit request: the read
        targets, and the commit request's target and request."""
        runtime = StubRuntime("c1")
        topology = Topology()
        for node in ("c1", "s3", "s5", "gw"):
            topology.add(node, "west")
        for node in ("s1", "s2", "s4", "s6"):
            topology.add(node, "east")
        directory = ClusterDirectory(
            partitions={"p0": ["s1", "s2", "s3"], "p1": ["s4", "s5", "s6"]},
            preferred={"p0": "s1", "p1": "s4"},
            topology=topology,
        )
        client = SdurClient(
            runtime, directory, PartitionMap.by_index(2), ClientConfig(session_server=session)
        )
        for server in suspected:
            client._suspect(server)
        tid = client.execute(update_program(list(keys)), lambda result: None)
        reads = [(dst, msg) for dst, msg in runtime.sent if isinstance(msg, ReadRequest)]
        for dst, request in reads:
            client.handle(dst, ReadResponse(
                tid=tid, op_id=request.op_id, key=request.keys[0], value=0, snapshot=1,
                item_version=1, partition=f"p{request.keys[0][0]}",
            ))
        ((target, request),) = [
            (dst, msg) for dst, msg in runtime.sent if isinstance(msg, CommitRequest)
        ]
        return [dst for dst, _ in reads], target, request

    def test_a_follower_session_commits_at_its_partitions_preferred_server(self):
        # The follower would forward a ClientPropose to s1 and answer
        # only after s1's Chosen reached it: two hops more than Figure 1.
        for keys in (["0/a"], ["1/x"], ["0/a", "1/x"]):
            reads, target, request = self.commit("s2", keys)
            assert reads == [{"0": "s3", "1": "s5"}[key[0]] for key in keys]
            assert target == "s1"
            assert {p.coordinator for p in request.projections.values()} == {"s1"}

    def test_a_suspected_preferred_server_gives_way_to_the_nearest_responsive_replica(self):
        _, target, request = self.commit("s2", ["0/a"], suspected=["s1"])
        assert target == "s3"
        assert request.projections["p0"].coordinator == "s3"
        _, target, _ = self.commit("s2", ["0/a"], suspected=["s1", "s3"])
        assert target == "s2"

    def test_a_session_server_of_no_partition_keeps_the_commit(self):
        _, target, request = self.commit("gw", ["0/a", "1/x"])
        assert target == "gw"
        assert {p.coordinator for p in request.projections.values()} == {"gw"}
