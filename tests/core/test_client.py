"""Unit tests for the client protocol core (Algorithm 1).

These run against a real (small) simulated cluster — the client is a
protocol core, so exercising it without servers would test nothing — but
each test targets one client-side behaviour.
"""

import pytest

from repro.core.client import Read, ReadMany
from repro.core.transaction import Outcome
from repro.errors import ProtocolError
from tests.conftest import make_cluster, run_txn, update_program


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

    def test_blind_writes_allowed_when_disabled(self, cluster):
        client = cluster.add_client(enforce_no_blind_writes=False)
        cluster.start()
        cluster.world.run_for(0.5)

        def program(txn):
            yield Read("0/a")  # establishes the p0 snapshot
            txn.write("0/a", 1)
            txn.write("0/b", 2)  # blind, but allowed now

        assert run_txn(cluster, client, program).committed


class TestTermination:
    def test_update_commits_and_applies(self, cluster, client):
        result = run_txn(cluster, client, update_program(["0/a"]))
        assert result.outcome is Outcome.COMMIT
        store = cluster.servers["s1"].server.store
        assert store.read_latest("0/a").value == 11

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
        assert cluster.servers["s4"].server.store.read_latest("1/c").value == 31

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
