"""Read-only transactions and globally-consistent snapshots.

The classic invariant test: concurrent transfers move value between
accounts in *different partitions* (global updates preserve the total),
while read-only auditors repeatedly sum all accounts through snapshot
vectors.  Every audit must observe the exact invariant total — any torn
(split) global commit would break it.
"""

import pytest

from repro.core.client import ReadMany
from tests.conftest import make_cluster, run_txn

NUM_ACCOUNTS_PER_PARTITION = 4
INITIAL_BALANCE = 100


def account_keys(num_partitions):
    return [
        f"{p}/acct{i}"
        for p in range(num_partitions)
        for i in range(NUM_ACCOUNTS_PER_PARTITION)
    ]


def transfer_program(src_key, dst_key, amount=5):
    def program(txn):
        values = yield ReadMany((src_key, dst_key))
        txn.write(src_key, values[src_key] - amount)
        txn.write(dst_key, values[dst_key] + amount)

    return program


def audit_program(keys, sink):
    def program(txn):
        values = yield ReadMany(tuple(keys))
        sink.append(sum(v for v in values.values() if v is not None))

    return program


@pytest.fixture
def bank():
    cluster = make_cluster(num_partitions=2)
    keys = account_keys(2)
    cluster.seed({key: INITIAL_BALANCE for key in keys})
    return cluster, keys


class TestSnapshotAtomicity:
    def test_audits_never_observe_torn_globals(self, bank):
        cluster, keys = bank
        total = INITIAL_BALANCE * len(keys)
        writers = [cluster.add_client() for _ in range(3)]
        auditor = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        rng = cluster.world.rng.stream("bank")
        sums = []
        transfer_results = []

        def keep_transferring(client):
            def on_done(result):
                transfer_results.append(result)
                if len(transfer_results) < 60:
                    issue(client)

            def issue(c):
                src, dst = rng.sample(keys, 2)
                c.execute(transfer_program(src, dst), on_done)

            issue(client)

        def keep_auditing():
            def on_done(result):
                if len(sums) < 25:
                    auditor.execute(
                        audit_program(keys, sums), on_done, read_only=True
                    )

            auditor.execute(audit_program(keys, sums), on_done, read_only=True)

        for writer in writers:
            keep_transferring(writer)
        keep_auditing()
        cluster.world.run_for(30.0)
        committed = sum(1 for r in transfer_results if r.committed)
        assert committed > 10
        assert len(sums) >= 10
        assert all(s == total for s in sums), f"torn snapshot: {set(sums)}"

    def test_final_state_conserves_total(self, bank):
        cluster, keys = bank
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        for i in range(10):
            src, dst = keys[i % len(keys)], keys[(i + 3) % len(keys)]
            if src != dst:
                run_txn(cluster, client, transfer_program(src, dst))
        cluster.world.run_for(1.0)
        store_sum = 0
        for key in keys:
            partition = cluster.partition_map.partition_of(key)
            server = cluster.servers[cluster.directory.preferred_of(partition)].server
            store_sum += server.store.read_latest(key)[1]
        assert store_sum == INITIAL_BALANCE * len(keys)

    def test_readonly_never_aborts(self, bank):
        cluster, keys = bank
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        sums = []
        for _ in range(5):
            result = run_txn(
                cluster, client, audit_program(keys, sums), read_only=True
            )
            assert result.committed
            assert result.read_only

    def test_snapshot_vector_may_be_outdated_but_consistent(self, bank):
        """The paper's caveat: asynchronously built snapshots can lag.
        An audit right after a commit may miss it — but must still sum
        to a value the database had at SOME consistent point."""
        cluster, keys = bank
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        run_txn(cluster, client, transfer_program(keys[0], keys[-1], amount=7))
        sums = []
        run_txn(cluster, client, audit_program(keys, sums), read_only=True)
        assert sums[0] == INITIAL_BALANCE * len(keys)
