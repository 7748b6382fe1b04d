"""Durability: a whole cluster restart rebuilt from the Paxos WALs.

The paper's servers log delivered values with Berkeley DB so "the
committed state of a server can be recovered from the log" (§V).  Here a
cluster runs with per-replica WALs, is torn down, and a *fresh* cluster
is built over the same logs: recovery replays every delivered value
through the unchanged SDUR delivery path, rebuilding stores, snapshot
counters, and certification windows identically.
"""

from repro.consensus.replica import PaxosConfig
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.storage.wal import WriteAheadLog
from tests.conftest import run_txn, update_program


def build_with_wals(wals, tmp_path=None, seed=3):
    deployment = lan_deployment(2)

    def factory(node_id, partition):
        if node_id not in wals:
            if tmp_path is not None:
                wals[node_id] = WriteAheadLog(tmp_path / f"{node_id}.wal")
            else:
                wals[node_id] = WriteAheadLog()
        return PaxosConfig(
            static_leader=deployment.directory.preferred_of(partition),
            wal=wals[node_id],
        )

    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(2),
        SdurConfig(),
        seed=seed,
        intra_delay=0.001,
        paxos_for=factory,
    )
    return cluster


class TestRestartRecovery:
    def test_store_state_rebuilt_from_wal(self):
        wals: dict[str, WriteAheadLog] = {}
        cluster = build_with_wals(wals)
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        for keys in (["0/x"], ["0/x", "0/y"], ["0/x", "1/z"], ["1/z"]):
            assert run_txn(cluster, client, update_program(keys)).committed
        cluster.world.run_for(1.0)
        old_states = {
            name: (
                handle.server.sc,
                {k: handle.server.store.read_latest(k)[1] for k in handle.server.store.dump()},
            )
            for name, handle in cluster.servers.items()
        }

        # "Restart": a brand-new cluster over the same WALs.  Recovery
        # replays deliveries through on_adeliver; local transactions
        # recommit directly and globals re-collect votes — the restarted
        # replicas re-vote among themselves, so the whole cluster
        # converges to the pre-crash state.
        restarted = build_with_wals(wals, seed=4)
        restarted.start()
        restarted.world.run_for(2.0)
        for name, handle in restarted.servers.items():
            old_sc, old_values = old_states[name]
            assert handle.server.sc == old_sc, f"{name}: SC {handle.server.sc} != {old_sc}"
            for key, value in old_values.items():
                assert handle.server.store.read_latest(key)[1] == value

    def test_file_backed_wals_survive_process_boundary(self, tmp_path):
        wals: dict[str, WriteAheadLog] = {}
        cluster = build_with_wals(wals, tmp_path=tmp_path)
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        assert run_txn(cluster, client, update_program(["0/x"])).committed
        assert run_txn(cluster, client, update_program(["0/x", "1/y"])).committed
        cluster.world.run_for(1.0)
        expected_x = cluster.servers["s1"].server.store.read_latest("0/x")[1]
        for wal in wals.values():
            wal.close()

        # Reopen the logs from disk, as a new process would.
        reopened: dict[str, WriteAheadLog] = {}
        restarted = build_with_wals(reopened, tmp_path=tmp_path, seed=9)
        restarted.start()
        restarted.world.run_for(2.0)
        assert restarted.servers["s1"].server.store.read_latest("0/x")[1] == expected_x
        assert restarted.servers["s4"].server.store.read_latest("1/y")[1] == 1

    def test_recovered_cluster_keeps_serving(self):
        wals: dict[str, WriteAheadLog] = {}
        cluster = build_with_wals(wals)
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        assert run_txn(cluster, client, update_program(["0/x"])).committed
        cluster.world.run_for(1.0)

        restarted = build_with_wals(wals, seed=5)
        new_client = restarted.add_client()
        restarted.start()
        restarted.world.run_for(2.0)
        result = run_txn(restarted, new_client, update_program(["0/x"]))
        assert result.committed
        assert restarted.servers["s1"].server.store.read_latest("0/x")[1] == 2
