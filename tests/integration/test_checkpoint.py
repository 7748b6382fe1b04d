"""Checkpointing: bounded recovery, WAL compaction, state transfer."""

from collections import Counter

import pytest

from repro.consensus.replica import PaxosConfig
from repro.core.checkpoint import (
    CheckpointReply,
    CheckpointRequest,
    ServerCheckpoint,
)
from repro.core.config import SdurConfig, ServiceCosts
from repro.core.messages import NoopTick
from repro.core.partitioning import PartitionMap
from repro.core.pending import PendingTxn
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection
from repro.errors import ProtocolError
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import ClosedLoopDriver
from repro.metrics.collector import MetricsCollector
from repro.storage.wal import WriteAheadLog
from repro.workload.microbench import MicroBenchmark
from tests.conftest import run_txn, update_program
from tests.properties.test_batch_differential import (
    build_server,
    concretize,
    replay,
    state_of,
)


def checkpointing_cluster(wals, seed=3, checkpoint_interval=0.2):
    deployment = lan_deployment(2)

    def factory(node_id, partition):
        wals.setdefault(node_id, WriteAheadLog())
        return PaxosConfig(
            static_leader=deployment.directory.preferred_of(partition),
            wal=wals[node_id],
        )

    return build_cluster(
        deployment,
        PartitionMap.by_index(2),
        SdurConfig(checkpoint_interval=checkpoint_interval),
        seed=seed,
        intra_delay=0.001,
        paxos_config_factory=factory,
    )


def _pending_entry():
    proj = TxnProjection(
        tid=TxnId("c", 1),
        partition="p0",
        readset=ReadsetDigest.exact(["0/x"]),
        writeset={"0/x": 1},
        snapshot=0,
        partitions=("p0", "p1"),
        coordinator="s1",
        client="c",
    )
    return PendingTxn(proj=proj, rt=0, delivered_at=0.0)


class TestCheckpointTaking:
    def test_periodic_checkpoint_at_quiescence(self):
        wals = {}
        cluster = checkpointing_cluster(wals)
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        for _ in range(4):
            run_txn(cluster, client, update_program(["0/x"]))
        cluster.world.run_for(1.0)  # a few checkpoint periods
        server = cluster.servers["s1"].server
        assert server.stats.checkpoints >= 1
        assert server.latest_checkpoint is not None
        checkpoint = ServerCheckpoint.from_bytes(server.latest_checkpoint)
        assert checkpoint.sc == 4
        assert dict(checkpoint.chains)["0/x"][-1][1] == 4

    def test_checkpoint_compacts_the_wal(self):
        wals = {}
        cluster = checkpointing_cluster(wals)
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        for _ in range(6):
            run_txn(cluster, client, update_program(["0/x"]))
        size_before = len(wals["s1"])
        cluster.world.run_for(1.0)
        assert len(wals["s1"]) < size_before

    def test_checkpoint_requires_quiescence(self):
        wals = {}
        cluster = checkpointing_cluster(wals, checkpoint_interval=None)
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        server = cluster.servers["s1"].server
        # Inject a pending entry, then demand a checkpoint.
        client.execute(update_program(["0/x", "1/y"]), lambda r: None)
        # Drive only until the projection is pending (votes not yet in).
        while not server.pending and cluster.world.kernel.pending_count:
            cluster.world.kernel.step()
        if server.pending:
            with pytest.raises(ProtocolError):
                server.take_checkpoint()

    @pytest.mark.parametrize(
        "cause, block",
        [
            ("pending list", lambda s: s.pending.append(_pending_entry())),
            ("stalled", lambda s: s._stalled.append(NoopTick())),
            ("being applied", lambda s: setattr(s, "_applying", True)),
            ("queued for the CPU", lambda s: setattr(s, "_queued_for_cpu", 1)),
        ],
    )
    def test_refusal_names_the_blocker(self, cause, block):
        """Each non-quiescent cause is reported as itself, not as a
        non-empty pending list."""
        cluster = build_cluster(
            lan_deployment(1),
            PartitionMap.by_index(1),
            SdurConfig(),
            seed=3,
        )
        server = cluster.servers["s1"].server
        server.take_checkpoint()  # quiescent: allowed
        block(server)
        with pytest.raises(ProtocolError, match=cause):
            server.take_checkpoint()

    def test_no_checkpoint_claims_a_delivery_still_queued_for_the_cpu(self):
        """A delivery handed to ``runtime.execute`` has already advanced
        the coverage bound a checkpoint claims (``next_instance``); with
        a nonzero certify cost the CPU model holds it for a while, and a
        checkpoint taken then would compact the WAL below a transaction
        its state does not contain.  At every checkpoint, each value the
        replica delivered must have reached ``_ingest``."""
        cluster = build_cluster(
            lan_deployment(2),
            PartitionMap.by_index(2),
            SdurConfig(checkpoint_interval=0.003, costs=ServiceCosts(certify=0.002)),
            seed=3,
        )
        delivered, ingested, unapplied = Counter(), Counter(), []
        for name, handle in cluster.servers.items():
            server, replica = handle.server, handle.replica

            def on_deliver(instance, value, name=name, inner=replica.on_deliver):
                delivered[name] += 1
                inner(instance, value)

            def ingest(value, name=name, inner=server._ingest):
                ingested[name] += 1
                inner(value)

            def hook(next_instance, name=name, inner=server.checkpoint_hook):
                unapplied.append(delivered[name] - ingested[name])
                inner(next_instance)

            replica.on_deliver = on_deliver
            server._ingest = ingest
            server.checkpoint_hook = hook
        collector = MetricsCollector()
        drivers = [
            ClosedLoopDriver(
                cluster.add_client(),
                MicroBenchmark(2, i % 2, 0.0, items_per_partition=100),
                collector,
            )
            for i in range(6)
        ]
        cluster.start()
        for driver in drivers:
            driver.start()
        cluster.world.run_for(1.0)
        assert len(collector.results) > 100 and len(unapplied) > 100
        early = sum(1 for n in unapplied if n)
        assert early == 0, f"{early} of {len(unapplied)} checkpoints claimed unapplied deliveries"

    def test_restore_requires_fresh_server(self):
        wals = {}
        cluster = checkpointing_cluster(wals)
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        run_txn(cluster, client, update_program(["0/x"]))
        cluster.world.run_for(1.0)
        server = cluster.servers["s1"].server
        with pytest.raises(ProtocolError):
            server.restore_checkpoint(server.latest_checkpoint)


class TestRestoredCertifier:
    def test_trajectory_equals_an_unrestored_one(self):
        """The key index carries no checkpoint state: a restore replaces
        the window wholesale and the certifier is rebuilt over the new
        one, so a restored server certifies the rest of the log exactly
        as a server that never stopped."""
        ops = [("txn", False, [i % 6], [(i + 1) % 6], 0) for i in range(10)]
        ops += [("txn", False, [i % 6], [(i + 2) % 6], i % 8) for i in range(12)]
        values = concretize(ops)
        warmup, tail = values[:10], values[10:]

        unrestored = replay(build_server(0), values)

        first = replay(build_server(0), warmup)
        restored = build_server(0)
        before = restored.certifier
        restored.restore_checkpoint(first.take_checkpoint())
        assert restored.certifier is not before
        assert restored.certifier.window is restored.window
        assert restored.window.listener is restored.certifier.index
        for instance, value in enumerate(tail, start=len(warmup)):
            restored.on_adeliver(instance, value)

        # `_completed` and the reply stream are not checkpointed; what
        # the log determines must match.
        determined = ("sc", "dc", "store", "window", "floor", "pending")
        expect, got = state_of(unrestored), state_of(restored)
        assert {k: got[k] for k in determined} == {k: expect[k] for k in determined}
        assert got["outcomes"] == expect["outcomes"][len(warmup) :]
        assert 0 < restored.stats.aborted_certification < len(tail)

    def test_floor_is_honoured(self):
        """A snapshot below the restored window's floor is unknowable to
        the rebuilt certifier, exactly as it was before the checkpoint."""
        ops = [("txn", False, [i % 6], [(i + 1) % 6], 0) for i in range(24)]
        first = replay(build_server(0), concretize(ops))
        assert first.window.floor > 0  # history_window is 16
        restored = build_server(0)
        restored.restore_checkpoint(first.take_checkpoint())
        assert restored.window.floor == first.window.floor
        stale = TxnProjection(
            tid=TxnId("c", 999),
            partition="p0",
            readset=ReadsetDigest.exact(["0/k0"]),
            writeset={"0/k0": 1},
            snapshot=restored.window.floor - 1,
            partitions=("p0",),
            coordinator="s0",
            client="c",
        )
        assert restored.certifier.certify(stale) is None


class TestCheckpointedRecovery:
    def test_restart_from_checkpoint_plus_wal_suffix(self):
        wals = {}
        cluster = checkpointing_cluster(wals)
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        for _ in range(5):
            run_txn(cluster, client, update_program(["0/x"]))
        cluster.world.run_for(1.0)  # checkpoint + compact
        # More commits AFTER the checkpoint: these live only in the WAL.
        for _ in range(3):
            run_txn(cluster, client, update_program(["0/x"]))
        cluster.world.run_for(0.3)
        blobs = {
            name: handle.server.latest_checkpoint
            for name, handle in cluster.servers.items()
        }

        restarted = checkpointing_cluster(wals, seed=7)
        for name in restarted.servers:
            if blobs[name] is not None:
                restarted.restore_server(name, blobs[name])
        restarted.start()
        restarted.world.run_for(2.0)
        for name, handle in restarted.servers.items():
            if handle.partition == "p0":
                assert handle.server.store.read_latest("0/x").value == 8
                assert handle.server.sc == 8

    def test_recovered_cluster_commits_new_transactions(self):
        wals = {}
        cluster = checkpointing_cluster(wals)
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        for _ in range(4):
            run_txn(cluster, client, update_program(["0/x"]))
        cluster.world.run_for(1.0)
        blobs = {
            name: handle.server.latest_checkpoint
            for name, handle in cluster.servers.items()
        }
        restarted = checkpointing_cluster(wals, seed=8)
        for name in restarted.servers:
            if blobs[name] is not None:
                restarted.restore_server(name, blobs[name])
        new_client = restarted.add_client()
        restarted.start()
        restarted.world.run_for(1.0)
        result = run_txn(restarted, new_client, update_program(["0/x", "1/y"]))
        assert result.committed
        assert restarted.servers["s1"].server.store.read_latest("0/x").value == 5


class TestStateTransfer:
    def test_replacement_replica_bootstraps_from_peer_checkpoint(self):
        """A fresh replica (empty WAL) installs a peer's checkpoint,
        advances its Paxos cursor, and catches up via LearnRequest."""
        wals = {}
        cluster = checkpointing_cluster(wals)
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        for _ in range(5):
            run_txn(cluster, client, update_program(["0/x"]))
        cluster.world.run_for(1.0)  # checkpoint exists

        # Fetch s1's checkpoint over the network, as an operator would.
        replies = []
        cluster.world.topology.add("operator", "us-east")
        cluster.world.network.register("operator", lambda src, msg: replies.append(msg))
        cluster.world.network.send("operator", "s1", CheckpointRequest(reply_to="operator"))
        cluster.world.run_for(0.2)
        assert replies and isinstance(replies[0], CheckpointReply)
        blob = replies[0].blob
        assert blob is not None

        # "Replace" s2: a new cluster where s2 starts empty (no WAL, no
        # checkpoint) and bootstraps from s1's checkpoint.
        surviving_wals = {name: wal for name, wal in wals.items() if name != "s2"}
        restarted = checkpointing_cluster(surviving_wals, seed=9)
        blobs = {
            name: handle.server.latest_checkpoint
            for name, handle in cluster.servers.items()
        }
        for name in restarted.servers:
            if name == "s2":
                restarted.restore_server("s2", blob)  # the peer's checkpoint
            elif blobs[name] is not None:
                restarted.restore_server(name, blobs[name])
        restarted.start()
        restarted.world.run_for(2.0)
        # s2 state matches the group despite never replaying old history.
        assert restarted.servers["s2"].server.store.read_latest("0/x").value == 5
        # And it participates in new commits.
        new_client = restarted.add_client()
        result = run_txn(restarted, new_client, update_program(["0/x"]))
        assert result.committed
        restarted.world.run_for(1.0)
        assert restarted.servers["s2"].server.store.read_latest("0/x").value == 6
