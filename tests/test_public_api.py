"""The package's public surface: imports, exports, version."""

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ names missing attribute {name}"

    def test_core_all_exports_resolve(self):
        import repro.core

        for name in repro.core.__all__:
            assert hasattr(repro.core, name), f"repro.core.__all__ names missing {name}"
        # One certification seam: the strategy switches are gone, and
        # so is the sharded executor they once selected.
        for removed in ("CertExecutorMode", "ShardBackend", "ShardExecConfig"):
            assert removed not in repro.core.__all__
            assert not hasattr(repro.core, removed)
        assert not hasattr(repro.SdurConfig, "with_shard_executor")
        assert "shardexec" not in repro.SdurConfig.__dataclass_fields__
        # One termination path: no mode to select, in the package or the config.
        import repro.core.config

        assert "TerminationMode" not in repro.core.__all__
        assert not hasattr(repro.core.config, "TerminationMode")
        assert not hasattr(repro.SdurConfig, "with_termination")
        assert "termination_mode" not in repro.SdurConfig.__dataclass_fields__

    def test_one_batching_rule(self):
        """Values are grouped once, at the log — a loop turn's proposals
        share one Paxos instance — so there is no delivery batcher, no
        knob for it, and no grouped vote record or reply."""
        import importlib.util

        import repro.core.messages
        import repro.termination

        assert importlib.util.find_spec("repro.core.batch") is None
        assert "BatchingConfig" not in repro.__all__ and not hasattr(repro, "BatchingConfig")
        assert "batching" not in repro.SdurConfig.__dataclass_fields__
        assert not hasattr(repro.SdurConfig, "with_batching")
        assert not hasattr(repro.SdurServer, "flush_batches")
        assert not hasattr(repro.core.messages, "OutcomeBatch")
        assert not hasattr(repro.termination, "VoteRecordGroup")

    def test_options_nobody_set_are_constants(self):
        """Every config field has a production caller (the comment names
        it); a value only tests ever changed is a module constant beside
        its one reader, and a fork nobody flipped is gone.  Adding a
        field means editing these sets on purpose."""
        from repro.consensus import replica
        from repro.consensus.replica import PaxosConfig
        from repro.core import client, server, snapshots
        from repro.core.messages import Busy
        from repro.overload import admission
        from repro.reconfig import participant

        assert set(repro.SdurConfig.__dataclass_fields__) == {
            "reorder_threshold",  # F4-F6, A2
            "delay_mode",  # F3
            "delay_fixed",  # F3
            "history_window",  # ROADMAP 1 gives it a measured default after item 13
            "vote_timeout",  # E1, O2; None in benchmarks/e2e/micro.py
            "gossip_interval",  # A5; None in benchmarks/e2e/micro.py
            "checkpoint_interval",  # ROADMAP 1 makes it a default after item 13
            "store_gc_interval",  # ROADMAP 1 makes it a default after item 13
            "store_gc_keep",  # ROADMAP 1 makes it a default after item 13
            "admission",  # O1-O4, G1
            "notify_all_replicas",  # E1, O2
            "tracing",  # T1
            "costs",  # S1, S2, E2, E3, O1, O3, O4, G1
        }
        assert set(repro.ClientConfig.__dataclass_fields__) == {
            "session_server",  # every client (harness add_client, e2e rig)
            "bloom_readsets",  # A1; F2-F5 pass it (experiments/common.py)
            "bloom_fp_rate",  # A1
            "commit_timeout",  # e2e rig, E1-E3, O1-O4, G1
            "read_timeout",  # e2e rig, E1-E3, O1-O4, G1
        }
        assert set(PaxosConfig.__dataclass_fields__) == {
            "static_leader",  # build_cluster, e2e rig
            "heartbeat_interval",  # E1, O2
            "suspect_timeout",  # E1, O2
            "wal",  # e2e rig
            "accepted_broadcast",  # A3, T1
        }
        assert set(admission.AdmissionConfig.__dataclass_fields__) == {
            "rate",  # O1, O3, O4, G1 (overload.ADMISSION)
            "burst",  # overload.ADMISSION
            "max_inflight",  # overload.ADMISSION, O2
            "max_queue_depth",  # overload.ADMISSION, O2
        }
        assert server.NOOP_INTERVAL == 0.01
        assert server.LEDGER_RETRY_INTERVAL == 0.25
        assert snapshots.GOSSIP_HISTORY == 256
        assert participant.CONFIG_CATCHUP_INTERVAL == 0.25
        assert (client.MAX_EPOCH_RETRIES, client.BACKOFF_MULTIPLIER) == (3, 2.0)
        assert (client.BACKOFF_CAP, client.BACKOFF_JITTER) == (2.0, 0.5)
        assert (client.BUSY_BACKOFF_BASE, client.MAX_BUSY_RETRIES) == (0.05, 4)
        assert client.SUSPECT_TTL == 5.0
        assert (replica.PHASE1_RETRY, replica.ACCEPT_RETRY, replica.PROPOSE_RETRY) == (
            0.5, 1.0, 0.5,
        )
        assert (replica.CATCHUP_INTERVAL, replica.COMMIT_INDEX_INTERVAL) == (0.5, 0.5)
        assert (admission.INFLIGHT_TTL, admission.RETRY_AFTER) == (30.0, 0.05)
        # The forks behind the retired switches went with them.
        assert not hasattr(admission.AdmissionController, "admit_read")
        assert not hasattr(admission.AdmitAll, "admit_read")
        assert "op_id" not in Busy.__dataclass_fields__
        for removed in ("with_reordering", "with_delaying", "with_admission", "_replace"):
            assert not hasattr(repro.SdurConfig, removed)

    def test_one_observability_plane(self):
        """One event recorder (``repro.obs``), one counter declaration
        (``repro.telemetry.wiring``), and a collector of client results."""
        import pytest

        import repro.sim
        from repro.metrics import MetricsCollector
        from repro.runtime.base import Runtime
        from repro.runtime.sim import SimWorld

        for removed in ("Tracer", "TraceEvent"):
            assert removed not in repro.sim.__all__ and not hasattr(repro.sim, removed)
        assert not hasattr(Runtime, "trace")
        with pytest.raises(TypeError, match="trace"):
            SimWorld(trace=True)
        assert not hasattr(SimWorld(), "tracer")
        for removed in ("ingest_server_stats", "counter_total", "ingest_obs"):
            assert not hasattr(MetricsCollector, removed)
        assert set(vars(MetricsCollector())) == {"results"}
        from repro.core.server import SdurServer, ServerStats
        from repro.telemetry.wiring import ServerStats as Declared

        assert ServerStats is Declared and not hasattr(SdurServer, "stats_bucket")

    def test_one_wire_codec(self):
        """One codec on the wire and in the WAL: nothing takes a
        ``codec`` argument, and the JSON one is only reachable by name."""
        import inspect

        from repro.net import codec
        from repro.net.asyncio_transport import AioTransport
        from repro.net.sim_transport import SimNetwork
        from repro.runtime.sim import SimWorld

        for entry in (AioTransport, SimNetwork, SimWorld, repro.build_cluster):
            assert "codec" not in inspect.signature(entry).parameters, entry
        assert "codec_roundtrip" in inspect.signature(SimWorld).parameters
        transport = AioTransport("a", {"a": ("127.0.0.1", 1)}, lambda src, msg: None)
        assert (transport._encode, transport._decode) == codec.get_codec("packed")
        assert not hasattr(transport, "codec") and not hasattr(SimWorld().network, "codec")
        assert sorted(codec.CODECS) == ["json", "packed"]

    def test_core_entry_points_exported(self):
        for name in (
            "build_cluster",
            "wan1_deployment",
            "wan2_deployment",
            "lan_deployment",
            "PartitionMap",
            "SdurConfig",
            "SdurClient",
            "SdurServer",
            "Read",
            "ReadMany",
            "run_experiment",
            "build_classic_dur",
        ):
            assert name in repro.__all__

    def test_quickstart_shape_from_root_imports_only(self):
        """The README's quickstart must work from top-level names."""
        deployment = repro.wan1_deployment(num_partitions=2)
        cluster = repro.build_cluster(
            deployment, repro.PartitionMap.by_index(2), repro.SdurConfig()
        )
        cluster.seed({"0/alice": 100, "1/carol": 75})
        client = cluster.add_client(region="eu")
        cluster.start()
        results = []

        def transfer(txn):
            values = yield repro.ReadMany(("0/alice", "1/carol"))
            txn.write("0/alice", values["0/alice"] - 5)
            txn.write("1/carol", values["1/carol"] + 5)

        client.execute(transfer, results.append)
        cluster.world.run_for(2.0)
        assert results and results[0].outcome is repro.Outcome.COMMIT

    def test_subpackages_importable(self):
        import repro.baseline
        import repro.checker
        import repro.consensus
        import repro.core
        import repro.experiments
        import repro.geo
        import repro.harness
        import repro.metrics
        import repro.net
        import repro.runtime
        import repro.sim
        import repro.storage
        import repro.workload
