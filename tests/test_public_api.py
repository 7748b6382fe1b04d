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
        assert len(repro.SdurConfig.__dataclass_fields__) == 15
        assert "batching" not in repro.SdurConfig.__dataclass_fields__
        assert not hasattr(repro.SdurConfig, "with_batching")
        assert not hasattr(repro.SdurServer, "flush_batches")
        assert not hasattr(repro.core.messages, "OutcomeBatch")
        assert not hasattr(repro.termination, "VoteRecordGroup")

    def test_options_nobody_set_are_constants(self):
        """Six fields no production caller ever assigned became module
        constants beside their one reader (the ratchet only goes down)."""
        from repro.consensus.replica import PaxosConfig
        from repro.core import client, server, snapshots
        from repro.reconfig import participant

        assert len(repro.ClientConfig.__dataclass_fields__) == 13
        # One Paxos batching rule, the loop turn: no timer-closed variant.
        assert len(PaxosConfig.__dataclass_fields__) == 10
        for config, removed in (
            (
                repro.SdurConfig,
                (
                    "noop_interval",
                    "gossip_history",
                    "config_catchup_interval",
                    "ledger_retry_interval",
                ),
            ),
            (repro.ClientConfig, ("max_epoch_retries", "backoff_multiplier")),
        ):
            for name in removed:
                assert name not in config.__dataclass_fields__
        assert server.NOOP_INTERVAL == 0.01
        assert server.LEDGER_RETRY_INTERVAL == 0.25
        assert snapshots.GOSSIP_HISTORY == 256
        assert participant.CONFIG_CATCHUP_INTERVAL == 0.25
        assert (client.MAX_EPOCH_RETRIES, client.BACKOFF_MULTIPLIER) == (3, 2.0)

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
