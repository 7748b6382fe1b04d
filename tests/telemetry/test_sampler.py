"""TelemetrySampler on a live sim cluster: ticking, series, membership."""

from repro.core.config import SdurConfig
from repro.telemetry import MetricRegistry, TelemetryConfig, TelemetrySampler
from tests.conftest import make_cluster, run_txn, update_program


class TestSamplerUnit:
    def test_sample_expands_histograms_into_scalar_series(self):
        registry = MetricRegistry("s1")
        registry.counter("c", fn=lambda: 7)
        hist = registry.histogram("h")
        hist.observe(2.0)
        hist.observe(4.0)
        clock_value = [1.5]
        sampler = TelemetrySampler(TelemetryConfig(), clock=lambda: clock_value[0])
        sampler.attach("s1", registry)
        t = sampler.sample()
        assert t == 1.5
        assert sampler.latest("s1", "c") == 7
        assert sampler.latest("s1", "h:count") == 2
        assert sampler.latest("s1", "h:p99") >= 4.0
        assert sampler.series["s1"]["h:sum"].values() == [6.0]

    def test_ring_capacity_bounds_history(self):
        registry = MetricRegistry("s1")
        registry.counter("c", fn=lambda: 1)
        sampler = TelemetrySampler(
            TelemetryConfig(capacity=4), clock=lambda: 0.0
        )
        sampler.attach("s1", registry)
        for _ in range(10):
            sampler.sample()
        assert len(sampler.series["s1"]["c"].values()) == 4
        assert sampler.samples_taken == 10

    def test_detach_stops_sampling_keeps_series(self):
        registry = MetricRegistry("s1")
        registry.counter("c", fn=lambda: 1)
        sampler = TelemetrySampler(TelemetryConfig(), clock=lambda: 0.0)
        sampler.attach("s1", registry)
        sampler.sample()
        del sampler.registries["s1"]
        sampler.sample()
        assert len(sampler.series["s1"]["c"].values()) == 1

    def test_hooks_see_flat_scalars(self):
        registry = MetricRegistry("s1")
        registry.gauge("g", fn=lambda: 3.5)
        sampler = TelemetrySampler(TelemetryConfig(), clock=lambda: 2.0)
        sampler.attach("s1", registry)
        seen = []
        sampler.on_sample(lambda t, flat: seen.append((t, flat)))
        sampler.sample()
        assert seen == [(2.0, {"s1": {"g": 3.5}})]


class TestClusterSampling:
    def test_enable_telemetry_ticks_on_the_sim_clock(self):
        cluster = make_cluster(1)
        sampler = cluster.enable_telemetry(TelemetryConfig(interval=0.25))
        assert cluster.enable_telemetry() is sampler  # idempotent
        client = cluster.add_client()
        cluster.start()
        for _ in range(3):
            run_txn(cluster, client, update_program(["0/a"]))
        cluster.world.run_for(2.0)
        # ~2s+ of run at 0.25s interval: samples accumulated on the sim
        # clock, one series per server per metric.
        assert sampler.samples_taken >= 7
        for node in cluster.servers:
            values = sampler.series[node]["sdur_committed_local"].values()
            assert values, f"no series for {node}"
            assert values[-1] == cluster.servers[node].server.stats.committed_local
            assert sampler.latest(node, "sdur_sc") == cluster.servers[node].server.sc

    def test_histograms_record_only_when_enabled(self):
        cluster = make_cluster(1)
        client = cluster.add_client()
        cluster.start()
        run_txn(cluster, client, update_program(["0/a"]))
        for handle in cluster.servers.values():
            assert handle.server._hist_commit_latency.count == 0

        enabled = make_cluster(1)
        enabled.enable_telemetry(TelemetryConfig())
        client = enabled.add_client()
        enabled.start()
        run_txn(enabled, client, update_program(["0/a"]))
        enabled.world.run_for(0.5)
        assert any(
            handle.server._hist_commit_latency.count > 0
            for handle in enabled.servers.values()
        )

    def test_split_created_servers_join_the_sampling_set(self):
        cluster = make_cluster(1, config=SdurConfig(checkpoint_interval=None))
        sampler = cluster.enable_telemetry(TelemetryConfig(interval=0.25))
        cluster.start()
        cluster.world.run_for(0.5)
        before = set(sampler.registries)
        cluster.split_partition("p0")
        cluster.world.run_for(2.0)
        added = set(sampler.registries) - before
        assert added, "split created no sampled servers"
        for node in added:
            assert cluster.servers[node].server.telemetry_enabled
            assert sampler.series[node]["sdur_sc"].values()
