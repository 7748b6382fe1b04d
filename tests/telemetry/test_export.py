"""Exporters: OpenMetrics + JSONL round-trips, dashboard rendering."""

import pytest

from repro.telemetry import (
    MetricRegistry,
    TelemetryConfig,
    TelemetrySampler,
    export_jsonl,
    parse_jsonl,
    parse_openmetrics,
    render_dashboard,
    render_openmetrics,
    sparkline,
)
from repro.telemetry.dashboard import SPARK_WIDTH


def two_node_registries() -> dict[str, MetricRegistry]:
    registries = {}
    for node, committed in (("s1", 10), ("s2", 12)):
        registry = MetricRegistry(node)
        registry.counter(
            "sdur_committed_local",
            unit="transactions",
            help="Local commits.",
            fn=lambda c=committed: c,
        )
        registry.gauge("sdur_queue_depth", unit="deliveries", help="Backlog.", fn=lambda: 3)
        hist = registry.histogram("sdur_commit_latency", unit="seconds", help="Latency.")
        for v in (0.001, 0.002, 0.004, 0.008):
            hist.observe(v)
        registries[node] = registry
    return registries


class TestOpenMetrics:
    def test_render_shape(self):
        text = render_openmetrics(two_node_registries())
        assert "# HELP sdur_committed_local Local commits." in text
        assert "# TYPE sdur_committed_local counter" in text
        assert "# UNIT sdur_committed_local transactions" in text
        assert 'sdur_committed_local_total{node="s1"} 10' in text
        assert 'sdur_queue_depth{node="s2"} 3' in text
        assert 'sdur_commit_latency_count{node="s1"} 4' in text
        assert 'le="+Inf"' in text
        assert text.rstrip().endswith("# EOF")

    def test_round_trip(self):
        registries = two_node_registries()
        parsed = parse_openmetrics(render_openmetrics(registries))
        assert parsed["s1"]["sdur_committed_local"] == 10.0
        assert parsed["s2"]["sdur_committed_local"] == 12.0
        assert parsed["s1"]["sdur_queue_depth"] == 3.0
        assert parsed["s1"]["sdur_commit_latency_count"] == 4.0
        assert parsed["s1"]["sdur_commit_latency_sum"] == pytest.approx(0.015)
        # Histogram buckets survive with their le labels.
        buckets = [k for k in parsed["s1"] if k.startswith("sdur_commit_latency_bucket")]
        assert buckets

    def test_parse_rejects_truncated_body(self):
        with pytest.raises(ValueError):
            parse_openmetrics('sdur_x{node="s1"} 1\n')  # no # EOF

    def test_parse_rejects_garbage_line(self):
        with pytest.raises(ValueError):
            parse_openmetrics("not a metric line\n# EOF")


class TestJsonl:
    def make_sampler(self) -> TelemetrySampler:
        clock = [0.0]
        sampler = TelemetrySampler(TelemetryConfig(), clock=lambda: clock[0])
        for node, registry in two_node_registries().items():
            sampler.attach(node, registry)
        for t in (1.0, 2.0, 3.0):
            clock[0] = t
            sampler.sample()
        return sampler

    def test_round_trip(self):
        sampler = self.make_sampler()
        rows = parse_jsonl(export_jsonl(sampler))
        # 3 samples x 2 nodes, ordered by (t, node).
        assert [(r["t"], r["node"]) for r in rows] == [
            (1.0, "s1"),
            (1.0, "s2"),
            (2.0, "s1"),
            (2.0, "s2"),
            (3.0, "s1"),
            (3.0, "s2"),
        ]
        assert rows[0]["metrics"]["sdur_committed_local"] == 10
        assert rows[1]["metrics"]["sdur_committed_local"] == 12
        assert rows[0]["metrics"]["sdur_commit_latency:count"] == 4

    def test_parse_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            parse_jsonl('{"t": 1.0, "node": "s1"}\n')


class TestDashboard:
    def test_sparkline_scales_and_downsamples(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▁▁"
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"
        assert len(sparkline(list(map(float, range(100))))) == SPARK_WIDTH

    def test_render_dashboard_rows(self):
        sampler = TestJsonl().make_sampler()
        text = render_dashboard(
            sampler, metrics=["sdur_committed_local", "sdur_queue_depth"]
        )
        assert "sdur_committed_local (rate/s)" in text  # counters as rates
        assert "sdur_queue_depth" in text
        assert "s1" in text and "s2" in text
