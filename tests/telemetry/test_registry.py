"""MetricRegistry: declaration, reading, and the server_stats retrofit.

The load-bearing test here is bit-identity: ``server_stats()`` now
serves the legacy per-node counter dict off the registry
(``wire_counters()``), and every existing experiment table and test
assumes the historical key set, order, and values.
"""

import pytest

from tests.conftest import make_cluster, run_txn, update_program
from repro.errors import ConfigurationError
from repro.telemetry import SERVER_WIRE_COUNTERS, MetricRegistry
from repro.telemetry.wiring import SERVER_COUNTERS, ServerStats

#: The exact dict server_stats() has exported since the §16/§18/§19 PRs.
LEGACY_KEYS = [
    "committed_local",
    "committed_global",
    "aborted",
    "reordered",
    "noops_sent",
    "reads_served",
    "votes_ordered",
    "cycles_resolved",
    "vote_ledger_aborts",
    "ctest_calls",
    "index_hits",
    "index_fallbacks",
    "admitted",
    "shed_total",
    "queue_depth",
    "queue_depth_max",
    "stall_depth_max",
    "completed_at_delivery",
    "gossip_resyncs",
]


class TestRegistry:
    def test_duplicate_declaration_rejected(self):
        registry = MetricRegistry("s1")
        registry.counter("x", fn=lambda: 0)
        with pytest.raises(ConfigurationError):
            registry.gauge("x", fn=lambda: 0)

    def test_specs_carry_metadata(self):
        registry = MetricRegistry("s1")
        registry.counter("reqs", unit="requests", help="Requests seen.", fn=lambda: 0, wire="reqs")
        (spec,) = list(registry.specs())
        assert (spec.kind, spec.unit, spec.help, spec.wire) == (
            "counter",
            "requests",
            "Requests seen.",
            "reqs",
        )

    def test_snapshot_flattens_scalars(self):
        registry = MetricRegistry("s1")
        registry.counter("a", fn=lambda: 3)
        hist = registry.histogram("h")
        hist.observe(1.0)
        snap = registry.snapshot()
        assert snap["a"] == 3
        assert snap["h"].count == 1


class TestServerStatsRetrofit:
    def test_wire_counters_bit_identical_to_legacy_dict(self):
        """server_stats() == the hand-rolled dict it replaced, key for
        key, value for value, in the same order."""
        cluster = make_cluster(1)
        client = cluster.add_client()
        cluster.start()
        for _ in range(5):
            run_txn(cluster, client, update_program(["0/k1"]))
        cluster.world.run_for(0.5)
        stats_dicts = cluster.server_stats()
        for node_id, handle in cluster.servers.items():
            stats = handle.server.stats
            expected = {key: int(getattr(stats, key)) for key in LEGACY_KEYS}
            assert stats_dicts[node_id] == expected
            assert list(stats_dicts[node_id]) == LEGACY_KEYS
            assert all(isinstance(v, int) for v in stats_dicts[node_id].values())

    def test_wire_table_matches_legacy_schema(self):
        assert [wire for wire, _, _, _ in SERVER_WIRE_COUNTERS] == LEGACY_KEYS

    def test_the_table_is_the_single_source(self):
        """Every ``ServerStats`` attribute has exactly one row; the one
        row without an attribute is the derived ``aborted``."""
        rows = [row.attr for row in SERVER_COUNTERS]
        assert len(rows) == len(set(rows))
        assert sorted(ServerStats.__slots__) == sorted(set(rows) - {"aborted"})
        stats = ServerStats()
        assert not hasattr(stats, "__dict__")  # nothing is declared off the table
        assert all(getattr(stats, attr) == 0 for attr in ServerStats.__slots__)
        assert [row.attr for row in SERVER_COUNTERS if row.wire] == LEGACY_KEYS
        cluster = make_cluster(1)
        registry = next(iter(cluster.servers.values())).server.registry
        declared = [spec.name for spec in registry.specs()]
        assert declared[: len(rows)] == [f"sdur_{attr}" for attr in rows]

    def test_abort_bucket_rows_sum_to_aborted(self):
        buckets = [row.attr for row in SERVER_COUNTERS if row.abort_bucket]
        assert len(buckets) == 7 and all(attr.startswith("aborted_") for attr in buckets)
        stats = ServerStats()
        for weight, attr in enumerate(buckets, start=1):
            setattr(stats, attr, 10**weight)
        stats.vote_ledger_aborts = 5  # a subset of aborted_deferred: not a bucket
        assert stats.aborted == sum(10**w for w in range(1, 8))
        stats.committed_local, stats.committed_global = 2, 3
        assert stats.committed == 5

    def test_every_server_metric_is_declared_with_help(self):
        cluster = make_cluster(1)
        handle = next(iter(cluster.servers.values()))
        for spec in handle.server.registry.specs():
            assert spec.name.startswith("sdur_")
            assert spec.help, f"{spec.name} declared without help text"
            assert spec.unit, f"{spec.name} declared without a unit"
