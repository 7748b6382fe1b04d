"""Unit tests for the load monitor's rate/EWMA pipeline.

The monitor only touches ``cluster.servers`` (node -> handle with
``.server.registry`` — the §19 metric registry — and ``.partition``)
plus ``cluster.routing.active_partitions()``, so a duck-typed stub
cluster keeps these tests synchronous and exact.
"""

from dataclasses import dataclass, field

from repro.autoscale import AutoscaleConfig, LoadMonitor
from repro.telemetry import MetricRegistry


@dataclass
class StubStats:
    committed: int = 0
    aborted: int = 0
    shed_total: int = 0
    queue_depth: int = 0


@dataclass
class StubServer:
    stats: StubStats = field(default_factory=StubStats)

    def __post_init__(self) -> None:
        # The same three bound metrics repro.telemetry.wiring declares
        # on a real server — the monitor's entire read surface.
        stats = self.stats
        self.registry = MetricRegistry("stub")
        self.registry.counter(
            "sdur_certified", fn=lambda: stats.committed + stats.aborted
        )
        self.registry.counter("sdur_shed_total", fn=lambda: stats.shed_total)
        self.registry.gauge("sdur_queue_depth", fn=lambda: stats.queue_depth)


@dataclass
class StubHandle:
    server: StubServer
    partition: str


class StubRouting:
    def __init__(self, partitions):
        self._partitions = list(partitions)

    def active_partitions(self):
        return list(self._partitions)


class StubCluster:
    def __init__(self, handles, partitions):
        self.servers = handles
        self.routing = StubRouting(partitions)


def make_config(**overrides) -> AutoscaleConfig:
    defaults = dict(queue_weight=5.0, ewma_alpha=0.5)
    defaults.update(overrides)
    return AutoscaleConfig(**defaults)


def two_replica_cluster():
    servers = {
        "s1": StubHandle(StubServer(), "p0"),
        "s2": StubHandle(StubServer(), "p0"),
    }
    return StubCluster(servers, ["p0"]), servers


class TestLoadMonitor:
    def test_first_sample_yields_no_rate(self):
        cluster, servers = two_replica_cluster()
        monitor = LoadMonitor(cluster, make_config())
        servers["s1"].server.stats.committed = 100
        assert monitor.sample(1.0) == {}

    def test_rates_average_across_replicas_not_sum(self):
        cluster, servers = two_replica_cluster()
        monitor = LoadMonitor(cluster, make_config())
        monitor.sample(0.0)
        # Every replica certifies every transaction, so both counters
        # advance by ~the same amount; the partition rate is their mean.
        servers["s1"].server.stats.committed = 100
        servers["s2"].server.stats.committed = 90
        servers["s2"].server.stats.aborted = 10
        loads = monitor.sample(1.0)
        assert loads["p0"].throughput == 100.0
        assert loads["p0"].pressure == 100.0

    def test_queue_depth_feeds_pressure(self):
        cluster, servers = two_replica_cluster()
        monitor = LoadMonitor(cluster, make_config(queue_weight=5.0))
        monitor.sample(0.0)
        servers["s1"].server.stats.queue_depth = 4
        servers["s2"].server.stats.queue_depth = 2
        loads = monitor.sample(1.0)
        assert loads["p0"].queue_depth == 3.0
        assert loads["p0"].pressure == 15.0  # 0 tps + 5.0 * 3 backlog

    def test_ewma_smooths_spikes(self):
        cluster, servers = two_replica_cluster()
        monitor = LoadMonitor(cluster, make_config(ewma_alpha=0.5))
        monitor.sample(0.0)
        for node in ("s1", "s2"):
            servers[node].server.stats.committed = 100
        first = monitor.sample(1.0)["p0"].pressure
        assert first == 100.0  # first raw sample seeds the EWMA
        # A 10x spike in the next window only doubles the smoothed signal…
        for node in ("s1", "s2"):
            servers[node].server.stats.committed = 1100
        second = monitor.sample(2.0)["p0"].pressure
        assert second == 0.5 * 1000.0 + 0.5 * 100.0
        # …and forget() drops the smoothing state.
        monitor.forget("p0")
        for node in ("s1", "s2"):
            servers[node].server.stats.committed = 1100
        assert monitor.sample(3.0)["p0"].pressure == 0.0

    def test_retired_partitions_are_skipped(self):
        servers = {
            "s1": StubHandle(StubServer(), "p0"),
            "s2": StubHandle(StubServer(), "p1"),
        }
        cluster = StubCluster(servers, ["p0"])  # p1 retired
        monitor = LoadMonitor(cluster, make_config())
        monitor.sample(0.0)
        servers["s1"].server.stats.committed = 10
        servers["s2"].server.stats.committed = 10
        assert set(monitor.sample(1.0)) == {"p0"}

    def test_shed_rate_is_reported(self):
        cluster, servers = two_replica_cluster()
        monitor = LoadMonitor(cluster, make_config())
        monitor.sample(0.0)
        servers["s1"].server.stats.shed_total = 20
        servers["s2"].server.stats.shed_total = 20
        assert monitor.sample(2.0)["p0"].shed_rate == 10.0
