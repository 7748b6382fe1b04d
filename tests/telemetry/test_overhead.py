"""Telemetry disabled is free: the guard pattern allocates nothing.

Mirrors ``tests/obs/test_noop_overhead.py``.  Server observe sites are
written ``if self.telemetry_enabled: hist.observe(...)``, so with
telemetry off the histogram machinery is never entered.  Two layers of
proof:

* a hot loop over the guard leaves **zero** live allocations attributed
  to this file or to the instruments module;
* a real ``SdurServer`` ingesting deliveries with telemetry disabled
  leaves zero live allocations attributed to *any* module of
  ``repro.telemetry`` (the registry is bound readers only — nothing
  runs until something samples).
"""

import random
import tracemalloc

import repro.telemetry.instruments as instruments_module
from repro.core.config import SdurConfig, ServiceCosts
from repro.core.directory import ClusterDirectory
from repro.core.partitioning import PartitionMap
from repro.core.server import SdurServer
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection

from tests.oracles.stub_runtime import DropFabric, StubRuntime

TELEMETRY_FILES = [
    instruments_module.__file__.replace("instruments.py", name)
    for name in (
        "instruments.py",
        "registry.py",
        "sampler.py",
        "series.py",
        "wiring.py",
        "health.py",
    )
]


class _GuardedSite:
    """The shape of every server observe site."""

    def __init__(self, enabled: bool, hist) -> None:
        self.telemetry_enabled = enabled
        self.hist = hist


def _hot_loop(site: _GuardedSite, n: int = 2000) -> None:
    for i in range(n):
        if site.telemetry_enabled:
            site.hist.observe(0.001 * (i % 7 + 1))


def _live_bytes(fn, files: list[str]) -> int:
    fn()  # warm caches (bytecode, attribute lookups) outside the window
    tracemalloc.start()
    try:
        filters = [tracemalloc.Filter(True, f) for f in files]
        before = tracemalloc.take_snapshot().filter_traces(filters)
        fn()
        after = tracemalloc.take_snapshot().filter_traces(filters)
    finally:
        tracemalloc.stop()
    return sum(max(stat.size_diff, 0) for stat in after.compare_to(before, "lineno"))


def _make_hist():
    from repro.telemetry import MetricRegistry

    return MetricRegistry("s1").histogram("h", unit="seconds", help="x")


def test_disabled_guard_allocates_nothing():
    site = _GuardedSite(False, _make_hist())
    files = [__file__, *TELEMETRY_FILES]
    assert _live_bytes(lambda: _hot_loop(site), files) == 0


def test_enabled_histogram_does_allocate():
    """Sanity check that the measurement would catch real recording."""
    site = _GuardedSite(True, _make_hist())
    grown = _live_bytes(lambda: _hot_loop(site), TELEMETRY_FILES)
    assert grown > 0
    assert site.hist.count == 2 * 2000  # warm-up + measured pass


# ----------------------------------------------------------------------
# The real hot path: a server ingesting deliveries, telemetry off.
# ----------------------------------------------------------------------


def _deliver(server: SdurServer, start: int, count: int) -> None:
    rng = random.Random(start)
    for seq in range(start, start + count):
        proj = TxnProjection(
            tid=TxnId("bench", seq),
            partition="p0",
            readset=ReadsetDigest.exact([f"0/k{rng.randrange(100)}"]),
            writeset={f"0/k{rng.randrange(100)}": seq},
            snapshot=server.sc,
            partitions=("p0",),
            coordinator="s0",
            client="",
        )
        server.on_adeliver(seq, proj)


def test_server_hot_path_disabled_touches_no_telemetry_code():
    server = SdurServer(
        runtime=StubRuntime(record=False),
        partition="p0",
        directory=ClusterDirectory(partitions={"p0": ["s0"]}, preferred={"p0": "s0"}),
        partition_map=PartitionMap.by_index(1),
        fabric=DropFabric(),
        config=SdurConfig(
            costs=ServiceCosts(), gossip_interval=None, vote_timeout=None
        ),
    )
    assert server.telemetry_enabled is False
    _deliver(server, 0, 200)  # warm up
    tracemalloc.start()
    try:
        filters = [tracemalloc.Filter(True, f) for f in TELEMETRY_FILES]
        before = tracemalloc.take_snapshot().filter_traces(filters)
        _deliver(server, 200, 400)
        after = tracemalloc.take_snapshot().filter_traces(filters)
    finally:
        tracemalloc.stop()
    grown = sum(
        max(stat.size_diff, 0) for stat in after.compare_to(before, "lineno")
    )
    assert grown == 0, f"telemetry code allocated {grown} bytes while disabled"
    assert server.stats.committed_local + server.stats.aborted > 0
