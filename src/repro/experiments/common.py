"""Shared infrastructure for the per-figure experiment modules.

``run_geo_microbench`` is the workhorse: it stands up a WAN 1 / WAN 2
deployment, spreads closed-loop microbenchmark clients across the
partitions' home regions (clients are co-located with their partition's
preferred server, as the paper's §IV-A prescribes), runs
warm-up + measurement + drain, and returns local/global summaries and
CDFs.  The per-figure modules vary one knob at a time around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.config import DelayMode, SdurConfig
from repro.core.partitioning import PartitionMap
from repro.errors import ConfigurationError
from repro.geo.deployments import Deployment, wan1_deployment, wan2_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import ExperimentRun, run_experiment
from repro.metrics.collector import WorkloadSummary
from repro.workload.microbench import MicroBenchmark


@dataclass(frozen=True)
class GeoRunParams:
    """One microbenchmark run in a geo deployment."""

    deployment: str = "wan1"  # "wan1" | "wan2"
    num_partitions: int = 2
    global_fraction: float = 0.0
    reorder_threshold: int = 0
    delay_mode: DelayMode = DelayMode.OFF
    delay_fixed: float = 0.0
    clients_per_partition: int = 8
    items_per_partition: int = 2_000
    warmup: float = 3.0
    measure: float = 30.0
    drain: float = 3.0
    seed: int = 1
    #: Per-link latency jitter (stddev as a fraction of the base delay);
    #: smooths CDFs the way real EC2 variance does.
    jitter_fraction: float = 0.1
    #: Clients ship readsets as bloom digests (the paper's §V transport;
    #: exercises the certifier's per-record fallback path).
    bloom_readsets: bool = False
    config: SdurConfig | None = None

    def quick(self) -> "GeoRunParams":
        """A faster variant for CI-grade benchmark runs."""
        return replace(self, clients_per_partition=6, measure=12.0, warmup=2.0)


@dataclass
class GeoRunResult:
    """Summaries of one run (latencies in seconds; the tables convert)."""

    params: GeoRunParams
    total: WorkloadSummary
    locals_: WorkloadSummary
    globals_: WorkloadSummary
    cdf_locals: list[tuple[float, float]]
    cdf_globals: list[tuple[float, float]]
    run: ExperimentRun

    def row(self) -> dict[str, Any]:
        p = self.params
        return {
            "deployment": p.deployment,
            "globals_pct": round(100 * p.global_fraction, 1),
            "tput_total": round(self.total.throughput, 1),
            "tput_locals": round(self.locals_.throughput, 1),
            "tput_globals": round(self.globals_.throughput, 1),
            "local_avg_ms": round(self.locals_.latency.ms("mean"), 1),
            "local_p99_ms": round(self.locals_.latency.ms("p99"), 1),
            "global_avg_ms": round(self.globals_.latency.ms("mean"), 1),
            "global_p99_ms": round(self.globals_.latency.ms("p99"), 1),
            "aborts": self.total.aborted,
        }


def _build_deployment(params: GeoRunParams) -> Deployment:
    if params.deployment == "wan1":
        return wan1_deployment(params.num_partitions)
    if params.deployment == "wan2":
        return wan2_deployment(params.num_partitions)
    raise ConfigurationError(f"unknown deployment {params.deployment!r}")


def run_geo_microbench(params: GeoRunParams) -> GeoRunResult:
    """Build, run, and summarize one geo microbenchmark configuration."""
    deployment = _build_deployment(params)
    config = params.config or SdurConfig()
    config = replace(
        config,
        reorder_threshold=params.reorder_threshold,
        delay_mode=params.delay_mode,
        delay_fixed=params.delay_fixed,
    )
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(params.num_partitions),
        config,
        seed=params.seed,
        jitter_fraction=params.jitter_fraction,
    )
    pairs = []
    for partition in deployment.partition_ids:
        region = deployment.preferred_region[partition]
        home_index = int(partition[1:])
        for _ in range(params.clients_per_partition):
            client = cluster.add_client(
                region=region, bloom_readsets=params.bloom_readsets
            )
            workload = MicroBenchmark(
                num_partitions=params.num_partitions,
                home_partition_index=home_index,
                global_fraction=params.global_fraction,
                items_per_partition=params.items_per_partition,
            )
            pairs.append((client, workload))
    run = run_experiment(
        cluster, pairs, warmup=params.warmup, measure=params.measure, drain=params.drain
    )
    return GeoRunResult(
        params=params,
        total=run.summary(),
        locals_=run.summary(is_global=False),
        globals_=run.summary(is_global=True),
        cdf_locals=run.cdf(is_global=False),
        cdf_globals=run.cdf(is_global=True),
        run=run,
    )


@dataclass
class ExperimentTable:
    """A titled set of printable rows, as the paper's figures report."""

    experiment_id: str
    title: str
    rows: list[dict[str, Any]]
    notes: list[str] = field(default_factory=list)
    #: Optional named latency CDFs (label -> [(seconds, fraction)]).
    cdfs: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def render(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            columns = list(self.rows[0])
            widths = {
                col: max(len(col), *(len(str(row.get(col, ""))) for row in self.rows))
                for col in columns
            }
            header = "  ".join(col.ljust(widths[col]) for col in columns)
            lines.append(header)
            lines.append("-" * len(header))
            for row in self.rows:
                lines.append(
                    "  ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns)
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def print(self) -> None:
        print(self.render())

    def extra_info(self) -> dict[str, Any]:
        """Compact payload for pytest-benchmark's ``extra_info``."""
        return {"experiment": self.experiment_id, "rows": self.rows, "notes": self.notes}
