"""A8 — sharded vs serial certification executor (docs/PROTOCOL.md §19).

Runs identical WAN 1 workloads with the two certification executors:

* **serial** (default) — every delivered transaction certifies inline
  against the single ``KeyConflictIndex``, in delivery order;
* **sharded** — ``repro.core.shardexec``: the key space is
  hash-partitioned into shards with their own index slices, delivered
  batches pre-certify against every shard (phase 1 — shard after shard
  on one thread; the CPU cost model prices them as parallel), and a
  strict delivery-order merge loop replays intra-batch conflicts via the
  carry-forward set (phase 2).

The executors must be *observationally identical* — certification
decides commit order at every replica, so the sharded executor is only
admissible if every verdict matches the serial one's.  Each config row
pair runs from the same seed, and the ``outcomes_match`` column checks
that committed and aborted totals (and every protocol counter except
the certification-cost ones) are equal between the two runs; the
differential property suite
(``tests/properties/test_prop_shardexec.py``) pins the same claim per
delivery sequence.  What *does* change is the work's shape:
``shard_certify_calls`` counts per-shard conflict probes, and
``shard_imbalance_max`` records the worst observed shard-load skew
(100 = perfectly balanced; N×100 = one shard carried everything).

The simulated cluster charges no CPU per conflict probe, so throughput
barely moves here; ``benchmarks/bench_shardcert.py`` prices the win
under the CPU cost model (≥1.5x certified-tps at shards=4).  This table
is the *equivalence* evidence on a live multi-partition cluster, with
the work counters showing the parallelism the benchmark monetizes.
"""

from __future__ import annotations

from typing import Any

from repro.core.batch import BatchingConfig
from repro.core.config import SdurConfig
from repro.core.shardexec import ShardExecConfig
from repro.experiments.common import ExperimentTable, GeoRunParams, run_geo_microbench

#: (deployment, max_batch, bloom readsets) — baseline WAN 1 with §18
#: batching (exercises the two-phase precertify/merge path), bloom
#: transport (whole digests ride one shard, probed with full write
#: sets), and unbatched delivery (the fan-out single-certify path).
CONFIGS: tuple[tuple[str, int, bool], ...] = (
    ("wan1", 8, False),
    ("wan1", 8, True),
    ("wan1", 1, False),
)

MODES: tuple[str, ...] = ("serial", "sharded")

NUM_SHARDS = 4

#: Counters that measure certification *cost*, not protocol behavior —
#: the only ones allowed to differ between the paired runs.  Includes
#: the wall-clock timing counters: identical verdicts take different
#: nanoseconds.
COST_COUNTERS = frozenset(
    {
        "ctest_calls",
        "index_hits",
        "index_fallbacks",
        "batch_certify_ns",
        "shard_certify_calls",
        "shard_merge_ns",
        "shard_imbalance_max",
    }
)


def _behavior_stats(result) -> dict[str, dict[str, int]]:
    """Per-node protocol counters with the cost counters masked out."""
    return {
        node: {k: v for k, v in counters.items() if k not in COST_COUNTERS}
        for node, counters in result.run.cluster.server_stats().items()
    }


def _run_config(
    deployment: str, max_batch: int, bloom: bool, mode: str, quick: bool
):
    config = SdurConfig(
        bloom_readsets=bloom,
        batching=BatchingConfig(max_batch=max_batch) if max_batch > 1 else None,
    )
    if mode == "sharded":
        config = config.with_shard_executor(ShardExecConfig(num_shards=NUM_SHARDS))
    params = GeoRunParams(
        deployment=deployment,
        num_partitions=2,
        global_fraction=0.2,
        clients_per_partition=4 if quick else 6,
        items_per_partition=400,
        warmup=2.0,
        measure=8.0 if quick else 30.0,
        drain=4.0,
        seed=7,
        bloom_readsets=bloom,
        config=config,
    )
    return run_geo_microbench(params)


def run(quick: bool = False) -> ExperimentTable:
    rows: list[dict[str, Any]] = []
    for deployment, max_batch, bloom in CONFIGS:
        results = {
            mode: _run_config(deployment, max_batch, bloom, mode, quick)
            for mode in MODES
        }
        serial_behavior = _behavior_stats(results["serial"])
        for mode in MODES:
            result = results[mode]
            run_ = result.run
            label = f"{deployment} batch={max_batch}" + (" bloom" if bloom else "")
            rows.append(
                {
                    "config": label,
                    "executor": mode,
                    "tput_total": round(result.total.throughput, 1),
                    "committed": result.total.committed,
                    "aborted": result.total.aborted,
                    "shard_certify_calls": run_.counter("shard_certify_calls"),
                    "shard_imbalance_max": run_.counter("shard_imbalance_max"),
                    "outcomes_match": _behavior_stats(result) == serial_behavior,
                }
            )
    return ExperimentTable(
        experiment_id="A8",
        title="Sharded vs serial certification executor (docs/PROTOCOL.md §19)",
        rows=rows,
        notes=[
            "each config runs both executors from the same seed; "
            "outcomes_match compares committed/aborted totals and every "
            "non-cost protocol counter per node against the serial run — "
            "verdict equivalence at the system level (the differential "
            "property suite pins it per delivery sequence)",
            "shard_certify_calls counts per-shard conflict probes "
            f"(shards={NUM_SHARDS} here); shard_imbalance_max is the "
            "worst observed shard-load skew, 100 = perfectly balanced",
            "the sim charges no CPU per probe, so throughput is flat "
            "here; benchmarks/bench_shardcert.py prices the critical-path "
            "win under the CPU cost model",
        ],
    )
