"""A1 — bloom-filter certification ablation (paper §V).

The prototype broadcasts only *hashes* of readsets (bloom digests) and
certifies against them, trading a small false-positive abort rate for
bandwidth.  This ablation runs a contention-free workload (large key
population, so every certification conflict is a bloom false positive)
with exact readsets vs bloom digests at several target FP rates.
Every client works a *disjoint* key range, so genuine conflicts are
impossible and every abort under bloom digests is a false positive.

Shape criteria: exact readsets never spuriously abort; bloom aborts
appear at a rate tracking the configured FP target, while the digest
stays a few dozen bytes regardless of readset size.
"""

from __future__ import annotations

from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.core.transaction import ReadsetDigest
from repro.experiments.common import ExperimentTable
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import run_experiment
from repro.workload.microbench import MicroBenchmark

MODES: tuple[tuple[str, bool, float], ...] = (
    ("exact", False, 0.0),
    ("bloom fp=0.01", True, 0.01),
    ("bloom fp=0.001", True, 0.001),
)


def _digest_bytes(fp_rate: float, num_keys: int) -> int:
    digest = ReadsetDigest.bloomed(
        [f"0/obj{i}" for i in range(num_keys)], fp_rate=fp_rate
    )
    assert digest.bloom is not None
    return len(digest.bloom)


def _exact_bytes(num_keys: int) -> int:
    return sum(len(f"0/obj{i}".encode()) for i in range(num_keys))


def _measured_fp(fp_rate: float, num_keys: int) -> float:
    probes = 20_000
    digest = ReadsetDigest.bloomed(
        [f"0/obj{i}" for i in range(num_keys)], fp_rate=fp_rate
    )
    hits = sum(1 for i in range(probes) if digest.contains_any([f"absent{i}"]))
    return hits / probes


def _run(bloom: bool, fp_rate: float, quick: bool) -> dict:
    deployment = lan_deployment(2)
    cluster = build_cluster(
        deployment, PartitionMap.by_index(2), SdurConfig(), seed=91, intra_delay=0.0005
    )
    pairs = []
    client_index = 0
    for partition in deployment.partition_ids:
        home_index = int(partition[1:])
        for _ in range(8):
            client = cluster.add_client(
                region=deployment.preferred_region[partition],
                bloom_readsets=bloom,
                bloom_fp_rate=fp_rate or 0.001,
            )
            workload = MicroBenchmark(
                num_partitions=2,
                home_partition_index=home_index,
                global_fraction=0.1,
                items_per_partition=2_000,
                # Disjoint ranges: conflicts are impossible by construction.
                key_offset=client_index * 100_000,
            )
            client_index += 1
            pairs.append((client, workload))
    run = run_experiment(
        cluster, pairs, warmup=1.0, measure=4.0 if quick else 10.0, drain=1.0
    )
    total = run.summary()
    return {
        "committed": total.committed,
        "aborted": total.aborted,
        "abort_rate_pct": round(100 * total.abort_rate, 3),
    }


def run(quick: bool = False) -> ExperimentTable:
    rows = []
    # End-to-end: conflict-free workload, aborts are pure false positives.
    for name, bloom, fp_rate in MODES:
        result = _run(bloom, fp_rate, quick)
        rows.append(
            {
                "readset_digest": name,
                "readset_keys": 2,
                **result,
                "wire_bytes": _digest_bytes(fp_rate, 2) if bloom else _exact_bytes(2),
                "measured_fp": round(_measured_fp(fp_rate, 2), 5) if bloom else 0.0,
            }
        )
    # Digest scaling: bytes and measured FP as readsets grow (exact keys
    # grow linearly; digests grow with the FP budget only).
    for num_keys in (8, 32):
        for fp_rate in (0.01, 0.001):
            rows.append(
                {
                    "readset_digest": f"bloom fp={fp_rate}",
                    "readset_keys": num_keys,
                    "wire_bytes": _digest_bytes(fp_rate, num_keys),
                    "measured_fp": round(_measured_fp(fp_rate, num_keys), 5),
                }
            )
        rows.append(
            {
                "readset_digest": "exact",
                "readset_keys": num_keys,
                "wire_bytes": _exact_bytes(num_keys),
                "measured_fp": 0.0,
            }
        )
    return ExperimentTable(
        experiment_id="A1",
        title="Bloom-digest readsets vs exact (ablation of paper §V)",
        rows=rows,
        notes=[
            "the sim workload is conflict-free by construction (disjoint "
            "per-client key ranges): every abort under bloom digests is a "
            "false positive, and exact readsets must show zero",
            "digests stay tens of bytes as readsets grow; exact keys grow "
            "linearly — the bandwidth trade of paper §V",
        ],
    )
