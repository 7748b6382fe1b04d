"""Shared fixtures and helpers for the SDUR test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings as hypothesis_settings

from repro.core.client import ReadMany, SdurClient, TxnResult

# Derandomized hypothesis profile for CI: examples are generated from a
# fixed seed (reproducible across runs) and failures print the full
# ``@reproduce_failure`` blob so a falsifying example can be promoted
# into a deterministic regression (see
# tests/properties/test_vote_ledger_regression.py for the pattern).
# Activate with ``HYPOTHESIS_PROFILE=ci``.
hypothesis_settings.register_profile(
    "ci", derandomize=True, print_blob=True, deadline=None
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.geo.deployments import Deployment, lan_deployment, wan1_deployment
from repro.harness.cluster import SdurCluster, build_cluster
from repro.runtime.sim import SimWorld


@pytest.fixture
def world() -> SimWorld:
    """A bare simulation world (1 ms constant latency, no topology)."""
    return SimWorld(seed=1234)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(99)


def make_cluster(
    num_partitions: int = 2,
    deployment: Deployment | None = None,
    config: SdurConfig | None = None,
    seed: int = 7,
    **kwargs,
) -> SdurCluster:
    """A started-not-yet cluster on a LAN deployment (fast, deterministic)."""
    deployment = deployment or lan_deployment(num_partitions)
    return build_cluster(
        deployment,
        PartitionMap.by_index(num_partitions),
        config or SdurConfig(),
        seed=seed,
        intra_delay=0.001,
        **kwargs,
    )


def make_wan1_cluster(config: SdurConfig | None = None, seed: int = 7, **kwargs) -> SdurCluster:
    deployment = wan1_deployment(2)
    return build_cluster(
        deployment, PartitionMap.by_index(2), config or SdurConfig(), seed=seed, **kwargs
    )


def run_txn(
    cluster: SdurCluster,
    client: SdurClient,
    program,
    read_only: bool = False,
    label: str = "",
    timeout: float = 10.0,
) -> TxnResult:
    """Execute one transaction and drive the world until it completes."""
    results: list[TxnResult] = []
    client.execute(program, results.append, read_only=read_only, label=label)
    deadline = cluster.world.now + timeout
    while not results and cluster.world.now < deadline:
        if not cluster.world.kernel.step():
            break
    assert results, f"transaction did not complete within {timeout}s of simulated time"
    return results[0]


def inflight_read(client: SdurClient):
    """``(state, op)`` of the client's one in-flight read."""
    (state,) = client._active.values()
    (op,) = state.reads.values()
    return state, op


def update_program(keys: list[str], bump: int = 1):
    """Read all keys, write each incremented (ints; None reads as 0)."""

    def program(txn):
        values = yield ReadMany(tuple(keys))
        for key in keys:
            base = values[key] if isinstance(values[key], int) else 0
            txn.write(key, base + bump)

    return program


def read_program(keys: list[str], sink: dict | None = None):
    """Read all keys; optionally copy the values into ``sink``."""

    def program(txn):
        values = yield ReadMany(tuple(keys))
        if sink is not None:
            sink.update(values)

    return program
