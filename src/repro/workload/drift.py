"""A zipf hotspot that wanders across the keyspace over time.

The autoscale experiment (E3) needs load that concentrates on one
partition's key range, stays long enough to trigger a split, then moves
on so the abandoned range cools and earns a merge.  This workload lays
the keyspace out as one flat index space — ``base_partitions × items``
indices, key ``i`` spelled ``"{i // items}/obj{i % items}"`` so the
``by_index`` routing scheme maps each block of ``items`` to one seed
partition — and samples a zipf rank *relative to a moving hot start*:

    index(t) = (hot_start(t) + zipf_rank) % population
    hot_start(t) = floor(t / dwell) * items

Every ``dwell`` seconds the hotspot jumps one partition-sized block
forward.  Time comes from an injected ``clock`` callable (the sim
world's ``now``), keeping the generator deterministic under the
driver's RNG while still drifting with simulated time.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.workload.base import TxnSpec, Workload
from repro.workload.distributions import ZipfSampler
from repro.workload.microbench import _update_two


class DriftingHotspot(Workload):
    """Two-key update transactions whose hot range moves over time."""

    def __init__(
        self,
        base_partitions: int,
        clock: Callable[[], float],
        items_per_partition: int = 1_000,
        theta: float = 0.9,
        dwell: float = 10.0,
        global_fraction: float = 0.0,
    ) -> None:
        if base_partitions < 1:
            raise ConfigurationError("need at least one partition")
        if dwell <= 0:
            raise ConfigurationError("dwell must be positive")
        if not 0.0 <= global_fraction <= 1.0:
            raise ConfigurationError(f"global_fraction {global_fraction!r} not in [0, 1]")
        self.items = items_per_partition
        self.population = base_partitions * items_per_partition
        self.clock = clock
        self.dwell = dwell
        self.global_fraction = global_fraction
        self.sampler = ZipfSampler(self.population, theta)

    def hot_start(self, now: float) -> int:
        """First index of the current hot block (drifts with time)."""
        return (int(now / self.dwell) * self.items) % self.population

    def _key(self, index: int) -> str:
        return f"{index // self.items}/obj{index % self.items}"

    def _sample_key(self, rng: random.Random, hot_start: int) -> str:
        rank = self.sampler.sample(rng)
        return self._key((hot_start + rank) % self.population)

    def next_txn(self, rng: random.Random) -> TxnSpec:
        hot_start = self.hot_start(self.clock())
        key_a = self._sample_key(rng, hot_start)
        if rng.random() < self.global_fraction:
            # Pair with a uniformly random far key: crosses partitions
            # almost surely, keeping global certification exercised
            # while the hotspot concentrates the write load.
            key_b = self._key(rng.randrange(self.population))
        else:
            key_b = self._sample_key(rng, hot_start)
        while key_b == key_a:
            key_b = self._key(rng.randrange(self.population))
        return TxnSpec(program=_update_two(key_a, key_b), label="drift")
