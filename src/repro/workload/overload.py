"""Load shapes and storm workloads for the overload scenarios (§16).

The paper's closed-loop generators cannot overload a deployment: each
client has one transaction outstanding, so offered load is capped by the
client count and naturally backs off as latency grows.  Real overload is
open-loop — demand arrives at a rate set by the outside world, caring
nothing for how the system is doing.  A :class:`LoadShape` scripts that
offered rate over time for the open-loop driver
(:class:`repro.harness.driver.OpenLoopDriver`):

* :class:`ConstantRate` — steady offered load (e.g. 5x capacity for O4);
* :class:`FlashCrowd` — a baseline rate with a burst window at a peak
  rate, optionally ramped (O1's flash crowd).

:class:`HotKeyStorm` skews *what* the transactions touch: during the
storm window a fraction of traffic hammers a small hot-key set, driving
certification conflicts up exactly when load spikes.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.workload.base import TxnSpec, Workload
from repro.workload.microbench import _update_two


class LoadShape(ABC):
    """Offered load (transactions per second) as a function of time."""

    @abstractmethod
    def rate(self, now: float) -> float:
        """Arrival rate in txn/s at simulation time ``now``."""


class ConstantRate(LoadShape):
    """The same offered rate forever."""

    def __init__(self, tps: float) -> None:
        if tps < 0:
            raise ConfigurationError(f"rate must be non-negative, got {tps!r}")
        self.tps = tps

    def rate(self, now: float) -> float:
        return self.tps


class FlashCrowd(LoadShape):
    """``base`` tps, spiking to ``peak`` during ``[start, end)``.

    ``ramp`` seconds of linear climb/descent soften the edges (0 = a
    step, the harshest crowd).
    """

    def __init__(
        self, base: float, peak: float, start: float, end: float, ramp: float = 0.0
    ) -> None:
        if base < 0 or peak < base:
            raise ConfigurationError("need 0 <= base <= peak")
        if end <= start:
            raise ConfigurationError("flash-crowd window must have positive length")
        if ramp < 0 or 2 * ramp > end - start:
            raise ConfigurationError("ramps must fit inside the window")
        self.base = base
        self.peak = peak
        self.start = start
        self.end = end
        self.ramp = ramp

    def rate(self, now: float) -> float:
        if now < self.start or now >= self.end:
            return self.base
        if self.ramp:
            into = now - self.start
            left = self.end - now
            if into < self.ramp:
                return self.base + (self.peak - self.base) * into / self.ramp
            if left < self.ramp:
                return self.base + (self.peak - self.base) * left / self.ramp
        return self.peak


class HotKeyStorm(Workload):
    """Wraps a workload; during the storm window, hammer a hot-key set.

    With probability ``storm_fraction`` (inside ``[start, end)``) the
    transaction updates two keys drawn from ``hot_keys`` instead of the
    base workload's spread — a viral object, a celebrity row.  ``clock``
    supplies the current time (pass ``world.kernel.now`` or a runtime's
    ``now``); the workload interface itself is time-blind.
    """

    def __init__(
        self,
        base: Workload,
        clock: Callable[[], float],
        hot_keys: tuple[str, ...],
        start: float,
        end: float,
        storm_fraction: float = 0.8,
    ) -> None:
        if len(hot_keys) < 2:
            raise ConfigurationError("a storm needs at least two hot keys")
        if not 0.0 <= storm_fraction <= 1.0:
            raise ConfigurationError(f"storm_fraction {storm_fraction!r} not in [0, 1]")
        if end <= start:
            raise ConfigurationError("storm window must have positive length")
        self.base = base
        self.clock = clock
        self.hot_keys = tuple(hot_keys)
        self.start = start
        self.end = end
        self.storm_fraction = storm_fraction

    def next_txn(self, rng: random.Random) -> TxnSpec:
        now = self.clock()
        if self.start <= now < self.end and rng.random() < self.storm_fraction:
            key_a, key_b = rng.sample(self.hot_keys, 2)
            return TxnSpec(program=_update_two(key_a, key_b), label="hot")
        return self.base.next_txn(rng)
