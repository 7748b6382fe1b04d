"""Message latency models for the simulated network.

A latency model maps a (source, destination) pair to a one-way delay in
seconds.  Models are pure given their RNG stream, which keeps the whole
simulation reproducible.

The region-aware model used by the geo experiments lives in
:mod:`repro.net.topology` (it needs to know node placement); the models
here are placement-agnostic building blocks.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Hashable


class LatencyModel(ABC):
    """Maps (src, dst) to a one-way message delay in seconds."""

    @abstractmethod
    def sample(self, src: Hashable, dst: Hashable, rng: random.Random) -> float:
        """Return the delay for one message from ``src`` to ``dst``."""

    @abstractmethod
    def expected(self, src: Hashable, dst: Hashable) -> float:
        """Return the mean delay (used for the delaying heuristic)."""


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` seconds."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"latency must be non-negative, got {delay!r}")
        self.delay = delay

    def sample(self, src: Hashable, dst: Hashable, rng: random.Random) -> float:
        return self.delay

    def expected(self, src: Hashable, dst: Hashable) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay!r})"


class JitteredLatency(LatencyModel):
    """A base delay plus non-negative truncated-Gaussian jitter.

    This approximates the long-but-thin tail of datacenter RTT
    distributions without allowing delays below the propagation floor.
    """

    def __init__(self, base: float, jitter_stddev: float) -> None:
        if base < 0 or jitter_stddev < 0:
            raise ValueError("base and jitter_stddev must be non-negative")
        self.base = base
        self.jitter_stddev = jitter_stddev

    def sample(self, src: Hashable, dst: Hashable, rng: random.Random) -> float:
        jitter = abs(rng.gauss(0.0, self.jitter_stddev)) if self.jitter_stddev else 0.0
        return self.base + jitter

    def expected(self, src: Hashable, dst: Hashable) -> float:
        # E[|N(0, s)|] = s * sqrt(2/pi)
        return self.base + self.jitter_stddev * 0.7978845608028654

    def __repr__(self) -> str:
        return f"JitteredLatency(base={self.base!r}, jitter_stddev={self.jitter_stddev!r})"
