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

    def expected(self, src: Hashable, dst: Hashable) -> float:
        """Return the mean delay (used for the delaying heuristic).

        Subclasses with a cheap closed form should override this; the
        default estimates by sampling with a fixed-seed throwaway RNG.
        """
        probe = random.Random(0)
        samples = [self.sample(src, dst, probe) for _ in range(64)]
        return sum(samples) / len(samples)


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


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got {low!r}, {high!r}")
        self.low = low
        self.high = high

    def sample(self, src: Hashable, dst: Hashable, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def expected(self, src: Hashable, dst: Hashable) -> float:
        return (self.low + self.high) / 2

    def __repr__(self) -> str:
        return f"UniformLatency({self.low!r}, {self.high!r})"


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


class CompositeLatency(LatencyModel):
    """Dispatch to per-link models with a fallback default.

    Links are registered per ordered ``(src, dst)`` pair; unregistered
    pairs use the default model.  This is handy in unit tests that need
    one slow link inside an otherwise uniform network.
    """

    def __init__(self, default: LatencyModel) -> None:
        self.default = default
        self._links: dict[tuple[Hashable, Hashable], LatencyModel] = {}

    def _model_for(self, src: Hashable, dst: Hashable) -> LatencyModel:
        return self._links.get((src, dst), self.default)

    def sample(self, src: Hashable, dst: Hashable, rng: random.Random) -> float:
        return self._model_for(src, dst).sample(src, dst, rng)

    def expected(self, src: Hashable, dst: Hashable) -> float:
        return self._model_for(src, dst).expected(src, dst)
