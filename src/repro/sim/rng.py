"""Reproducible named random streams.

All randomness in an experiment flows from a single integer master seed.
Components ask the registry for a *named* stream (for example
``rng.stream("net.latency")`` or ``rng.stream("client.7")``); the stream's
seed is derived by hashing ``(master_seed, name)``, so adding a new
component never perturbs the randomness seen by existing ones.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from ``master_seed`` and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the same object, so a
        component that draws from its stream sees one continuous sequence.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream
