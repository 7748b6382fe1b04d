"""Key → partition mapping.

Clients must know the partitioning scheme to route reads (paper §III-A);
both clients and servers use the same :class:`PartitionMap`.  Two schemes
are provided: deterministic hashing (CRC-32, stable across processes and
runs — never Python's randomized ``hash()``), and explicit assignment for
workloads that co-locate related keys (the social network partitions all
of a user's data together).
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Iterable

from repro.errors import ConfigurationError


class PartitionMap:
    """Maps keys to partition ids ``p0 … p{n-1}``."""

    def __init__(
        self,
        num_partitions: int,
        assign: Callable[[str], int] | None = None,
    ) -> None:
        if num_partitions < 1:
            raise ConfigurationError(f"need at least one partition, got {num_partitions}")
        self.num_partitions = num_partitions
        self._assign = assign

    @classmethod
    def by_index(cls, num_partitions: int) -> "PartitionMap":
        """Keys carry their partition (or user) index as a numeric prefix.

        ``"3/obj17"`` lands in partition ``3 % num_partitions``.  The
        microbenchmark and social-network workloads use this so a
        transaction's locality is controlled exactly.
        """

        def assign(key: str) -> int:
            prefix = key.split("/", 1)[0]
            return int(prefix) % num_partitions

        return cls(num_partitions, assign)

    @staticmethod
    def partition_name(index: int) -> str:
        return f"p{index}"

    def partition_of(self, key: str) -> str:
        """The partition id storing ``key``."""
        if self._assign is not None:
            index = self._assign(key)
        else:
            index = zlib.crc32(str(key).encode()) % self.num_partitions
        if not 0 <= index < self.num_partitions:
            raise ConfigurationError(
                f"assign({key!r}) -> {index}, outside [0, {self.num_partitions})"
            )
        return self.partition_name(index)

    def partitions_of(self, keys: Iterable[str]) -> tuple[str, ...]:
        """Sorted tuple of distinct partitions touched by ``keys``."""
        return tuple(sorted({self.partition_of(key) for key in keys}))

