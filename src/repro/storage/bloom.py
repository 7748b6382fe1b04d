"""Deterministic bloom filters.

The paper's prototype ships only *hash digests* of readsets at commit time
and keeps the last K writeset filters for certification (Section V),
trading a small false-positive abort rate for bandwidth and memory.  This
module provides the filter: deterministic across processes (positions
derived from SHA-256, never Python's salted ``hash()``), serializable to
bytes for the wire, and sized from a target false-positive rate.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Iterable


#: Independent 16-bit position sources available per key (one SHA-256).
_MAX_HASHES = 16


def _position_words(key: Any) -> list[int]:
    """Sixteen independent 16-bit hash words of ``key`` via one SHA-256.

    Independent words (rather than Kirsch–Mitzenmacher double hashing)
    matter here because SDUR's readset digests are *tiny* (a handful of
    keys, tens of bits): with a small modulus, double-hashed positions
    form short arithmetic progressions that are heavily correlated and
    blow the false-positive rate up by orders of magnitude.
    """
    digest = hashlib.sha256(repr(key).encode()).digest()
    return [int.from_bytes(digest[2 * i : 2 * i + 2], "big") for i in range(_MAX_HASHES)]


class BloomFilter:
    """A classic bloom filter with independent per-hash positions."""

    __slots__ = ("num_bits", "num_hashes", "_bits", "count")

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise ValueError("num_bits and num_hashes must be positive")
        if num_hashes > _MAX_HASHES:
            raise ValueError(f"at most {_MAX_HASHES} hashes supported, got {num_hashes}")
        if num_bits > 0xFFFF + 1:
            raise ValueError("num_bits must fit 16-bit positions (<= 65536)")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        #: Number of keys added (not deduplicated).
        self.count = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def with_capacity(cls, expected_items: int, fp_rate: float = 0.001) -> "BloomFilter":
        """Size a filter for ``expected_items`` at ``fp_rate`` false positives.

        The bit count is rounded up to a power of two with a 64-bit
        floor (capped at 65536 so positions fit the 16-bit hash words),
        and the hash count adapts to the resulting bits-per-item, so tiny
        filters stay at or below their nominal FP rate.
        """
        if expected_items <= 0:
            expected_items = 1
        if not 0 < fp_rate < 1:
            raise ValueError(f"fp_rate must be in (0, 1), got {fp_rate!r}")
        ideal = math.ceil(-expected_items * math.log(fp_rate) / (math.log(2) ** 2))
        num_bits = 64
        while num_bits < ideal and num_bits < 0xFFFF + 1:
            num_bits *= 2
        num_hashes = min(
            _MAX_HASHES, max(1, round(num_bits / expected_items * math.log(2)))
        )
        return cls(num_bits, num_hashes)

    @classmethod
    def from_keys(cls, keys: Iterable[Any], fp_rate: float = 0.001) -> "BloomFilter":
        keys = list(keys)
        bloom = cls.with_capacity(len(keys), fp_rate)
        for key in keys:
            bloom.add(key)
        return bloom

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def _positions(self, key: Any) -> Iterable[int]:
        words = _position_words(key)
        for i in range(self.num_hashes):
            yield words[i] % self.num_bits

    def add(self, key: Any) -> None:
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self.count += 1

    def __contains__(self, key: Any) -> bool:
        return all(self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(key))

    def contains_any(self, keys: Iterable[Any]) -> bool:
        """True if any of ``keys`` is (possibly) in the filter."""
        return any(key in self for key in keys)

    # ------------------------------------------------------------------
    # Serialization (wire format: the digest the paper broadcasts)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        header = (
            self.num_bits.to_bytes(4, "big")
            + self.num_hashes.to_bytes(2, "big")
            + self.count.to_bytes(4, "big")
        )
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        if len(data) < 10:
            raise ValueError("truncated bloom filter")
        num_bits = int.from_bytes(data[:4], "big")
        num_hashes = int.from_bytes(data[4:6], "big")
        count = int.from_bytes(data[6:10], "big")
        bloom = cls(num_bits, num_hashes)
        bits = data[10:]
        if len(bits) != len(bloom._bits):
            raise ValueError("bloom filter payload size mismatch")
        bloom._bits = bytearray(bits)
        bloom.count = count
        return bloom

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self.num_bits}, hashes={self.num_hashes}, "
            f"items={self.count})"
        )
