"""Transactions, projections, and readset digests.

A transaction ``t = (id, rs, ws)`` (paper §II-B): the readset holds the
*keys* read, the writeset holds keys *and* values written.  At commit
time the client splits the transaction into per-partition *projections*
— ``readset(t)_p`` and ``writeset(t)_p`` — and each projection is
atomically broadcast only within its partition.

Readsets can travel either as exact key sets or as bloom digests
(paper §V ships only hashes of the readset to save bandwidth, accepting
rare false-positive aborts).  :class:`ReadsetDigest` hides the difference
from the certifier: all it ever needs is ``contains_any(keys)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ProtocolError
from repro.net.message import Message, message
from repro.storage.bloom import BloomFilter


@message
@dataclass(frozen=True, order=True)
class TxnId(Message):
    """Globally unique transaction identifier: issuing client + sequence."""

    client: str
    seq: int

    def __str__(self) -> str:
        return f"{self.client}#{self.seq}"


class Outcome(str, enum.Enum):
    """Terminal state of a transaction."""

    COMMIT = "commit"
    ABORT = "abort"

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.value


@message
@dataclass(frozen=True)
class ReadsetDigest(Message):
    """Exact or bloom representation of a projection's readset keys."""

    #: Exact keys, or ``None`` when travelling as a bloom digest.
    keys: frozenset[str] | None = None
    #: Serialized bloom filter, or ``None`` when exact.
    bloom: bytes | None = None

    def __post_init__(self) -> None:
        if (self.keys is None) == (self.bloom is None):
            raise ProtocolError("digest must be exactly one of keys/bloom")

    @classmethod
    def exact(cls, keys: Any) -> "ReadsetDigest":
        return cls(keys=frozenset(keys), bloom=None)

    @classmethod
    def bloomed(cls, keys: Any, fp_rate: float = 0.001) -> "ReadsetDigest":
        bloom = BloomFilter.from_keys(keys, fp_rate=fp_rate)
        return cls(keys=None, bloom=bloom.to_bytes())

    def contains_any(self, keys: Any) -> bool:
        """May any of ``keys`` be in the readset?  (Bloom: one-sided error.)"""
        if self.keys is not None:
            return any(key in self.keys for key in keys)
        return self.filter().contains_any(keys)

    def filter(self) -> BloomFilter:
        """The deserialized bloom filter, cached on the (frozen) instance.

        Certification probes one digest against many key sets; decoding
        the filter once per digest instead of once per probe keeps the
        hot path off ``BloomFilter.from_bytes``.  The cache lives outside
        the dataclass fields, so equality, hashing, and the wire codec
        are unaffected.
        """
        if self.bloom is None:
            raise ProtocolError("digest is exact; no bloom filter to decode")
        cached = self.__dict__.get("_filter_cache")
        if cached is None:
            cached = BloomFilter.from_bytes(self.bloom)
            object.__setattr__(self, "_filter_cache", cached)
        return cached

    @property
    def is_exact(self) -> bool:
        return self.keys is not None


@message
@dataclass(frozen=True)
class TxnProjection(Message):
    """The slice of a transaction that one partition certifies and applies.

    This is what ``abcast(p, ·)`` carries in Algorithm 2: the projected
    readset digest and writeset, the snapshot the reads in this partition
    used, plus the routing metadata needed for votes and the client reply.
    """

    tid: TxnId
    #: The partition this projection belongs to.
    partition: str
    #: Digest of the keys read in this partition.
    readset: ReadsetDigest = field(default_factory=lambda: ReadsetDigest.exact(()))
    #: Keys and values written in this partition.
    writeset: dict[str, Any] = field(default_factory=dict)
    #: Snapshot counter of this partition observed by the reads.
    snapshot: int = 0
    #: All partitions the transaction touched, sorted.
    partitions: tuple[str, ...] = ()
    #: Server that received the commit request (Figure 1's message ①).
    coordinator: str = ""
    #: Client node to notify with the outcome.
    client: str = ""
    #: Configuration epoch the client routed under.  A partition whose
    #: key ownership changed in a later epoch rejects the projection
    #: (``StaleEpochNotice``) — its key routing may be stale.
    epoch: int = 0

    @property
    def is_global(self) -> bool:
        return len(self.partitions) > 1

    @property
    def is_local(self) -> bool:
        return not self.is_global

    @property
    def ws_keys(self) -> frozenset[str]:
        return frozenset(self.writeset)

    def __post_init__(self) -> None:
        if self.partition not in self.partitions:
            raise ProtocolError(
                f"projection for {self.partition!r} missing from partitions {self.partitions!r}"
            )
