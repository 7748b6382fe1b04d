"""Server checkpoints: bounded recovery and WAL compaction.

The paper's prototype recovers a server's committed state by replaying
the whole Berkeley DB log (§V).  That works but recovery time and log
size grow without bound; production deployments checkpoint.  A
:class:`ServerCheckpoint` captures everything a server's delivery path
has produced up to a broadcast instance:

* the multiversion store (all retained version chains),
* the snapshot (``SC``) and delivered (``DC``) counters,
* the certification window (needed to certify transactions whose
  snapshots predate the checkpoint) — the key-conflict index
  (:mod:`repro.core.certindex`) is *not* serialized: it is a pure
  function of the window and is rebuilt from these records at restore,
* the current reorder threshold (it can be changed at runtime via
  ``ThresholdChange``, so it is delivery-path state).

Checkpoints are only taken at *quiescent* delivery points — empty
pending list, no gated deliveries — so no in-flight vote state needs
capturing.  After a checkpoint the Paxos WAL can be compacted to the
checkpoint instance; recovery restores the checkpoint and replays only
the WAL suffix.  The same blob serves **state transfer**: a replacement
replica installs a peer's checkpoint, advances its log cursor, and
catches up through the normal ``LearnRequest`` path
(``tests/integration/test_checkpoint.py`` exercises both).

Not captured (by design): the completed-transaction dedup cache — a
client retry racing a checkpointed restart can be re-certified, where
it either aborts on its stale snapshot or re-commits idempotently at the
application level; and the snapshot-vector builder, which repopulates
from gossip within one period (vectors are allowed to be outdated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.certifier import CertificationWindow, CommittedRecord
from repro.core.transaction import ReadsetDigest, TxnId
from repro.errors import ProtocolError
from repro.net.message import Message, decode_message, encode_message, message


@message
@dataclass(frozen=True)
class WindowRecord(Message):
    """Wire form of one certification-window entry."""

    tid: TxnId
    version: int
    readset: ReadsetDigest
    ws_keys: frozenset[str]
    is_global: bool


@message
@dataclass(frozen=True)
class ServerCheckpoint(Message):
    """A quiescent-point snapshot of one server's delivery-path state."""

    partition: str
    #: First broadcast instance NOT covered by this checkpoint.
    next_instance: int
    sc: int
    dc: int
    reorder_threshold: int
    #: key -> ((version, value), ...) ascending.
    chains: dict[str, Any] = field(default_factory=dict)
    gc_horizon: int = 0
    window: tuple[WindowRecord, ...] = ()
    window_floor: int = 0

    def to_bytes(self) -> bytes:
        return encode_message(self)

    @staticmethod
    def from_bytes(data: bytes) -> "ServerCheckpoint":
        checkpoint = decode_message(data)
        if not isinstance(checkpoint, ServerCheckpoint):
            raise ProtocolError(
                f"expected a ServerCheckpoint, got {type(checkpoint).__name__}"
            )
        return checkpoint


@message
@dataclass(frozen=True)
class CheckpointRequest(Message):
    """Ask a server for its latest checkpoint (state transfer)."""

    reply_to: str


@message
@dataclass(frozen=True)
class CheckpointReply(Message):
    """The serialized checkpoint, or ``None`` if none was taken yet."""

    partition: str
    blob: bytes | None


def window_to_wire(window: CertificationWindow) -> tuple:
    return tuple(
        WindowRecord(
            tid=record.tid,
            version=record.version,
            readset=record.readset,
            ws_keys=record.ws_keys,
            is_global=record.is_global,
        )
        for record in window.records_after(-1)
    )


def window_from_wire(records: tuple, capacity: int, floor: int) -> CertificationWindow:
    window = CertificationWindow(capacity, floor=floor)
    for record in records:
        window.add(
            CommittedRecord(
                tid=record.tid,
                version=record.version,
                readset=record.readset,
                ws_keys=frozenset(record.ws_keys),
                is_global=record.is_global,
            )
        )
    return window
