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
  function of the window and is rebuilt from these records at restore.

The reorder threshold is not captured: it is configuration, fixed for a
server's life, so a restored server takes it from its own ``SdurConfig``.

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

from repro.core.certifier import (
    CertificationWindow,
    WindowEntry,
    readset_digest,
    window_entry,
)
from repro.core.transaction import ReadsetDigest, TxnId
from repro.errors import ProtocolError
from repro.net.message import Message, decode_message, encode_message, message


@message
@dataclass(frozen=True)
class WindowRecord(Message):
    """One certification-window entry in readable form: the wire form in
    checkpoints, and what tests compare windows by.  The window itself
    never holds one."""

    tid: TxnId
    #: Partition snapshot counter after this transaction applied.
    version: int
    readset: ReadsetDigest
    ws_keys: frozenset[str]
    is_global: bool

    @classmethod
    def of(cls, entry: WindowEntry) -> WindowRecord:
        version, client, seq, readset, ws_keys, is_global = entry
        return cls(
            TxnId(client, seq), version, readset_digest(readset), frozenset(ws_keys), is_global
        )


@message
@dataclass(frozen=True)
class ServerCheckpoint(Message):
    """A quiescent-point snapshot of one server's delivery-path state."""

    partition: str
    #: First broadcast instance NOT covered by this checkpoint.
    next_instance: int
    sc: int
    dc: int
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
    """Each window entry, unpacked into its readable wire form."""
    return tuple(map(WindowRecord.of, window))


def window_from_wire(records: tuple, capacity: int, floor: int) -> CertificationWindow:
    window = CertificationWindow(capacity, floor=floor)
    for record in records:
        window.add(
            window_entry(
                record.tid, record.version, record.readset, record.ws_keys, record.is_global
            )
        )
    return window
