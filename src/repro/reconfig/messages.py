"""Wire messages of the reconfiguration protocol.

A split runs in three log-ordered steps plus client-facing plumbing:

1. ``BeginSplit`` — abcast through the *source* partition's log.  At
   delivery every source replica bumps its ownership epoch (fencing
   writes to the moving key range), snapshots the set of in-flight
   transactions as a barrier, and starts refusing old-epoch requests.
2. ``InstallMigration`` — once the barrier drains, the source leader
   abcasts the moved key-range chains into the *new* partition's log.
   New replicas install the state and open for business.
3. ``FinishSplit`` — the new partition's leader abcasts back into the
   source log; source replicas evict the moved chains.

A merge (docs/PROTOCOL.md §17) runs the same three steps with the same
messages — the ``ConfigChange`` they carry has ``kind="merge"`` — with
the roles reversed: ``BeginSplit`` is ordered through the *absorbed*
partition's log (freezing its whole keyspace), ``InstallMigration``
through the *absorbing* partition's log (which is where the absorbing
replicas also learn the change, keeping their ownership-epoch bump at a
log position), and ``FinishSplit`` back through the absorbed log, which
then evicts everything and retires.

``StaleEpochNotice`` rejects a wrong-epoch request with the missing
directory changes attached, so one round trip is enough for the client
to reroute.  ``GetConfig``/``ConfigSnapshot`` pull and push the change
log outside any transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.transaction import TxnId
from repro.net.message import Message, message
from repro.reconfig.epochs import ConfigChange


@message
@dataclass(frozen=True)
class BeginSplit(Message):
    """Start a split: ordered through the source partition's log."""

    change: ConfigChange


@message
@dataclass(frozen=True)
class InstallMigration(Message):
    """Moved key-range state: ordered through the new partition's log."""

    change: ConfigChange
    #: key -> tuple of (version, value) pairs, ascending by version —
    #: the full multi-version chains so old snapshots stay readable.
    chains: dict[str, Any] = field(default_factory=dict)
    #: Source partition's snapshot counter at capture; the new
    #: partition's store resumes from here so migrated versions keep
    #: their original commit versions.
    source_sc: int = 0
    gc_horizon: int = 0
    #: Merge only: changes older than ``change`` itself, so an absorbing
    #: replica that missed a pushed ``ConfigSnapshot`` can close the
    #: epoch gap before applying the merge (changes affecting its own
    #: partition are already in its log and de-duplicate away).
    prior_changes: tuple[ConfigChange, ...] = ()


@message
@dataclass(frozen=True)
class FinishSplit(Message):
    """Migration installed: ordered through the source log; evict chains."""

    change: ConfigChange


@message
@dataclass(frozen=True)
class StaleEpochNotice(Message):
    """Server -> client: your request carried an outdated epoch.

    Carries every change the client is missing; the client applies them
    and restarts the transaction under a fresh id.
    """

    tid: TxnId
    partition: str
    epoch: int
    changes: tuple[ConfigChange, ...] = ()


@message
@dataclass(frozen=True)
class GetConfig(Message):
    """Ask a server for directory changes since ``since_epoch``."""

    reply_to: str
    since_epoch: int = 0


@message
@dataclass(frozen=True)
class ConfigSnapshot(Message):
    """The change log suffix; answers ``GetConfig`` and is pushed to peers."""

    epoch: int
    changes: tuple[ConfigChange, ...] = ()
