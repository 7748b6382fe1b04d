"""Atomic-broadcast values of the vote ledger."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.transaction import TxnId
from repro.net.message import Message, message


@message
@dataclass(frozen=True)
class VoteRecord(Message):
    """One partition's certification verdict, ordered through a log.

    Travels inside per-partition atomic broadcast (never server-to-server
    directly).  Two flavors share the type:

    * ``partition == <owning partition>`` — the partition's *own* verdict
      for ``tid``; on self-delivery every replica records the vote and
      emits the inter-partition :class:`~repro.core.messages.Vote` to the
      other involved partitions.
    * ``partition != <owning partition>`` — a remote partition's vote,
      re-sequenced into this partition's log so that "which votes has
      this transaction got?" is a log predicate.  ``involved`` is empty
      in this flavor (nothing is emitted on delivery).
    """

    tid: TxnId
    #: Partition whose verdict this is (not necessarily the log's owner).
    partition: str
    vote: str  # Outcome.value
    #: All partitions of the transaction, for the Vote fan-out emitted on
    #: self-delivery of an own-verdict record; empty for relayed votes.
    involved: tuple[str, ...] = ()


@message
@dataclass(frozen=True)
class VoteRecordGroup(Message):
    """Several vote records proposed as one log value (§18).

    With ``BatchingConfig.ledger_group`` > 1 the ledger groups up to
    that many buffered records into one atomic
    broadcast proposal, paying one consensus instance instead of one per
    vote.  On delivery the server applies the member records strictly in
    ``records`` order, so every per-vote effect lands exactly as if the
    records had been delivered back to back as individual values —
    grouping changes how votes travel, never what they do.  Duplicate
    members (a retry racing the grouped proposal) are absorbed by the
    ledger's per-record delivery dedup.
    """

    records: tuple[VoteRecord, ...]
