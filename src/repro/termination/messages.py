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
