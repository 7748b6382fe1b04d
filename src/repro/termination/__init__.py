"""Ordered vote ledger: log-sequenced global-transaction termination.

This package is the termination protocol (docs/PROTOCOL.md §14): one
:class:`VoteLedger` per server owns the vote path end to end.  Read
literally, the paper applies certification votes the moment they arrive
(Algorithm 2 lines 13–14, 21–22), which makes two questions — "has
partition p voted?" and "is transaction t still pending?" — depend on
vote-*arrival* timing.  Both questions feed decisions that must be
identical at every replica of a partition:

* whether a later local transaction may leap a pending global in the
  reorder path (a global whose votes arrived early has already completed
  and cannot be leapt; one whose votes are in flight can), and
* whether an abort-request may doom a transaction (§IV-F).

The ledger closes both holes by making every vote a value ordered
through the partition's **own** atomic broadcast: a partition's verdict
becomes a :class:`VoteRecord` abcast alongside transaction projections,
and takes effect — at every replica, at the same log position — only
when it is delivered.  The outgoing inter-partition ``Vote`` message is
emitted upon *self-delivery* of the record; incoming remote votes are
re-sequenced into the local log before they count.  Termination is then
a deterministic function of the delivery sequence alone.

On top of the ledger, cross-partition deferral cycles (two globals
delivered in opposite orders at two partitions, each deferring its vote
on the other) are broken deterministically: an abort-request delivered
for a still-deferred transaction dooms it iff its ``TxnId`` is smaller
than every transaction it defers on — the lowest transaction of any
wait cycle aborts, identically at all replicas.
"""

from repro.termination.ledger import VoteLedger
from repro.termination.messages import VoteRecord

__all__ = ["VoteLedger", "VoteRecord"]
