"""The whole-history gossip payload, kept as a test oracle.

Until PR 12 every gossip tick carried this: the sender's entire retained
window of global commits.  Production now sends per-tick deltas
(``GlobalSnapshotBuilder.next_delta``) and repairs gaps on request
(``payload_since``); a receiver fed this payload on every tick is the
reference the delta stream has to agree with.
"""

from repro.core.messages import CommitGossip
from repro.core.snapshots import GlobalSnapshotBuilder


def full_history_payload(builder: GlobalSnapshotBuilder) -> CommitGossip:
    own = builder.own_partition
    recent = tuple(
        (tid, version, builder._txn_involved.get(tid, ()))
        for version, tid in builder._commits[own]
    )
    return CommitGossip(
        partition=own,
        sc=builder._known_sc[own],
        globals_committed=recent,
        complete_from=builder._evicted_below[own],
    )
