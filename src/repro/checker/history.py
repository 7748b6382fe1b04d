"""Recording the committed history of a run.

Servers report every local commit through
:attr:`repro.core.server.SdurServer.on_commit_hook`; clients report
transaction results.  Because each partition is replicated, the recorder
receives each ``(transaction, partition)`` commit from several replicas —
it *asserts* they agree on the commit version, which directly checks the
paper's determinism requirement (replicas of a partition must apply the
same transactions at the same positions, §IV-G).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.client import TxnResult
from repro.core.transaction import TxnId, TxnProjection


@dataclass(frozen=True)
class _SyntheticWrite:
    """Stands in for a :class:`TxnProjection` in merge-install records."""

    ws_keys: frozenset[str]
    partitions: tuple[str, ...]


@dataclass
class CommitPoint:
    """Where one transaction committed in one partition."""

    version: int
    ws_keys: frozenset[str]
    #: Replica node ids that reported this commit (should be the whole group).
    reporters: set[str] = field(default_factory=set)


class HistoryRecorder:
    """Accumulates server commits and client results for checking."""

    def __init__(self) -> None:
        #: tid -> partition -> commit point.
        self.commits: dict[TxnId, dict[str, CommitPoint]] = {}
        #: tid -> all partitions the transaction declared.
        self.involved: dict[TxnId, tuple[str, ...]] = {}
        self.results: list[TxnResult] = []
        #: Divergence errors found while recording (should stay empty).
        self.violations: list[str] = []
        #: node -> ordered (version, tid) commit history, as reported.
        #: The agreement checker diffs these across each partition's
        #: replicas (see :mod:`repro.checker.agreement`).
        self.per_replica: dict[str, list[tuple[int, TxnId]]] = {}
        #: node -> partition the node replicates.
        self.replica_partition: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def server_hook(self, node_id: str):
        """A per-server ``on_commit_hook`` bound to ``node_id``."""

        def hook(tid: TxnId, partition: str, version: int, proj: TxnProjection) -> None:
            self.on_commit(node_id, tid, partition, version, proj)

        return hook

    def merge_hook(self, node_id: str):
        """A per-server ``on_merge_hook`` bound to ``node_id``.

        A merge install applies the absorbed partition's flattened state
        as one synthetic commit (docs/PROTOCOL.md §17).  Recording it as
        a virtual writer keeps the serialization graph sound: reads of
        absorbed keys at or after the merge version read-from this node,
        and the absorbed partition's last writers WW-precede it.
        """

        def hook(partition: str, version: int, keys: frozenset[str]) -> None:
            self.on_commit(
                node_id,
                f"merge:{partition}@{version}",
                partition,
                version,
                _SyntheticWrite(ws_keys=frozenset(keys), partitions=(partition,)),
            )

        return hook

    def on_commit(
        self, node_id: str, tid: TxnId, partition: str, version: int, proj: TxnProjection
    ) -> None:
        self.per_replica.setdefault(node_id, []).append((version, tid))
        self.replica_partition.setdefault(node_id, partition)
        per_partition = self.commits.setdefault(tid, {})
        point = per_partition.get(partition)
        if point is None:
            per_partition[partition] = CommitPoint(
                version=version, ws_keys=proj.ws_keys, reporters={node_id}
            )
            self.involved.setdefault(tid, proj.partitions)
            return
        if point.version != version:
            self.violations.append(
                f"replica divergence: {tid} committed at version {point.version} and "
                f"{version} in partition {partition} (reporter {node_id})"
            )
        if point.ws_keys != proj.ws_keys:
            self.violations.append(
                f"replica divergence: {tid} writeset differs across replicas "
                f"in partition {partition}"
            )
        point.reporters.add(node_id)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def record_result(self, result: TxnResult) -> None:
        self.results.append(result)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def committed_results(self) -> list[TxnResult]:
        return [r for r in self.results if r.committed]

