"""Multiversion serializability checking.

Builds the direct serialization graph (DSG) of a recorded history and
looks for cycles.  Nodes are committed transactions (plus a virtual
initial transaction ``T0`` that wrote version 0 of every key); edges:

* **WR** (read-from): ``t2`` read the version ``t1`` wrote.
* **WW** (version order): consecutive writers of a key, in the key's
  partition-version order.
* **RW** (anti-dependency): ``t1`` read a version of ``k`` that ``t2``
  later overwrote.

An acyclic DSG ⇒ the execution is (view-)serializable.  This is exactly
the property SDUR's certification + vote exchange must enforce, including
the tricky cross-partition case of the paper's footnote 2; the end-to-end
property tests drive randomized workloads and assert it.

Read-only transactions are included too: a consistent global snapshot
must never produce a cycle (e.g. observing global ``t`` in one partition
but missing it in another yields ``t → RO → t``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.checker.history import HistoryRecorder

#: Virtual writer of every key's version 0.
INITIAL_TXN = "T0"


@dataclass
class CheckReport:
    """Outcome of a serializability check."""

    ok: bool
    num_txns: int
    num_edges: int
    cycle: list[Hashable] | None = None
    issues: list[str] = field(default_factory=list)

    def raise_if_failed(self) -> None:
        if not self.ok:
            detail = f"cycle: {self.cycle}" if self.cycle else "; ".join(self.issues[:5])
            raise AssertionError(f"history is not serializable: {detail}")


def _find_cycle(adjacency: dict[Hashable, set[Hashable]]) -> list[Hashable] | None:
    """Iterative DFS cycle detection; returns one cycle or ``None``."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[Hashable, int] = {node: WHITE for node in adjacency}
    parent: dict[Hashable, Hashable] = {}
    for root in adjacency:
        if color[root] != WHITE:
            continue
        stack: list[tuple[Hashable, object]] = [(root, iter(adjacency[root]))]
        color[root] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:  # type: ignore[union-attr]
                if child not in adjacency:
                    continue
                if color[child] == WHITE:
                    color[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(adjacency[child])))
                    advanced = True
                    break
                if color[child] == GREY:
                    # Found a back edge: reconstruct the cycle.
                    cycle = [child, node]
                    walker = node
                    while walker != child:
                        walker = parent[walker]
                        cycle.append(walker)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
        # continue with next root
    return None


def check_serializability(recorder: HistoryRecorder) -> CheckReport:
    """Build the DSG from a recorded history and check it is acyclic."""
    issues = list(recorder.violations)

    committed = recorder.committed_results()
    committed_update_tids = {r.tid for r in committed if r.writes}

    # Key -> ordered version chain [(version, writer_tid)].
    writes_by_key: dict[str, list[tuple[int, Hashable]]] = {}
    for tid, per_partition in recorder.commits.items():
        for point in per_partition.values():
            for key in point.ws_keys:
                writes_by_key.setdefault(key, []).append((point.version, tid))
    for key, chain in writes_by_key.items():
        chain.sort()
        chain.insert(0, (0, INITIAL_TXN))
        versions_seen = [version for version, _ in chain]
        if len(set(versions_seen)) != len(versions_seen):
            issues.append(f"duplicate version in write chain of {key!r}")

    # Atomicity of globals: a committed result must have a commit point in
    # every partition it wrote to (reads-only partitions bump SC too but the
    # hook fires there as well, since the projection is delivered there).
    for result in committed:
        if not result.writes:
            continue
        points = recorder.commits.get(result.tid)
        if points is None:
            issues.append(f"{result.tid} committed at client but never at servers")
            continue
        missing = [p for p in result.partitions if p not in points]
        if missing:
            issues.append(f"{result.tid} missing commit record in partitions {missing}")

    # A client told abort must find no commit of its transaction anywhere.
    for result in recorder.results:
        if not result.committed and result.tid in recorder.commits:
            issues.append(f"{result.tid} aborted at client but committed at servers")

    # Build adjacency.
    nodes: set[Hashable] = {INITIAL_TXN}
    nodes.update(committed_update_tids)
    nodes.update(r.tid for r in committed)  # read-only results participate too
    adjacency: dict[Hashable, set[Hashable]] = {node: set() for node in nodes}

    def add_edge(src: Hashable, dst: Hashable) -> None:
        if src != dst:
            adjacency.setdefault(src, set()).add(dst)
            adjacency.setdefault(dst, set())

    # WW edges along each key's version chain.
    for chain in writes_by_key.values():
        for (_, earlier), (_, later) in zip(chain, chain[1:]):
            add_edge(earlier, later)

    # WR and RW edges from reads.
    for result in committed:
        reader: Hashable = result.tid
        for key, version in result.read_versions.items():
            chain = writes_by_key.get(key)
            if chain is None:
                # Key never written during the run: only version 0 exists.
                if version != 0:
                    issues.append(f"{reader} read {key!r}@{version} never written")
                continue
            index = _index_of_version(chain, version)
            if index is None:
                issues.append(f"{reader} read {key!r}@{version}, unknown version")
                continue
            writer = chain[index][1]
            if writer != reader:
                add_edge(writer, reader)  # WR
            if index + 1 < len(chain):
                overwriter = chain[index + 1][1]
                if overwriter != reader:
                    add_edge(reader, overwriter)  # RW anti-dependency
    cycle = _find_cycle(adjacency)
    num_edges = sum(len(targets) for targets in adjacency.values())
    ok = cycle is None and not issues
    return CheckReport(
        ok=ok, num_txns=len(nodes) - 1, num_edges=num_edges, cycle=cycle, issues=issues
    )


def _index_of_version(chain: list[tuple[int, Hashable]], version: int) -> int | None:
    low, high = 0, len(chain) - 1
    while low <= high:
        mid = (low + high) // 2
        mid_version = chain[mid][0]
        if mid_version == version:
            return mid
        if mid_version < version:
            low = mid + 1
        else:
            high = mid - 1
    return None
