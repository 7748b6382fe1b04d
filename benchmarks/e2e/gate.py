"""Correctness gate, checked from outside after every run.

Untraced and traced alike: once in-flight work has drained, every replica
of a partition holds the identical version chains, and the values add up
to exactly two increments per committed update (every update increments
two keys, so a lost update or a double apply breaks the sum).  The traced
run also records the history and requires it to be serializable and the
replicas to agree commit by commit.
"""

from __future__ import annotations

import asyncio
import time

from repro.checker.agreement import replica_agreement
from repro.checker.history import HistoryRecorder
from repro.checker.serializability import check_serializability

from loadgen import TxnRecord
from rig import Rig

SETTLE_S = 10.0


async def settle(rig: Rig) -> bool:
    """Wait until the followers of every partition caught up with its leader."""
    deadline = time.perf_counter() + SETTLE_S
    while time.perf_counter() < deadline:
        if all(
            len({node.server.sc for node in nodes}) == 1 and not any(
                node.server.pending for node in nodes
            )
            for nodes in rig.partitions().values()
        ):
            return True
        await asyncio.sleep(0.02)
    return False


def check(
    rig: Rig,
    records: list[TxnRecord],
    unfinished: int,
    recorder: HistoryRecorder | None = None,
) -> list[str]:
    """Every way the run's outputs are wrong (empty = correct)."""
    problems: list[str] = []
    total = 0
    for partition, nodes in rig.partitions().items():
        dumps = [node.server.store.dump() for node in nodes]
        for node, dump in zip(nodes[1:], dumps[1:]):
            if dump != dumps[0]:
                problems.append(f"{partition}: store of {node.name} differs from {nodes[0].name}")
        total += sum(chain[-1][1] for chain in dumps[0].values())

    updates = rig.probe_commits + sum(1 for r in records if r.committed and r.kind != "ro")
    # A transaction left without an outcome may or may not have committed.
    if not 2 * updates <= total <= 2 * (updates + unfinished):
        problems.append(
            f"sum of values is {total}, expected {2 * updates} "
            f"(2 x {updates} committed updates, {unfinished} without outcome)"
        )

    if recorder is not None:
        report = check_serializability(recorder)
        if not report.ok:
            problems.append(f"not serializable: {report.cycle or report.issues[:3]}")
        expected = {partition: len(nodes) for partition, nodes in rig.partitions().items()}
        agreement = replica_agreement(recorder, expected if unfinished == 0 else None)
        if not agreement.ok:
            problems.append(f"replicas disagree: {agreement.issues[:3]}")
    return problems
