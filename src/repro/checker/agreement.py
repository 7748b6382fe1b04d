"""Replica-agreement checking: deterministic state machines, verified.

SDUR's correctness argument (§IV-G) needs every replica of a partition to
apply the same transactions at the same versions — commit *order* must be
a function of the delivery sequence alone.  The vote ledger
(:mod:`repro.termination`) is the mechanism; this module is the oracle.

:func:`replica_agreement` diffs the ordered ``(version, tid)`` commit
history each replica reported against the other replicas of its
partition and returns a structured report.  It catches three shapes of
divergence:

* the same version holding *different transactions* at two replicas
  (the reorder race of arrival-time termination manifests this way:
  two transactions committed at swapped versions);
* the same transaction committing at *different versions*;
* a *mid-stream hole* — one replica missing a commit that another has,
  while already having later ones (tail gaps are only an error when the
  caller states the run has fully drained, via ``expected_reporters``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checker.history import HistoryRecorder


@dataclass
class AgreementReport:
    """Outcome of a replica-agreement check."""

    ok: bool
    #: Distinct (transaction, partition) commits compared.
    num_commits: int
    #: Replicas that reported at least one commit.
    num_replicas: int
    issues: list[str] = field(default_factory=list)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError(
                "replicas disagree: " + "; ".join(self.issues[:5])
            )


def replica_agreement(
    recorder: "HistoryRecorder", expected_reporters: dict[str, int] | None = None
) -> AgreementReport:
    """Diff committed histories across the replicas of each partition.

    ``expected_reporters`` maps partition -> replica count; when given,
    the run is asserted fully drained: every commit must have been
    reported by every replica of its partition, so tail gaps (not just
    mid-stream holes) are divergence too.
    """
    issues = list(recorder.violations)
    by_partition: dict[str, list[str]] = {}
    for node, partition in sorted(recorder.replica_partition.items()):
        by_partition.setdefault(partition, []).append(node)
    num_replicas = len(recorder.replica_partition)

    for partition, nodes in sorted(by_partition.items()):
        histories = {node: recorder.per_replica.get(node, []) for node in nodes}
        for node, history in histories.items():
            for (v1, t1), (v2, t2) in zip(history, history[1:]):
                if v2 <= v1:
                    issues.append(
                        f"partition {partition}: {node} committed {t2} at version "
                        f"{v2} after {t1} at {v1} (non-monotonic)"
                    )
        reference_node = nodes[0]
        reference = dict(histories[reference_node])
        for node in nodes[1:]:
            mine = dict(histories[node])
            for version in sorted(set(reference) | set(mine)):
                ours, theirs = mine.get(version), reference.get(version)
                if ours is not None and theirs is not None:
                    if ours != theirs:
                        issues.append(
                            f"partition {partition}: version {version} is {ours} "
                            f"at {node} but {theirs} at {reference_node}"
                        )
                    continue
                holder, gapped = (
                    (reference_node, node) if ours is None else (node, reference_node)
                )
                gapped_history = dict(histories[gapped])
                tail_gap = not any(v > version for v in gapped_history)
                if tail_gap and expected_reporters is None:
                    continue  # the gapped replica may simply be behind
                tid = ours if ours is not None else theirs
                issues.append(
                    f"partition {partition}: {holder} committed {tid} at version "
                    f"{version} but {gapped} skipped it"
                )

    num_commits = sum(len(per) for per in recorder.commits.values())
    if expected_reporters is not None:
        for tid, per_partition in recorder.commits.items():
            for partition, point in per_partition.items():
                expected = expected_reporters.get(partition)
                if expected is not None and len(point.reporters) != expected:
                    issues.append(
                        f"{tid} in {partition}: reported by {len(point.reporters)} "
                        f"of {expected} replicas"
                    )
    return AgreementReport(
        ok=not issues,
        num_commits=num_commits,
        num_replicas=num_replicas,
        issues=issues,
    )
