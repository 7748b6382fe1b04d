"""The analytic latency model of the paper's Figure 1.

With δ the maximum intra-region one-way delay and Δ the maximum
inter-region one-way delay (Δ ≫ δ), an unloaded deployment terminates
transactions in:

===========  ==================  ====================
Deployment   Local transaction   Global transaction
===========  ==================  ====================
WAN 1        4δ                  4δ + 2Δ
WAN 2        2δ + 2Δ             3δ + 3Δ
===========  ==================  ====================

and serves a remote read (a global transaction at P1 reading P2's data
through a co-located replica) in 2δ.  WAN 1 tolerates datacenter failures
but not the loss of a whole region; WAN 2 tolerates both.

The figure's arithmetic assumes *optimistic* vote termination: a
partition's vote leaves the moment its verdict is decided and takes
effect at the receiver on arrival.  The termination protocol this
system runs — the *ledger*, docs/PROTOCOL.md §14 — inserts one local
atomic broadcast at each end of the vote path — the voter orders its
verdict through its own log before the ``Vote`` goes out, and the
receiver re-sequences the incoming vote through *its* log before the
vote counts — so a global commit pays two extra local broadcasts: +4δ in
WAN 1 (each local broadcast is 2δ) and +4Δ in WAN 2 (replicas span
regions, so a "local" broadcast costs 2Δ).  Local transactions are
unaffected in both deployments.

The simulator is validated against both closed forms in
``tests/integration/test_latency_model.py`` — the ledger's against
``src/``, the figure's against the arrival-time test oracle — and
experiment T1 prints the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AnalyticalLatencies:
    """Closed-form unloaded latencies for one deployment (seconds)."""

    deployment: str
    local_commit: float
    global_commit: float
    remote_read: float
    tolerates_datacenter_failure: bool
    tolerates_region_failure: bool

    def row(self) -> dict[str, object]:
        """A printable table row in milliseconds."""
        return {
            "deployment": self.deployment,
            "local_commit_ms": round(self.local_commit * 1000, 3),
            "global_commit_ms": round(self.global_commit * 1000, 3),
            "remote_read_ms": round(self.remote_read * 1000, 3),
            "datacenter_failures": "yes" if self.tolerates_datacenter_failure else "no",
            "region_failures": "yes" if self.tolerates_region_failure else "no",
        }


def analytical_latencies(
    deployment: str, delta: float, inter_delta: float, termination: str = "optimistic"
) -> AnalyticalLatencies:
    """Figure 1's formulas for ``deployment`` in {"wan1", "wan2"}.

    ``delta`` is δ (intra-region one-way delay), ``inter_delta`` is Δ.
    ``termination`` selects the vote path: ``"optimistic"`` is the
    figure's arithmetic; ``"ledger"`` adds one local broadcast at the
    voter and one at the receiver to every global commit (see the module
    docstring), leaving locals and reads untouched.
    """
    if termination not in ("optimistic", "ledger"):
        raise ValueError(f"unknown termination {termination!r}")
    if deployment == "wan1":
        # One local broadcast costs 2δ; the ledger puts two more of them
        # on the global critical path (voter + receiver).
        vote_tax = 4 * delta if termination == "ledger" else 0.0
        return AnalyticalLatencies(
            deployment="wan1",
            local_commit=4 * delta,
            global_commit=4 * delta + 2 * inter_delta + vote_tax,
            remote_read=2 * delta,
            tolerates_datacenter_failure=True,
            tolerates_region_failure=False,
        )
    if deployment == "wan2":
        # Replicas span regions, so each extra "local" broadcast is 2Δ.
        vote_tax = 4 * inter_delta if termination == "ledger" else 0.0
        return AnalyticalLatencies(
            deployment="wan2",
            local_commit=2 * delta + 2 * inter_delta,
            global_commit=3 * delta + 3 * inter_delta + vote_tax,
            remote_read=2 * delta,
            tolerates_datacenter_failure=True,
            tolerates_region_failure=True,
        )
    raise ValueError(f"unknown deployment {deployment!r} (expected 'wan1' or 'wan2')")
