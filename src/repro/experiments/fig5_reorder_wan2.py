"""F5 — reordering in WAN 2 (the paper's Figure 5).

Same sweep as F4 but in the WAN 2 deployment, with the paper's smaller
thresholds R ∈ {40, 80, 120}: WAN 2's local transactions are already
slow (2δ+2Δ), so the reorder window that pays off is narrower, and —
unlike WAN 1 — globals pay a small latency cost for the locals' gain.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentTable
from repro.experiments.fig4_reorder_wan1 import run as _run_reorder

#: Paper: R in {40, 80, 120}; scaled to our delivery rate (see F4 docstring).
THRESHOLDS = (0, 4, 8, 12)


def run(quick: bool = False) -> ExperimentTable:
    return _run_reorder(quick=quick, deployment="wan2", thresholds=THRESHOLDS)
