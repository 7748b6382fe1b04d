"""F3 — transaction delaying in WAN 1 (the paper's Figure 3).

The coordinator forwards a global transaction to remote partitions
immediately but delays its *local* broadcast by D, so the local partition
delivers it roughly when the remote ones do and fewer locals queue behind
it (§IV-D).  The paper sweeps D ∈ {20, 40, 60 ms} against baseline for
1 %, 10 % and 50 % globals.

Shape criteria: delaying helps at 1 % globals (the paper: local p99
321 → 232 ms at D = 20 ms, with globals improving too) and shows no
significant improvement at 10 % and 50 %.
"""

from __future__ import annotations

from repro.core.config import DelayMode
from repro.experiments.common import ExperimentTable, GeoRunParams, run_geo_microbench

FRACTIONS = (0.01, 0.10, 0.50)
DELAYS = (0.0, 0.020, 0.040, 0.060)


def run(quick: bool = False) -> ExperimentTable:
    rows = []
    for fraction in FRACTIONS:
        for delay in DELAYS:
            params = GeoRunParams(
                deployment="wan1",
                global_fraction=fraction,
                delay_mode=DelayMode.OFF if delay == 0.0 else DelayMode.FIXED,
                delay_fixed=delay,
                seed=31,
            )
            if quick:
                params = params.quick()
            result = run_geo_microbench(params)
            row = result.row()
            row["delay_ms"] = "baseline" if delay == 0.0 else f"{delay * 1000:.0f}"
            rows.append(row)
    return ExperimentTable(
        experiment_id="F3",
        title="Transaction delaying in WAN 1 (Figure 3)",
        rows=rows,
        notes=[
            "paper: D=20ms cuts local p99 at 1% globals (321 -> 232 ms); "
            "no significant gain at 10%/50%"
        ],
    )
