"""F2 — baseline SDUR in WAN 1 and WAN 2 (the paper's Figure 2).

For workload mixes with 0 %, 1 %, 10 % and 50 % global transactions,
measure throughput and the average/99th-percentile latency of local
transactions, plus latency CDFs at 0 % and 10 %.

Shape criteria (the paper's headline findings):

* In WAN 1, adding even 1 % globals inflates local latency by an order
  of magnitude (the paper measured 32.6 → 321 ms at the 99th pct, 10×),
  easing somewhat at 10 % and 50 % (5.4× / 4.4×).
* In WAN 2 the gap between locals and globals is small, so globals barely
  hurt locals (1.02–1.34×).
* The CDFs of locals in mixed workloads track the globals' distribution
  in their upper tail — locals queue behind pending globals.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentTable, GeoRunParams, run_geo_microbench
from repro.metrics.plot import render_cdf

FRACTIONS = (0.0, 0.01, 0.10, 0.50)
DEPLOYMENTS = ("wan1", "wan2")


def run(quick: bool = False) -> ExperimentTable:
    rows = []
    cdfs: dict[str, list[tuple[float, float]]] = {}
    for deployment in DEPLOYMENTS:
        for fraction in FRACTIONS:
            params = GeoRunParams(
                deployment=deployment, global_fraction=fraction, seed=21
            )
            if quick:
                params = params.quick()
            result = run_geo_microbench(params)
            rows.append(result.row())
            if fraction in (0.0, 0.10):
                tag = f"{deployment}-{int(fraction * 100)}pct"
                cdfs[f"{tag}-locals"] = result.cdf_locals
                if fraction > 0:
                    cdfs[f"{tag}-globals"] = result.cdf_globals
    notes = _shape_notes(rows)
    table = ExperimentTable(
        experiment_id="F2",
        title="SDUR baseline: locals vs globals in WAN 1 / WAN 2 (Figure 2)",
        rows=rows,
        notes=notes,
        cdfs=cdfs,
    )
    for deployment in DEPLOYMENTS:
        picked = {
            label.replace(f"{deployment}-", ""): points
            for label, points in cdfs.items()
            if label.startswith(f"{deployment}-")
        }
        if picked:
            table.notes.append(
                "\n"
                + render_cdf(
                    picked, title=f"{deployment}: latency CDFs (Figure 2 bottom)"
                )
            )
    return table


def _shape_notes(rows: list[dict]) -> list[str]:
    notes = []
    by_key = {(r["deployment"], r["globals_pct"]): r for r in rows}
    for deployment in ("wan1", "wan2"):
        base = by_key.get((deployment, 0.0))
        one = by_key.get((deployment, 1.0))
        if base and one and base["local_p99_ms"]:
            factor = one["local_p99_ms"] / base["local_p99_ms"]
            notes.append(
                f"{deployment}: 1% globals inflate local p99 by {factor:.1f}x "
                f"({base['local_p99_ms']:.0f} -> {one['local_p99_ms']:.0f} ms); "
                f"paper: ~10x in WAN 1, ~1.2x in WAN 2"
            )
    return notes
