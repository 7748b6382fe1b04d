"""Run the paper's experiments from the command line.

Usage::

    python -m repro.experiments                 # run everything (quick)
    python -m repro.experiments --full          # paper-scale parameters
    python -m repro.experiments F2 F4           # selected experiments
    python -m repro.experiments --list          # show the index
    python -m repro.experiments --markdown out.md   # also write a report
    python -m repro.experiments T1 --trace      # + Chrome trace export

``--trace`` turns on causal transaction tracing (``repro.obs``) for every
world the selected experiments build and writes one Chrome trace-event
file per traced world into the given directory (default ``traces/``) —
open them in ``chrome://tracing`` or Perfetto.  See
``docs/OBSERVABILITY.md``.

The markdown report is what ``EXPERIMENTS.md`` is generated from.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Callable

from repro.experiments import (
    ablation_multicast,
    ext_failover,
    ablation_bloom,
    ablation_learning,
    ablation_threshold,
    aborts,
    autoscale,
    fig1_model,
    fig2_baseline,
    fig3_delaying,
    fig4_reorder_wan1,
    fig5_reorder_wan2,
    fig6_social,
    gray_failure,
    overload,
    reconfig,
    scalability,
)
from repro.experiments.common import ExperimentTable

#: Experiment id -> (description, runner).
REGISTRY: dict[str, tuple[str, Callable[[bool], ExperimentTable]]] = {
    "T1": ("Figure 1 latency-model table", lambda q: fig1_model.run(quick=q)),
    "F2": ("Baseline SDUR in WAN 1 / WAN 2 (Figure 2)", lambda q: fig2_baseline.run(quick=q)),
    "F3": ("Transaction delaying in WAN 1 (Figure 3)", lambda q: fig3_delaying.run(quick=q)),
    "F4": ("Reordering in WAN 1 (Figure 4)", lambda q: fig4_reorder_wan1.run(quick=q)),
    "F5": ("Reordering in WAN 2 (Figure 5)", lambda q: fig5_reorder_wan2.run(quick=q)),
    "F6": ("Social network application (Figure 6)", lambda q: fig6_social.run(quick=q)),
    "S1": ("Scalability vs partitions (DSN 2012)", lambda q: scalability.run_s1(quick=q)),
    "S2": ("Throughput vs %globals (DSN 2012)", lambda q: scalability.run_s2(quick=q)),
    "S3": ("Abort rate vs contention (DSN 2012)", lambda q: aborts.run(quick=q)),
    "A1": ("Bloom-digest certification ablation", lambda q: ablation_bloom.run(quick=q)),
    "A2": ("Reorder-threshold sweep ablation", lambda q: ablation_threshold.run(quick=q)),
    "A3": ("Paxos learning-strategy ablation", lambda q: ablation_learning.run(quick=q)),
    "A5": ("SDUR vs genuine atomic multicast", lambda q: ablation_multicast.run(quick=q)),
    "E1": ("Availability under leader failover", lambda q: ext_failover.run(quick=q)),
    "E2": ("Live partition split under load", lambda q: reconfig.run(quick=q)),
    "E3": ("Autonomous elasticity (autoscale)", lambda q: autoscale.run(quick=q)),
    "O1": ("Flash crowd with hot-key storm", lambda q: overload.run_o1(quick=q)),
    "O2": ("Region loss and recovery under load", lambda q: overload.run_o2(quick=q)),
    "O3": ("Slow-replica gray failure", lambda q: overload.run_o3(quick=q)),
    "O4": ("Sustained 5x overload: admission on vs off", lambda q: overload.run_o4(quick=q)),
    "G1": ("Gray-failure detection via live telemetry", lambda q: gray_failure.run(quick=q)),
}


def to_markdown(tables: list[tuple[ExperimentTable, float]]) -> str:
    lines = ["# Experiment results", ""]
    for table, wall in tables:
        lines.append(f"## {table.experiment_id} — {table.title}")
        lines.append("")
        if table.rows:
            columns = list(table.rows[0])
            lines.append("| " + " | ".join(columns) + " |")
            lines.append("|" + "|".join("---" for _ in columns) + "|")
            for row in table.rows:
                lines.append(
                    "| " + " | ".join(str(row.get(col, "")) for col in columns) + " |"
                )
        for note in table.notes:
            lines.append("")
            lines.append(f"> {note}")
        lines.append("")
        lines.append(f"_(wall time: {wall:.0f}s)_")
        lines.append("")
    return "\n".join(lines)


def _export_traces(exp_id: str, directory: str) -> list[str]:
    """Write one Chrome trace file per world the experiment traced.

    Each world has its own virtual clock, so worlds are exported
    separately rather than merged into one overlapping timeline.
    """
    from repro.obs.chrome import write_chrome_trace
    from repro.obs.recorder import drain_recorders
    from repro.obs.spans import build_traces

    paths = []
    for index, recorder in enumerate(drain_recorders()):
        traces = build_traces(recorder.events)
        if not traces:
            continue
        path = os.path.join(directory, f"{exp_id}.{index}.trace.json")
        write_chrome_trace(path, traces)
        paths.append(path)
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__
    )
    parser.add_argument("experiments", nargs="*", help="ids to run (default: all)")
    parser.add_argument("--full", action="store_true", help="paper-scale parameters")
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument("--markdown", metavar="PATH", help="write a markdown report")
    parser.add_argument(
        "--trace",
        nargs="?",
        const="traces",
        default=None,
        metavar="DIR",
        help="record causal traces; write Chrome trace JSON into DIR",
    )
    args = parser.parse_args(argv)

    if args.list:
        for exp_id, (description, _) in REGISTRY.items():
            print(f"{exp_id:>4}  {description}")
        return 0

    selected = args.experiments or list(REGISTRY)
    unknown = [e for e in selected if e.upper() not in REGISTRY]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        print(f"known: {', '.join(REGISTRY)}", file=sys.stderr)
        return 2

    if args.trace is not None:
        from repro.obs.recorder import drain_recorders, set_default_tracing

        os.makedirs(args.trace, exist_ok=True)
        set_default_tracing(True)
        drain_recorders()  # discard recorders left over from imports

    quick = not args.full
    tables: list[tuple[ExperimentTable, float]] = []
    for exp_id in selected:
        _, runner = REGISTRY[exp_id.upper()]
        start = time.time()
        table = runner(quick)
        wall = time.time() - start
        table.print()
        print(f"(wall time: {wall:.0f}s)\n")
        tables.append((table, wall))
        if args.trace is not None:
            for path in _export_traces(exp_id.upper(), args.trace):
                print(f"trace: {path}")

    if args.trace is not None:
        set_default_tracing(False)

    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(to_markdown(tables))
        print(f"wrote {args.markdown}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
