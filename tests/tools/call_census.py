"""Call census: which ``src/repro`` defs the production entry points run.

Runs every driver the repo ships, in this one process, under
``sys.setprofile``, records each function entered, and prints every
function def under ``src/repro`` that no driver entered (outermost only:
a never-entered def inside another one is not listed again), each with
its exemption class or ``UNEXEMPT``::

    PYTHONPATH=src python tests/tools/call_census.py            # every driver
    PYTHONPATH=src python tests/tools/call_census.py examples   # just some

The drivers are the quick experiment suite (``python -m
repro.experiments``), the five ``examples/*.py``, the four e2e workloads
(``benchmarks/e2e/run.py --workload W --seconds 2 --trace 1``) and
``bench_batch.py`` / ``bench_certification.py`` / ``bench_telemetry.py
--check``.  The profiler slows everything about 5x, so the three
``--check`` benchmarks miss their floors here; the census needs only the
paths they run.  Every driver runs under ``PYTHONHASHSEED=0`` (the tool
re-executes itself to pin it).  The whole census takes about 25 minutes
on two shared cores; it is a tool, not a CI job.

It checks what ``tests/test_public_api.py::TestEveryNameHasACaller``
cannot: that census is by name, so a def whose name another def shares
(``merge``, ``fork``, ``main``) counts as referenced there.  Exit status
is 1 when a def is ``UNEXEMPT``, or, with every driver run, when an
exemption names a def that was entered or is gone.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import threading
import time
from collections.abc import Callable
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
E2E_WORKLOADS = ("local_closed", "mix20_closed", "ro80_closed", "local_open100")
CHECKS = {
    "bench_batch.py": "BENCH_batch.json",
    "bench_certification.py": "BENCH_cert.json",
    "bench_telemetry.py": "BENCH_telemetry.json",
}

#: Defs no driver enters that stay, by class.  A dunder, an abstract
#: method and a stub whose body is only a docstring or ``...`` (a
#: ``Protocol`` or a base-class no-op) are interfaces and need no entry.
SAFETY = "safety: error path, retry or catch-up timer, cycle rule, WAL read"
FAULT_VALUE = "safety: value kept to detect a transport fault"
CODEC = "wire format: a type the packed codec encodes that no driven message carried"
OTHER_ENTRY = "entry point the census does not drive"
ROADMAP_1 = "ROADMAP 1: the GC and checkpoint path"
AUTO = "Algorithm 2 line 44: DelayMode.AUTO's latency estimate"
EXEMPT: dict[str, str] = {
    "consensus/replica.py::PaxosReplica._arm_propose_retry": SAFETY,
    "core/pending.py::PendingTxn.min_dep": SAFETY,
    "core/server.py::SdurServer._doom_and_release": SAFETY,
    "net/codec.py::_truncated": SAFETY,
    "net/codec.py::_too_deep": SAFETY,
    "net/codec.py::_bad_presence": SAFETY,
    "net/codec.py::_misfit": SAFETY,
    "net/codec.py::_run_misfit": SAFETY,
    "obs/attribution.py::attribute.fallback": SAFETY,
    "reconfig/participant.py::ReconfigParticipant._config_catchup_tick": SAFETY,
    "runtime/base.py::_DeadTimer.cancel": SAFETY,
    "storage/wal.py::WriteAheadLog._check_head": SAFETY,
    "storage/wal.py::WriteAheadLog._read": SAFETY,
    "net/asyncio_transport.py::_Inbound._reject": FAULT_VALUE,
    "net/asyncio_transport.py::AioTransport._drop": FAULT_VALUE,
    "net/codec.py::_encode_bool": CODEC,
    "net/codec.py::_encode_float": CODEC,
    "net/codec.py::_encode_str": CODEC,
    "net/codec.py::_encode_bytes": CODEC,
    "net/codec.py::_encode_items.encode": CODEC,
    "net/codec.py::_encode_set": CODEC,
    "net/codec.py::_encode_dict": CODEC,
    "net/codec.py::_resolve_decoder": CODEC,
    "experiments/__main__.py::to_markdown": OTHER_ENTRY + ": --markdown (CI's sim-tables job)",
    "experiments/__main__.py::_export_traces": OTHER_ENTRY + ": --trace",
    "experiments/common.py::ExperimentTable.extra_info": OTHER_ENTRY + ": pytest benchmarks/",
    "obs/chrome.py::_us": OTHER_ENTRY + ": --trace",
    "obs/chrome.py::chrome_trace_events": OTHER_ENTRY + ": --trace",
    "obs/chrome.py::chrome_trace_json": OTHER_ENTRY + ": --trace",
    "obs/chrome.py::write_chrome_trace": OTHER_ENTRY + ": --trace",
    "obs/recorder.py::set_default_tracing": OTHER_ENTRY + ": --trace",
    "obs/recorder.py::register_recorder": OTHER_ENTRY + ": --trace",
    "obs/recorder.py::drain_recorders": OTHER_ENTRY + ": --trace",
    "obs/spans.py::TxnTrace.root": OTHER_ENTRY + ": render_timeline",
    "obs/spans.py::TxnTrace.start": OTHER_ENTRY + ": render_timeline",
    "obs/spans.py::TxnTrace.end": OTHER_ENTRY + ": render_timeline",
    "obs/spans.py::TxnTrace.duration": OTHER_ENTRY + ": render_timeline",
    "obs/timeline.py::render_timeline": OTHER_ENTRY + ": the operator tool OBSERVABILITY.md documents",
    "core/server.py::SdurServer._gc_tick": ROADMAP_1,
    "net/topology.py::RegionLatencyModel.expected": AUTO,
    "runtime/aio.py::AioNodeRuntime.latency_estimate": AUTO,
    "runtime/sim.py::SimNodeRuntime.latency_estimate": AUTO,
    "sim/latency.py::ConstantLatency.expected": AUTO,
    "sim/latency.py::JitteredLatency.expected": AUTO,
    "workload/distributions.py::UniformSampler.population": "interface: implements KeySampler.population",
    "workload/distributions.py::ZipfSampler.population": "interface: implements KeySampler.population",
}


def _run_module(name: str, *argv: str) -> Callable[[], None]:
    def run() -> None:
        sys.argv = [name, *argv]
        runpy.run_module(name, run_name="__main__", alter_sys=True)

    return run


def _run_path(path: Path, *argv: str) -> Callable[[], None]:
    def run() -> None:
        sys.argv = [str(path), *argv]
        runpy.run_path(str(path), run_name="__main__")

    return run


def _run_e2e(workload: str) -> Callable[[], None]:
    def run() -> None:
        module = runpy.run_path(str(REPO / "benchmarks" / "e2e" / "run.py"), run_name="census")
        raise SystemExit(module["main"](
            ["--workload", workload, "--seconds", "2", "--trace", "1"]
        ))

    return run


def drivers() -> dict[str, list[tuple[str, Callable[[], None]]]]:
    return {
        "quick": [("python -m repro.experiments", _run_module("repro.experiments"))],
        "examples": [
            (f"examples/{path.name}", _run_path(path))
            for path in sorted((REPO / "examples").glob("*.py"))
        ],
        "e2e": [(f"run.py --workload {w}", _run_e2e(w)) for w in E2E_WORKLOADS],
        "checks": [
            (f"{script} --check", _run_path(
                REPO / "benchmarks" / script, "--check", str(REPO / "benchmarks" / baseline)
            ))
            for script, baseline in CHECKS.items()
        ],
    }


def function_defs() -> list[tuple[str, Path, int, int, ast.AST, list[str]]]:
    """``(key, path, first line, last line, node, enclosing keys)`` for
    every function def under ``src/repro``; ``first line`` is the line of
    its first decorator, as in ``code.co_firstlineno``."""
    out = []

    def walk(node, path, stack, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = stack + [child.name]
                key = f"{path.relative_to(SRC)}::{'.'.join(qualname)}"
                inner = enclosing
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((key, path, first, child.end_lineno, child, enclosing))
                    inner = enclosing + [key]
                walk(child, path, qualname, inner)
            else:
                walk(child, path, stack, enclosing)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), path, [], [])
    return out


def _is_interface(node: ast.AST) -> bool:
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return True
    for decorator in node.decorator_list:
        target = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
        if target == "abstractmethod":
            return True
    return all(
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        for stmt in node.body
    )


def exemption(key: str, node: ast.AST) -> str:
    if _is_interface(node):
        return "interface or dunder"
    return EXEMPT.get(key, "UNEXEMPT")


def run_drivers(selected: list[str]) -> set[tuple[str, int]]:
    entered: set = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    table = drivers()
    for group in selected:
        for label, run in table[group]:
            started = time.perf_counter()
            status = 0
            sys.setprofile(profile)
            threading.setprofile(profile)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    run()
            except SystemExit as stop:
                status = stop.code
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
            wall = time.perf_counter() - started
            print(f"# driver {label}: exit {status}, {wall:.1f} s", file=sys.stderr)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered}


def main(argv: list[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    selected = argv or list(drivers())
    os.chdir(REPO)
    sys.path.insert(0, str(REPO / "src"))
    entered = run_drivers(selected)
    defs = function_defs()
    never = {key for key, path, first, _last, _node, _enc in defs
             if (os.path.realpath(path), first) not in entered}
    outermost = [d for d in defs if d[0] in never and not any(e in never for e in d[5])]
    unexempt = 0
    lines = 0
    for key, _path, first, last, node, _enc in outermost:
        why = exemption(key, node)
        unexempt += why == "UNEXEMPT"
        lines += last - first + 1
        print(f"{key}  ({last - first + 1} lines)  {why}")
    stale = sorted(set(EXEMPT) - {d[0] for d in outermost})
    for key in stale:
        print(f"{key}  entered or gone, but exempt: drop it from EXEMPT")
    print(
        f"# drivers: {', '.join(selected)}; {len(defs)} function defs; "
        f"{len(outermost)} outermost never entered ({lines} lines); "
        f"{unexempt} UNEXEMPT; {len(stale)} stale exemptions"
    )
    return 1 if unexempt or (stale and selected == list(drivers())) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
