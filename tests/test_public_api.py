"""The package's public surface: imports, exports, version."""

import ast
from pathlib import Path

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ names missing attribute {name}"

    def test_core_all_exports_resolve(self):
        import repro.core

        for name in repro.core.__all__:
            assert hasattr(repro.core, name), f"repro.core.__all__ names missing {name}"
        # One certification seam: the strategy switches are gone, and
        # so is the sharded executor they once selected.
        for removed in ("CertExecutorMode", "ShardBackend", "ShardExecConfig"):
            assert removed not in repro.core.__all__
            assert not hasattr(repro.core, removed)
        assert not hasattr(repro.SdurConfig, "with_shard_executor")
        assert "shardexec" not in repro.SdurConfig.__dataclass_fields__
        # One termination path: no mode to select, in the package or the config.
        import repro.core.config

        assert "TerminationMode" not in repro.core.__all__
        assert not hasattr(repro.core.config, "TerminationMode")
        assert not hasattr(repro.SdurConfig, "with_termination")
        assert "termination_mode" not in repro.SdurConfig.__dataclass_fields__

    def test_one_batching_rule(self):
        """Values are grouped once, at the log — a loop turn's proposals
        share one Paxos instance — so there is no delivery batcher, no
        knob for it, and no grouped vote record or reply."""
        import importlib.util

        import repro.core.messages
        import repro.termination

        assert importlib.util.find_spec("repro.core.batch") is None
        assert "BatchingConfig" not in repro.__all__ and not hasattr(repro, "BatchingConfig")
        assert "batching" not in repro.SdurConfig.__dataclass_fields__
        assert not hasattr(repro.SdurConfig, "with_batching")
        assert not hasattr(repro.SdurServer, "flush_batches")
        assert not hasattr(repro.core.messages, "OutcomeBatch")
        assert not hasattr(repro.termination, "VoteRecordGroup")

    def test_options_nobody_set_are_constants(self):
        """Every config field has a production caller (the comment names
        it); a value only tests ever changed is a module constant beside
        its one reader, and a fork nobody flipped is gone.  Adding a
        field means editing these sets on purpose."""
        from repro.consensus import replica
        from repro.consensus.replica import PaxosConfig
        from repro.core import client, server, snapshots
        from repro.core.messages import Busy
        from repro.overload import admission
        from repro.reconfig import participant

        assert set(repro.SdurConfig.__dataclass_fields__) == {
            "reorder_threshold",  # F4-F6, A2
            "delay_mode",  # F3
            "delay_fixed",  # F3
            "history_window",  # ROADMAP 1 gives it a measured default after item 13
            "vote_timeout",  # E1, O2; None in benchmarks/e2e/micro.py
            "gossip_interval",  # A5; None in benchmarks/e2e/micro.py
            "checkpoint_interval",  # ROADMAP 1 makes it a default after item 13
            "store_gc_interval",  # ROADMAP 1 makes it a default after item 13
            "store_gc_keep",  # ROADMAP 1 makes it a default after item 13
            "admission",  # O1-O4, G1
            "notify_all_replicas",  # E1, O2
            "tracing",  # T1
            "costs",  # S1, S2, E2, E3, O1, O3, O4, G1
        }
        assert set(repro.ClientConfig.__dataclass_fields__) == {
            "session_server",  # every client (harness add_client, e2e rig)
            "bloom_readsets",  # A1; F2-F5 pass it (experiments/common.py)
            "bloom_fp_rate",  # A1
            "commit_timeout",  # e2e rig, E1-E3, O1-O4, G1
            "read_timeout",  # e2e rig, E1-E3, O1-O4, G1
        }
        assert set(PaxosConfig.__dataclass_fields__) == {
            "static_leader",  # build_cluster, e2e rig
            "heartbeat_interval",  # E1, O2
            "suspect_timeout",  # E1, O2
            "wal",  # e2e rig
            "accepted_broadcast",  # A3, T1
        }
        assert set(admission.AdmissionConfig.__dataclass_fields__) == {
            "rate",  # O1, O3, O4, G1 (overload.ADMISSION)
            "burst",  # overload.ADMISSION
            "max_inflight",  # overload.ADMISSION, O2
            "max_queue_depth",  # overload.ADMISSION, O2
        }
        assert server.NOOP_INTERVAL == 0.01
        assert server.LEDGER_RETRY_INTERVAL == 0.25
        assert snapshots.GOSSIP_HISTORY == 256
        assert participant.CONFIG_CATCHUP_INTERVAL == 0.25
        assert (client.MAX_EPOCH_RETRIES, client.BACKOFF_MULTIPLIER) == (3, 2.0)
        assert (client.BACKOFF_CAP, client.BACKOFF_JITTER) == (2.0, 0.5)
        assert (client.BUSY_BACKOFF_BASE, client.MAX_BUSY_RETRIES) == (0.05, 4)
        assert client.SUSPECT_TTL == 5.0
        assert (replica.PHASE1_RETRY, replica.ACCEPT_RETRY, replica.PROPOSE_RETRY) == (
            0.5, 1.0, 0.5,
        )
        assert (replica.CATCHUP_INTERVAL, replica.COMMIT_INDEX_INTERVAL) == (0.5, 0.5)
        assert (admission.INFLIGHT_TTL, admission.RETRY_AFTER) == (30.0, 0.05)
        # The forks behind the retired switches went with them.
        assert not hasattr(admission.AdmissionController, "admit_read")
        assert not hasattr(admission.AdmitAll, "admit_read")
        assert "op_id" not in Busy.__dataclass_fields__
        for removed in ("with_reordering", "with_delaying", "with_admission", "_replace"):
            assert not hasattr(repro.SdurConfig, removed)

    def test_one_observability_plane(self):
        """One event recorder (``repro.obs``), one counter declaration
        (``repro.telemetry.wiring``), and a collector of client results."""
        import pytest

        import repro.sim
        from repro.metrics import MetricsCollector
        from repro.runtime.base import Runtime
        from repro.runtime.sim import SimWorld

        for removed in ("Tracer", "TraceEvent"):
            assert removed not in repro.sim.__all__ and not hasattr(repro.sim, removed)
        assert not hasattr(Runtime, "trace")
        with pytest.raises(TypeError, match="trace"):
            SimWorld(trace=True)
        assert not hasattr(SimWorld(), "tracer")
        for removed in ("ingest_server_stats", "counter_total", "ingest_obs"):
            assert not hasattr(MetricsCollector, removed)
        assert set(vars(MetricsCollector())) == {"results"}
        from repro.core.server import SdurServer, ServerStats
        from repro.telemetry.wiring import ServerStats as Declared

        assert ServerStats is Declared and not hasattr(SdurServer, "stats_bucket")

    def test_one_wire_codec(self):
        """One codec on the wire and in the WAL: nothing takes a
        ``codec`` argument, and the JSON one is only reachable by name."""
        import inspect

        from repro.net import codec
        from repro.net.asyncio_transport import AioTransport
        from repro.net.sim_transport import SimNetwork
        from repro.runtime.sim import SimWorld

        for entry in (AioTransport, SimNetwork, SimWorld, repro.build_cluster):
            assert "codec" not in inspect.signature(entry).parameters, entry
        assert "codec_roundtrip" in inspect.signature(SimWorld).parameters
        transport = AioTransport("a", {"a": ("127.0.0.1", 1)}, lambda src, msg: None)
        assert (transport._encode, transport._decode) == codec.get_codec("packed")
        assert not hasattr(transport, "codec") and not hasattr(SimWorld().network, "codec")
        assert sorted(codec.CODECS) == ["json", "packed"]

    def test_core_entry_points_exported(self):
        for name in (
            "build_cluster",
            "wan1_deployment",
            "wan2_deployment",
            "lan_deployment",
            "PartitionMap",
            "SdurConfig",
            "SdurClient",
            "SdurServer",
            "Read",
            "ReadMany",
            "run_experiment",
            "build_classic_dur",
        ):
            assert name in repro.__all__

    def test_quickstart_shape_from_root_imports_only(self):
        """The README's quickstart must work from top-level names."""
        deployment = repro.wan1_deployment(num_partitions=2)
        cluster = repro.build_cluster(
            deployment, repro.PartitionMap.by_index(2), repro.SdurConfig()
        )
        cluster.seed({"0/alice": 100, "1/carol": 75})
        client = cluster.add_client(region="eu")
        cluster.start()
        results = []

        def transfer(txn):
            values = yield repro.ReadMany(("0/alice", "1/carol"))
            txn.write("0/alice", values["0/alice"] - 5)
            txn.write("1/carol", values["1/carol"] + 5)

        client.execute(transfer, results.append)
        cluster.world.run_for(2.0)
        assert results and results[0].outcome is repro.Outcome.COMMIT

    def test_subpackages_importable(self):
        import repro.baseline
        import repro.checker
        import repro.consensus
        import repro.core
        import repro.experiments
        import repro.geo
        import repro.harness
        import repro.metrics
        import repro.net
        import repro.runtime
        import repro.sim
        import repro.storage
        import repro.workload


# ----------------------------------------------------------------------
# Every name has a caller: an AST census of src/
# ----------------------------------------------------------------------
REPO = Path(__file__).resolve().parents[1]

#: asyncio calls these on a protocol object; no code of ours does.
PROTOCOL_CALLBACKS = {"connection_made", "connection_lost", "data_received"}

#: Defs that stay although nothing outside tests/ references them, each
#: with its reason: operator tools no driver runs.
UNREFERENCED_ALLOWED = {
    "obs/timeline.py::render_timeline": "operator tool: the ASCII ladder docs/OBSERVABILITY.md documents",
}

#: Parameters passed through a call the census cannot name, with where.
PASSED_INDIRECTLY = {
    "core/partitioning.py::PartitionMap.__init__(assign=)": "`by_index` calls it as `cls`",
    "telemetry/registry.py::MetricRegistry.counter(wire=)": "wiring.py calls it as `declare`",
    "telemetry/registry.py::MetricRegistry.gauge(wire=)": "wiring.py calls it as `declare`",
}

#: Defaulted parameters only tests pass: test doubles, each with what
#: it lets a test substitute or observe.
TEST_DOUBLES = {
    "runtime/sim.py::SimWorld.__init__(codec_roundtrip=)":
        "every message through the wire codec, so a simulated run checks encode/decode",
    "runtime/sim.py::SimWorld.__init__(loss_probability=)":
        "lossy links for the retransmission tests",
    "harness/cluster.py::build_cluster(codec_roundtrip=)": "passes SimWorld's codec round trip through",
    "sim/kernel.py::Kernel.run(max_events=)": "a step bound for tests that drive the kernel by hand",
    "obs/recorder.py::SpanRecorder.__init__(clock=)": "a fake clock for span arithmetic",
    "harness/driver.py::run_experiment(record_history=)":
        "records the history so a test can run the checkers over a closed-loop run",
}


def _parse(*dirs: str) -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text())
        for directory in dirs
        for path in sorted((REPO / directory).rglob("*.py"))
    }


def _defs(trees: dict[Path, ast.Module]):
    """``(key, name, path, first line, last line, node)`` for every def and
    class, ``key`` being ``module path::Qualified.name``."""
    out = []

    def walk(node, path, stack):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = stack + [child.name]
                key = f"{path.relative_to(REPO / 'src' / 'repro')}::{'.'.join(qualname)}"
                out.append((key, child.name, path, child.lineno, child.end_lineno, child))
                walk(child, path, qualname)
            else:
                walk(child, path, stack)

    for path, tree in trees.items():
        walk(tree, path, [])
    return out


def _references(tree: ast.Module, path: Path) -> list[tuple[str, int]]:
    """Every name a module uses: loads, attributes, imports, and string
    constants that are exact identifiers (``getattr`` and friends).  A
    package's ``__init__.py`` re-exports names, so its imports and its
    ``__all__`` strings are not uses."""
    reexports: set[int] = set()
    if path.name == "__init__.py":
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                reexports.update(id(alias) for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                reexports.update(id(n) for n in ast.walk(node.value))
    out = []
    for node in ast.walk(tree):
        if id(node) in reexports:
            continue
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.rpartition(".")[2], node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.append((node.value, node.lineno))
    return out


def unreferenced_defs() -> set[str]:
    """Defs nothing outside tests/ reaches, transitively: a reference
    from inside the def itself, or from another unreferenced def, does
    not count."""
    src = _parse("src")
    outside = {name for path, tree in _parse("benchmarks", "examples").items()
               for name, _ in _references(tree, path)}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in src.items():
        for name, line in _references(tree, path):
            uses.setdefault(name, []).append((path, line))
    defs = [
        d for d in _defs(src)
        if not (d[1].startswith("__") and d[1].endswith("__"))
        and d[1] not in PROTOCOL_CALLBACKS
        and d[1] not in outside
    ]
    dead: set[str] = set()
    while True:
        spans: dict[Path, list[tuple[int, int]]] = {}
        for key, _name, path, first, last, _node in defs:
            if key in dead:
                spans.setdefault(path, []).append((first, last))
        found = {
            key
            for key, name, path, first, last, _node in defs
            if key not in dead
            and not any(
                not (where == path and first <= line <= last)
                and not any(a <= line <= b for a, b in spans.get(where, ()))
                for where, line in uses.get(name, ())
            )
        }
        if not found:
            return dead
        dead |= found


def _module_calls(tree: ast.Module):
    """``(callee name, call)`` for every call in a module, import aliases
    resolved."""
    aliases = {
        alias.asname: alias.name.rpartition(".")[2]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield aliases.get(func.id, func.id), node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node


def _calls(trees: dict[Path, ast.Module]) -> dict[str, list[ast.Call]]:
    """Call sites by callee name, import aliases resolved."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for name, node in _module_calls(tree):
            calls.setdefault(name, []).append(node)
    return calls


def never_passed_parameters() -> set[str]:
    """Defaulted parameters of src/ defs that no call site outside tests/
    passes.  A ``name=name`` default binds a closure variable and is not
    an option."""
    src = _parse("src")
    calls = _calls({**src, **_parse("benchmarks", "examples")})
    missing = []
    for key, name, _path, _first, _last, node in _defs(src):
        if isinstance(node, ast.ClassDef):
            continue
        qualname = key.partition("::")[2].split(".")
        if name == "__init__":
            callee = qualname[-2]
        elif name.startswith("__"):
            continue
        else:
            callee = name
        args = node.args
        positional = args.posonlyargs + args.args
        offset = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(args.defaults)
        defaults = [
            (index, arg, default)
            for index, (arg, default) in enumerate(zip(positional[first:], args.defaults), first)
        ] + [
            (None, arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        sites = calls.get(callee, [])
        for index, arg, default in defaults:
            if isinstance(default, ast.Name) and default.id == arg.arg:
                continue
            if not any(
                any(kw.arg in (arg.arg, None) for kw in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or (index is not None and len(call.args) > index - offset)
                for call in sites
            ):
                missing.append(f"{key}({arg.arg}=)")
    return set(missing)


def module_main_guards() -> list[str]:
    """Modules under src/ other than a package ``__main__.py`` that carry
    an ``if __name__ == "__main__":`` block: a second CLI."""
    return sorted(
        str(path.relative_to(REPO / "src" / "repro"))
        for path, tree in _parse("src").items()
        if path.name != "__main__.py"
        and any(
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name)
            and node.test.left.id == "__name__"
            for node in tree.body
        )
    )


#: The one module that wires a node: server, replica, fabric, hooks and
#: the Paxos dispatch (ROADMAP 18).
ASSEMBLY = REPO / "src" / "repro" / "harness" / "cluster.py"
#: The frozen e2e rig keeps its own copy (tests/integration/
#: test_asyncio_e2e.py checks it against the harness, node by node).
FROZEN = REPO / "benchmarks" / "e2e"


def node_wiring_outside_the_assembly() -> list[str]:
    """Every module but :data:`ASSEMBLY` that constructs both an
    ``SdurServer`` and a ``PaxosReplica``, and every ``_add_server`` call
    outside it, as ``path`` and ``path:line``."""
    found = []
    for path, tree in _parse("src", "tests", "examples", "benchmarks").items():
        if path == ASSEMBLY or FROZEN in path.parents:
            continue
        where = path.relative_to(REPO)
        built = set()
        for name, node in _module_calls(tree):
            built.add(name)
            if name == "_add_server":
                found.append(f"{where}:{node.lineno}")
        if {"SdurServer", "PaxosReplica"} <= built:
            found.append(str(where))
    return sorted(found)


class TestOneNodeAssembly:
    def test_only_the_harness_wires_a_node(self):
        assert node_wiring_outside_the_assembly() == []


class TestEveryNameHasACaller:
    """Code only tests reach leaves src/ (ROADMAP 19): a def moves into
    tests/ beside its caller or goes, and an option nobody outside tests/
    sets becomes a constant beside its one reader."""

    def test_every_def_is_referenced_outside_tests(self):
        assert sorted(unreferenced_defs() - set(UNREFERENCED_ALLOWED)) == []

    def test_every_defaulted_parameter_is_passed(self):
        allowed = set(PASSED_INDIRECTLY) | set(TEST_DOUBLES)
        assert sorted(never_passed_parameters() - allowed) == []

    def test_only_package_mains_are_command_lines(self):
        assert module_main_guards() == []

    def test_every_allow_list_entry_is_needed_and_has_a_reason(self):
        assert set(UNREFERENCED_ALLOWED) <= unreferenced_defs()
        assert set(PASSED_INDIRECTLY) | set(TEST_DOUBLES) <= never_passed_parameters()
        assert all({**UNREFERENCED_ALLOWED, **PASSED_INDIRECTLY, **TEST_DOUBLES}.values())
