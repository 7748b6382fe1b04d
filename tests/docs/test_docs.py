"""Docs stay honest: links resolve, experiment IDs exist, counters documented.

These run in the CI ``docs`` job (see ``.github/workflows/ci.yml``) so a
rename or a deleted section fails the build instead of silently leaving
README.md pointing at nothing.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

DOC_FILES = sorted(
    [REPO / "README.md", REPO / "EXPERIMENTS.md", *(REPO / "docs").glob("*.md")]
)

# [text](target) — target up to the first whitespace or closing paren.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXPERIMENT_RE = re.compile(r"python -m repro\.experiments ([A-Z]\d+)")


def _doc_links(doc: Path) -> list[str]:
    return LINK_RE.findall(doc.read_text())


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_intra_repo_links_resolve(doc):
    broken = []
    for target in _doc_links(doc):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not (doc.parent / path).exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken links {broken}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_documented_experiment_ids_are_registered(doc):
    from repro.experiments.__main__ import REGISTRY

    cited = set(EXPERIMENT_RE.findall(doc.read_text()))
    unknown = cited - set(REGISTRY)
    assert not unknown, f"{doc.name} cites unregistered experiments {unknown}"


#: Ablation ids (``A1`` … ``A8``) and names of things that no longer exist.
ABLATION_ID_RE = re.compile(r"\bA\d+\b")
RETIRED_NAMES = (
    "termination_mode",
    "TerminationMode",
    "with_termination",
    "ablation_vote_ledger",
    "bench_a6",
    # PR 19: the sharded executor, its ablation (A8, caught by the
    # registry check below) and benchmark, the codec-savings knob, and
    # the absent batcher.
    "shardexec",
    "ShardExecConfig",
    "with_shard_executor",
    "bench_shardcert",
    "measure_codec_savings",
    "batching=None",
    # PR 20: the second event log, and the copies of cluster state the
    # metrics collector carried.
    "repro.sim.tracing",
    "Tracer",
    "runtime.trace",
    "ingest_server_stats",
    "counter_total",
    "stats_bucket",
    # The delivery batcher, its knobs, and the grouped vote record it
    # proposed: values are grouped only by the Paxos turn batch.
    "repro.core.batch",
    "BatchingConfig",
    "DeliveryBatcher",
    "with_batching",
    "flush_batches",
    "ledger_group",
    "VoteRecordGroup",
    "flush_group",
)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_no_doc_cites_a_retired_ablation_or_termination_switch(doc):
    """A6 (ledger vs arrival-time termination) and the
    ``SdurConfig.termination_mode`` switch it exercised left ``src/`` in
    PR 14, A8 and the sharded executor in PR 19; a doc still naming
    them — in any spelling, not only ``python -m repro.experiments A6``
    — advertises something that cannot be run."""
    from repro.experiments.__main__ import REGISTRY

    text = doc.read_text()
    unknown = set(ABLATION_ID_RE.findall(text)) - set(REGISTRY)
    assert not unknown, f"{doc.name} cites unregistered ablations {sorted(unknown)}"
    stale = [name for name in RETIRED_NAMES if name in text]
    assert not stale, f"{doc.name} cites retired names {stale}"


def test_every_server_counter_is_documented_in_protocol_md():
    """docs/PROTOCOL.md §14 must list every counter server_stats() exports."""
    from tests.conftest import make_cluster

    cluster = make_cluster(1)
    cluster.start()
    cluster.world.run_for(0.5)
    stats = cluster.server_stats()
    counters = {name for node_stats in stats.values() for name in node_stats}
    assert counters, "server_stats() exported nothing"
    protocol = (REPO / "docs" / "PROTOCOL.md").read_text()
    missing = {name for name in counters if f"`{name}`" not in protocol}
    assert not missing, f"counters absent from docs/PROTOCOL.md: {sorted(missing)}"


#: ``| `metric` | kind | unit | meaning |`` rows of the metric schema.
METRIC_ROW_RE = re.compile(r"^\| `(\w+)` \| (\w+) \| (\w+) \| (.+) \|$", re.MULTILINE)


def test_every_registry_metric_is_documented_in_observability_md():
    """docs/OBSERVABILITY.md §19 must list every metric the telemetry
    registries declare — server and autoscale alike — *as declared*:
    the kind, the unit, and the help text as the meaning, so dashboards
    can be built from the doc without reading wiring.py and the doc
    cannot drift into a second wording of it."""
    from tests.conftest import make_cluster

    cluster = make_cluster(1)
    cluster.enable_autoscale()
    declared = {spec.name: spec for spec in cluster.autoscale.registry.specs()}
    for handle in cluster.servers.values():
        declared.update({spec.name: spec for spec in handle.server.registry.specs()})
    assert declared, "registries declared nothing"
    observability = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    listed = {row[0]: row[1:] for row in METRIC_ROW_RE.findall(observability)}
    missing = sorted(set(declared) - set(listed))
    assert not missing, f"metrics absent from docs/OBSERVABILITY.md: {missing}"
    drifted = {
        name: (listed[name], (spec.kind, spec.unit, spec.help))
        for name, spec in declared.items()
        if listed[name] != (spec.kind, spec.unit, spec.help)
    }
    assert not drifted, f"listed (kind, unit, meaning) != declared: {drifted}"
    undeclared = sorted(set(listed) - set(declared))
    assert not undeclared, f"docs/OBSERVABILITY.md lists undeclared metrics: {undeclared}"


CONFIG_REF_RE = re.compile(r"\b(SdurConfig|PaxosConfig)\.([A-Za-z_]\w*)")


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_cited_config_knobs_exist(doc):
    """Every ``SdurConfig.<name>`` / ``PaxosConfig.<name>`` a doc cites
    must be a dataclass field (or a method) of that class today — removing
    a knob must not leave the docs advertising it."""
    from dataclasses import fields

    from repro.consensus.replica import PaxosConfig
    from repro.core.config import SdurConfig

    known = {
        cls.__name__: {f.name for f in fields(cls)}
        | {name for name in vars(cls) if callable(getattr(cls, name))}
        for cls in (SdurConfig, PaxosConfig)
    }
    stale = sorted(
        f"{cls_name}.{name}"
        for cls_name, name in set(CONFIG_REF_RE.findall(doc.read_text()))
        if name not in known[cls_name]
    )
    assert not stale, f"{doc.name} cites config knobs that do not exist: {stale}"


def test_sim_tables_hold_every_registered_experiment():
    """``benchmarks/sim_tables.md`` is the quick suite's markdown report
    without its wall-clock lines; the CI ``sim-tables`` job regenerates it
    under ``PYTHONHASHSEED=0`` and diffs.  It holds one section per
    registered experiment, in registry order."""
    from repro.experiments.__main__ import REGISTRY

    text = (REPO / "benchmarks" / "sim_tables.md").read_text()
    assert re.findall(r"^## (\w+) — ", text, re.MULTILINE) == list(REGISTRY)
    assert "wall time" not in text
