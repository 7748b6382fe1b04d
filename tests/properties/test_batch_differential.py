"""Differential property: the shipped ingest path is bit-identical to
the sequential oracle (docs/PROTOCOL.md §18.2).

Certification is deterministic: a server's state is a function of its
delivery sequence alone (PROTOCOL.md §14's invariant).  Completing a
local at delivery must not touch that function — it skips the pending
list's insert and pop, never what they produce.  This suite scripts the
full, identical delivery sequence — local and global projections, noop
ticks, vote records for both the partition's own verdicts and remote
ones (including contradictory and duplicate votes), duplicate
deliveries — into two raw servers — the oracle of
``tests/oracles/sequential_ingest.py``, where every commit goes through
the pending list, and a shipped server — and requires their final
states to match exactly: store contents, SC/DC, certification window,
completed map, abort buckets, pending remainder, and the per-client
outcome stream.

Both servers' own vote *proposals* are dropped by a stub fabric — in a
cluster, proposal timing alters log interleavings legitimately, so the
property quantifies over delivery sequences, not proposal schedules;
vote records reach the servers only as scripted log values.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import WindowRecord
from repro.core.config import SdurConfig, ServiceCosts
from repro.core.directory import ClusterDirectory
from repro.core.messages import NoopTick, OutcomeNotice
from repro.core.partitioning import PartitionMap
from repro.core.server import SdurServer
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection
from repro.reconfig.coordinator import plan_split
from repro.reconfig.messages import BeginSplit
from repro.termination.messages import VoteRecord

from tests.oracles.sequential_ingest import sequential
from tests.oracles.stub_runtime import DropFabric, StubRuntime

KEYS = [f"0/k{i}" for i in range(6)]


def build_server(reorder_threshold: int, **config_overrides) -> SdurServer:
    # Small by default: snapshots can fall below the floor.
    config_overrides.setdefault("history_window", 16)
    config = SdurConfig(
        costs=ServiceCosts(),
        reorder_threshold=reorder_threshold,
        vote_timeout=None,
        gossip_interval=None,
        **config_overrides,
    )
    return SdurServer(
        runtime=StubRuntime(),
        partition="p0",
        directory=ClusterDirectory(
            partitions={"p0": ["s0"], "p1": ["s9"]}, preferred={"p0": "s0", "p1": "s9"}
        ),
        partition_map=PartitionMap.by_index(2),
        fabric=DropFabric(),
        config=config,
    )


def build_oracle(reorder_threshold: int) -> SdurServer:
    """A shipped server that completes nothing at delivery."""
    return sequential(build_server(reorder_threshold))


# One abstract step of the delivery script.  Vote/dup steps carry a raw
# index resolved modulo the targets available at concretization time.
op_strategy = st.one_of(
    st.tuples(
        st.just("txn"),
        st.booleans(),  # is_global
        st.lists(st.integers(0, len(KEYS) - 1), min_size=1, max_size=3),  # reads
        st.lists(st.integers(0, len(KEYS) - 1), min_size=1, max_size=2),  # writes
        st.integers(0, 24),  # snapshot lag (window is 16: some go stale)
    ),
    st.tuples(st.just("noop")),
    st.tuples(
        st.just("vote"),
        st.integers(0, 63),  # which global (mod count)
        st.sampled_from(["p0", "p1"]),
        st.sampled_from(["commit", "abort"]),
    ),
    st.tuples(st.just("dup"), st.integers(0, 63)),  # which txn (mod count)
)


def concretize(ops) -> list[object]:
    """Turn the abstract script into concrete log values.

    Snapshots are derived by replaying the growing sequence through a
    throwaway sequential server, exactly like a client reading its own
    partition: ``snapshot = sc - lag`` is always valid (never ahead of
    any replica processing the same prefix), so neither server gates.
    Trailing commit votes close every still-open global so the pending
    list drains (hanging entries are compared too, via the pendings of
    scripts whose votes arrive mid-sequence).
    """
    oracle = build_oracle(reorder_threshold=0)
    values: list[object] = []
    projections: list[TxnProjection] = []
    globals_: list[TxnProjection] = []
    voted: set[tuple[TxnId, str]] = set()

    def emit(value) -> None:
        oracle.on_adeliver(len(values), value)
        values.append(value)

    for op in ops:
        kind = op[0]
        if kind == "txn":
            _, is_global, reads, writes, lag = op
            proj = TxnProjection(
                tid=TxnId("c", len(projections)),
                partition="p0",
                readset=ReadsetDigest.exact([KEYS[i] for i in reads]),
                writeset={KEYS[i]: len(projections) for i in writes},
                snapshot=max(0, oracle.sc - lag),
                partitions=("p0", "p1") if is_global else ("p0",),
                coordinator="s0",
                client="c",
            )
            projections.append(proj)
            if is_global:
                globals_.append(proj)
            emit(proj)
        elif kind == "noop":
            emit(NoopTick())
        elif kind == "vote":
            if not globals_:
                continue
            _, index, partition, vote = op
            proj = globals_[index % len(globals_)]
            if (proj.tid, partition) in voted:
                continue
            voted.add((proj.tid, partition))
            emit(
                VoteRecord(
                    tid=proj.tid,
                    partition=partition,
                    vote=vote,
                    involved=proj.partitions if partition == "p0" else (),
                )
            )
        elif kind == "dup":
            if not projections:
                continue
            emit(projections[op[1] % len(projections)])
    for proj in globals_:
        for partition in ("p0", "p1"):
            if (proj.tid, partition) not in voted:
                emit(
                    VoteRecord(
                        tid=proj.tid,
                        partition=partition,
                        vote="commit",
                        involved=proj.partitions if partition == "p0" else (),
                    )
                )
    return values


def replay(server: SdurServer, values) -> SdurServer:
    for instance, value in enumerate(values):
        server.on_adeliver(instance, value)
    return server


def completed_of(server: SdurServer) -> dict[tuple[str, int], str]:
    """The server's dedup table flattened to ``(client, seq) -> outcome``,
    old generation first (a tid in both reads its newer outcome)."""
    return {
        (client, seq): outcome
        for generation in (server._completed_old, server._completed)
        for client, row in generation.items()
        for seq, outcome in row.items()
    }


def state_of(server: SdurServer) -> dict:
    outcomes = [
        (dst, msg.tid, msg.outcome)
        for dst, msg in server.runtime.sent
        if isinstance(msg, OutcomeNotice)
    ]
    return {
        "sc": server.sc,
        "dc": server.dc,
        "store": server.store.dump(),
        "window": list(map(WindowRecord.of, server.window)),
        "floor": server.window.floor,
        "completed": list(completed_of(server).items()),
        "pending": [
            (e.tid, dict(e.votes), e.doomed) for e in server.pending
        ],
        "outcomes": outcomes,
        "committed_local": server.stats.committed_local,
        "committed_global": server.stats.committed_global,
        "aborted_certification": server.stats.aborted_certification,
        "aborted_stale_snapshot": server.stats.aborted_stale_snapshot,
        "aborted_votes": server.stats.aborted_votes,
        "aborted_reorder": server.stats.aborted_reorder,
        "deferred": server.stats.deferred,
    }


@settings(deadline=None, max_examples=60)
@given(
    ops=st.lists(op_strategy, min_size=1, max_size=50),
    reorder_threshold=st.sampled_from([0, 2]),
)
def test_shipped_state_is_bit_identical_to_sequential(ops, reorder_threshold):
    values = concretize(ops)
    oracle = replay(build_oracle(reorder_threshold), values)
    shipped = replay(build_server(reorder_threshold), values)
    assert state_of(shipped) == state_of(oracle)
    # The oracle really is the other side: nothing completed at delivery.
    assert oracle.stats.completed_at_delivery == 0


LOCAL_OPS = [("txn", False, [i % len(KEYS)], [(i + 1) % len(KEYS)], 0) for i in range(12)]


def test_fast_path_actually_engages():
    """Guard against completion at delivery silently never firing (the
    property above would still pass if every commit entered the pending
    list)."""
    values = concretize(LOCAL_OPS)
    shipped = replay(build_server(0), values)
    assert shipped.stats.committed_local == 12
    assert shipped.stats.completed_at_delivery == 12


def test_default_completes_at_delivery_the_oracle_does_not():
    """Guard against the differential comparing a path with itself:
    for the same script the shipped server completes every local at
    delivery and the oracle none — and both reply as they go, with
    plain notices."""
    values = concretize(LOCAL_OPS)
    shipped = replay(build_server(0), values)
    oracle = replay(build_oracle(0), values)
    assert shipped.stats.completed_at_delivery == 12
    assert oracle.stats.completed_at_delivery == 0
    assert state_of(shipped) == state_of(oracle)
    assert shipped.runtime.sent == oracle.runtime.sent
    assert all(isinstance(msg, OutcomeNotice) for _, msg in shipped.runtime.sent)


def test_local_during_a_captured_split_completes_at_delivery_like_the_oracle():
    """A split that has captured its key range but not finished
    (``BeginSplit`` delivered onto an empty barrier, ``FinishSplit`` not
    yet) no longer keeps a local from completing at delivery: the gate
    and the stale-epoch check have passed it, and a barrier member would
    have kept the pending list non-empty."""

    def run(server: SdurServer) -> SdurServer:
        change = replace(plan_split(server.routing, "p0"), new_members=("n1",), new_preferred="n1")
        server.on_adeliver(0, BeginSplit(change=change))
        migration = server.reconfig._migration
        assert migration is not None and migration.captured and not server.pending
        stays = next(k for k in KEYS if server.partition_map.partition_of(k) == "p0")
        proj = TxnProjection(
            tid=TxnId("c", 0),
            partition="p0",
            readset=ReadsetDigest.exact([stays]),
            writeset={stays: 1},
            snapshot=0,
            partitions=("p0",),
            coordinator="s0",
            client="c",
            epoch=change.new_epoch,
        )
        return replay(server, [proj])

    shipped, oracle = run(build_server(0)), run(build_oracle(0))
    assert shipped.stats.completed_at_delivery == 1
    assert oracle.stats.completed_at_delivery == 0
    assert shipped.stats.committed_local == 1
    assert state_of(shipped) == state_of(oracle)
    assert shipped.runtime.sent == oracle.runtime.sent
