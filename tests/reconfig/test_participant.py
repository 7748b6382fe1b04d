"""The reconfiguration state machine on its own (docs/PROTOCOL.md §13, §17).

No ``SdurServer``, no Paxos replica, no simulator here: a
:class:`ReconfigParticipant` gets the stub runtime, a real
``VersionedRouting`` / ``MultiVersionStore`` / ``PendingList`` /
``GlobalSnapshotBuilder`` and recording callables — exactly the
arguments the server hands it — and is driven through its fixed points,
in the style of ``tests/termination/test_ledger_component.py``.  Whole
splits and merges under load stay in
``tests/integration/test_reconfig_split.py`` / ``test_reconfig_merge.py``.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

import repro
from repro.core.directory import ClusterDirectory
from repro.core.messages import CommitRequest, ReadRequest
from repro.core.partitioning import PartitionMap
from repro.core.pending import PendingList, PendingTxn
from repro.core.snapshots import GlobalSnapshotBuilder
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection
from repro.reconfig.coordinator import plan_merge, plan_split
from repro.reconfig.epochs import VersionedRouting
from repro.reconfig.messages import (
    BeginSplit,
    ConfigSnapshot,
    FinishSplit,
    GetConfig,
    InstallMigration,
    StaleEpochNotice,
)
from repro.reconfig.participant import CONFIG_CATCHUP_INTERVAL, ReconfigParticipant
from repro.storage.mvstore import MultiVersionStore

from tests.oracles.stub_runtime import StubRuntime

SERVERS = {"p0": ["s1", "s2"], "p1": ["q1", "q2"], "p2": ["r1"]}
KEYS = [f"0/k{i}" for i in range(16)]


def fresh_routing() -> VersionedRouting:
    directory = ClusterDirectory(
        partitions={p: list(members) for p, members in SERVERS.items()},
        preferred={p: members[0] for p, members in SERVERS.items()},
    )
    return VersionedRouting(directory, PartitionMap.by_index(3))


def make(partition="p0", node="s1", routing=None, leader=True):
    """A participant for ``partition`` plus everything it was handed."""
    routing = routing or fresh_routing()
    rig = SimpleNamespace(
        runtime=StubRuntime(node),
        routing=routing,
        store=MultiVersionStore(),
        pending=PendingList(),
        builder=GlobalSnapshotBuilder(routing.directory.partition_ids, partition),
        stats=SimpleNamespace(aborted_epoch=0),
        leader=leader,
        merge_hook=None,
        proposals=[],
        groups=[],
        floors=[],
        learned=[],
        resubmitted=[],
        rerouted=[],
        calls=[],
    )
    fabric = SimpleNamespace(
        abcast=lambda group, value: rig.proposals.append((group, value)),
        add_group=lambda name, members, preferred: rig.groups.append(name),
    )
    rig.part = ReconfigParticipant(
        rig.runtime,
        partition,
        routing,
        rig.store,
        rig.pending,
        rig.builder,
        fabric,
        rig.stats,
        replace_window=rig.floors.append,
        partition_learned=lambda: rig.learned.append(routing.epoch),
        is_leader=lambda: rig.leader,
        resubmit=rig.resubmitted.append,
        reroute_read=lambda src, read: rig.rerouted.append(read),
        requeue_waiting_reads=lambda: rig.calls.append("requeue"),
        drain_waiting_reads=lambda: rig.calls.append("drain"),
        pump=lambda: rig.calls.append("pump"),
        merge_hook=lambda: rig.merge_hook,
    )
    return rig


def tid(seq):
    return TxnId("c", seq)


def proj(seq, partition="p0", epoch=0, client="client", partitions=None):
    return TxnProjection(
        tid=tid(seq),
        partition=partition,
        readset=ReadsetDigest.exact(["0/k0"]),
        writeset={"0/k0": seq},
        snapshot=0,
        partitions=partitions or (partition,),
        coordinator="s1",
        client=client,
        epoch=epoch,
    )


def pend(rig, seq):
    rig.pending.append(PendingTxn(proj=proj(seq), rt=0, delivered_at=0.0))


def complete(rig, seq):
    """What the server's ``_complete`` does, as far as the barrier cares."""
    rig.pending.remove(tid(seq))
    rig.part.on_completed(tid(seq))


def read(key, seq=1):
    return ReadRequest(tid=tid(seq), op_id=0, keys=(key,), snapshot=None, reply_to="client")


def sent(rig, kind):
    return [(dst, msg) for dst, msg in rig.runtime.sent if isinstance(msg, kind)]


def proposed(rig, kind):
    return [(group, value) for group, value in rig.proposals if isinstance(value, kind)]


def split_of_p0(routing):
    return plan_split(routing, "p0", new_members=("n1", "n2"))


class TestBeginAndCapture:
    def test_epoch_switches_at_delivery_and_the_directory_is_pushed(self):
        rig = make()
        change = split_of_p0(rig.routing)
        assert rig.part.deliver(BeginSplit(change=change)) is True
        assert rig.routing.epoch == 1 and rig.routing.ownership_epoch("p0") == 1
        assert rig.groups == ["p3"] and rig.learned == [1]
        # Own replicas and the split child's members are skipped.
        pushes = sent(rig, ConfigSnapshot)
        assert [dst for dst, _ in pushes] == ["q1", "q2", "r1"]
        assert all(msg.epoch == 1 and msg.changes == (change,) for _, msg in pushes)
        assert rig.calls == ["requeue"]

    def test_capture_waits_for_exactly_the_barrier_and_fires_once(self):
        rig = make()
        rig.store.apply({key: 1 for key in KEYS}, 1)
        pend(rig, 1)
        pend(rig, 2)
        change = split_of_p0(rig.routing)
        rig.part.deliver(BeginSplit(change=change))
        assert not rig.proposals  # both barrier members still pending
        pend(rig, 3)  # delivered after the change: not in the barrier
        complete(rig, 1)
        assert not rig.proposals
        complete(rig, 2)
        ((group, install),) = proposed(rig, InstallMigration)
        moved = {k for k in KEYS if rig.routing.partition_map.partition_of(k) == "p3"}
        assert group == "p3" and moved and set(install.chains) == moved
        assert install.source_sc == 1 and install.prior_changes == ()
        complete(rig, 3)
        assert len(proposed(rig, InstallMigration)) == 1  # fired once

    def test_empty_barrier_captures_at_the_change_itself(self):
        rig = make()
        rig.part.deliver(BeginSplit(change=split_of_p0(rig.routing)))
        assert len(proposed(rig, InstallMigration)) == 1

    def test_only_the_leader_proposes_the_install(self):
        rig = make(leader=False)
        rig.store.apply({key: 1 for key in KEYS}, 1)
        rig.part.deliver(BeginSplit(change=split_of_p0(rig.routing)))
        assert not rig.proposals
        # ... but it captured all the same: eviction knows the keys.
        rig.part.deliver(FinishSplit(change=rig.routing.changes[0]))
        assert all(rig.routing.partition_map.partition_of(k) == "p0" for k in rig.store.keys())
        assert len(list(rig.store.keys())) < len(KEYS)

    def test_duplicate_begin_and_finish_are_no_ops(self):
        rig = make()
        rig.store.apply({key: 1 for key in KEYS}, 1)
        change = split_of_p0(rig.routing)
        rig.part.deliver(BeginSplit(change=change))
        before = (list(rig.runtime.sent), list(rig.proposals), list(rig.calls))
        rig.part.deliver(BeginSplit(change=change))
        assert (rig.runtime.sent, rig.proposals, rig.calls) == before
        rig.part.deliver(FinishSplit(change=change))
        kept = sorted(rig.store.keys())
        rig.store.apply({"0/late": 1}, 2)
        rig.part.deliver(FinishSplit(change=change))  # nothing left to evict
        assert sorted(rig.store.keys()) == kept + ["0/late"]

    def test_values_of_other_protocols_are_not_ours(self):
        rig = make()
        assert rig.part.deliver(proj(1)) is False
        assert rig.part.handle(read("0/k0")) is False


class TestSplitInstall:
    def child(self, leader=True):
        """A replica of the split-off partition, built with its change."""
        routing = fresh_routing()
        change = split_of_p0(routing)
        routing.apply(change)
        rig = make(partition="p3", node="n1", routing=routing, leader=leader)
        rig.part.await_install()
        chains = {"0/a": ((3, "x"), (7, "y"))}
        install = InstallMigration(change=change, chains=chains, source_sc=9, gc_horizon=2)
        return rig, install

    def test_gated_until_the_install_then_open(self):
        rig, install = self.child()
        assert rig.part.must_wait(proj(1, partition="p3", epoch=1))
        assert rig.part.park_read(read("0/a")) is True
        rig.part.deliver(install)
        assert rig.store.current_version == 9 and rig.store.gc_horizon == 2
        assert rig.store.read("0/a", 5).value == "x"  # history came along
        assert rig.floors == [9]
        assert [r.keys for r in rig.rerouted] == [("0/a",)]
        assert rig.part.park_read(read("0/a")) is False
        assert not rig.part.must_wait(proj(2, partition="p3", epoch=1))
        assert proposed(rig, FinishSplit) == [("p0", FinishSplit(change=install.change))]

    def test_duplicate_install_is_a_no_op(self):
        rig, install = self.child()
        rig.part.deliver(install)
        rig.store.apply({"0/a": "z"}, 10)
        rig.part.deliver(install)
        assert rig.store.current_version == 10 and rig.floors == [9]
        assert len(proposed(rig, FinishSplit)) == 1

    def test_a_follower_installs_but_does_not_propose_the_finish(self):
        rig, install = self.child(leader=False)
        rig.part.deliver(install)
        assert rig.floors == [9] and not rig.proposals


class TestMergeInstall:
    def scenario(self):
        """p1 absorbs p2 at epoch 3; the absorbing replica missed the
        pushes of epochs 1 and 2 (unrelated splits of p0 and its child)."""
        ahead = fresh_routing()
        split = split_of_p0(ahead)
        ahead.apply(split)
        resplit = plan_split(ahead, "p3", new_members=("n3",))
        ahead.apply(resplit)
        merge = plan_merge(ahead, absorbed="p2", into="p1")
        rig = make(partition="p1", node="q1")
        rig.store.apply({"1/own": 1}, 4)
        install = InstallMigration(
            change=merge,
            chains={"2/a": ((1, "old"), (6, "new")), "2/b": ((2, "b"),)},
            source_sc=6,
            gc_horizon=0,
            prior_changes=(resplit, split),  # any order on the wire
        )
        return rig, install, (split, resplit), merge

    def test_prior_changes_close_the_gap_then_one_synthetic_commit(self):
        rig, install, prior, merge = self.scenario()
        hooked = []
        rig.merge_hook = lambda *args: hooked.append(args)
        rig.part.deliver(install)
        assert rig.routing.changes == [*prior, merge] and rig.learned == [1, 2, 3]
        assert rig.groups == ["p3", "p4"]  # joined in epoch order
        assert rig.routing.ownership_epoch("p1") == 3 and "p2" in rig.routing.retired
        # One version above *both* counters; window and gc horizon floor there.
        assert rig.store.current_version == 7 == rig.store.gc_horizon
        assert rig.floors == [7]
        assert rig.store.read("2/a", 7).value == "new"
        assert hooked == [("p1", 7, frozenset({"2/a", "2/b"}))]
        assert rig.calls == ["drain"]
        assert proposed(rig, FinishSplit) == [("p2", FinishSplit(change=merge))]

    def test_own_counter_ahead_of_the_source(self):
        rig, install, *_ = self.scenario()
        rig.store.apply({"1/own": 2}, 11)
        rig.part.deliver(install)
        assert rig.store.current_version == 12 and rig.floors == [12]

    def test_duplicate_install_is_a_no_op(self):
        rig, install, *_ = self.scenario()
        rig.part.deliver(install)
        rig.part.deliver(install)
        assert rig.store.current_version == 7 and rig.floors == [7]
        assert len(proposed(rig, FinishSplit)) == 1

    def test_retiring_source_serves_its_reads_until_eviction(self):
        rig = make(partition="p2", node="r1")
        rig.store.apply({"2/a": 1}, 1)
        merge = plan_merge(rig.routing, absorbed="p2", into="p1")
        assert not rig.part.still_serves("2/a")  # nothing in flight: plain routing
        rig.part.deliver(BeginSplit(change=merge))
        # The key routes to p1 now, yet the chains are still here.
        assert rig.routing.partition_map.partition_of("2/a") == "p1"
        assert rig.part.still_serves("2/a") and not rig.part.still_serves("1/x")
        # Absorbing replicas learn the merge in their own log, not by push.
        assert [dst for dst, _ in sent(rig, ConfigSnapshot)] == ["s1", "s2"]
        ((_, install),) = proposed(rig, InstallMigration)
        assert set(install.chains) == {"2/a"}
        rig.part.deliver(FinishSplit(change=merge))
        assert not rig.part.still_serves("2/a") and "2/a" not in rig.store
        assert rig.calls == ["requeue", "requeue"]  # at the switch, at eviction


class TestChangesLearnedOutOfBand:
    def test_snapshot_stops_at_the_first_change_touching_the_own_partition(self):
        ahead = fresh_routing()
        first = plan_split(ahead, "p1", new_members=("n1",))
        ahead.apply(first)
        own = plan_split(ahead, "p0", new_members=("n2",))
        ahead.apply(own)
        later = plan_split(ahead, "p1", new_members=("n3",))
        ahead.apply(later)
        rig = make()
        snapshot = ConfigSnapshot(epoch=3, changes=(later, own, first))
        assert rig.part.handle(snapshot) is True
        # Epoch 2 splits p0 itself: it waits for p0's own log, and epoch 3
        # is not applied over the gap.
        assert rig.routing.changes == [first] and rig.routing.epoch == 1
        assert rig.calls == ["pump"]
        rig.part.deliver(BeginSplit(change=own))
        rig.part.handle(snapshot)
        assert rig.routing.changes == [first, own, later]

    def test_a_merge_into_the_own_partition_is_not_learned_by_push(self):
        rig = make(partition="p1", node="q1")
        merge = plan_merge(rig.routing, absorbed="p2", into="p1")
        rig.part.handle(ConfigSnapshot(epoch=1, changes=(merge,)))
        assert rig.routing.epoch == 0

    def test_get_config_answers_with_the_missing_suffix(self):
        rig = make()
        change = plan_split(rig.routing, "p1", new_members=("n1",))
        rig.part.handle(ConfigSnapshot(epoch=1, changes=(change,)))
        rig.part.handle(GetConfig(reply_to="client", since_epoch=0))
        rig.part.handle(GetConfig(reply_to="client", since_epoch=1))
        assert [msg for dst, msg in rig.runtime.sent if dst == "client"] == [
            ConfigSnapshot(epoch=1, changes=(change,)),
            ConfigSnapshot(epoch=1, changes=()),
        ]


class TestWrongEpochWork:
    def test_premature_request_is_parked_until_its_epoch_is_learned(self):
        rig = make()
        request = CommitRequest(tid=tid(1), projections={"p0": proj(1, epoch=1)})
        assert rig.part.screen(request) is False
        assert not rig.runtime.sent and not rig.resubmitted
        change = plan_split(rig.routing, "p1", new_members=("n1",))
        rig.part.handle(ConfigSnapshot(epoch=1, changes=(change,)))
        assert rig.resubmitted == [request]
        assert rig.part.screen(request) is True
        rig.part.handle(ConfigSnapshot(epoch=1, changes=(change,)))
        assert rig.resubmitted == [request]  # replayed once

    def test_stale_request_gets_a_notice_carrying_the_missing_changes(self):
        rig = make()
        change = split_of_p0(rig.routing)
        rig.part.deliver(BeginSplit(change=change))
        stale = CommitRequest(tid=tid(1), projections={"p0": proj(1, epoch=0)})
        assert rig.part.screen(stale) is False
        assert sent(rig, StaleEpochNotice) == [
            ("client", StaleEpochNotice(tid=tid(1), partition="p0", epoch=1, changes=(change,)))
        ]
        # An untouched partition's old-epoch work still passes.
        other = CommitRequest(tid=tid(2), projections={"p1": proj(2, partition="p1", epoch=0)})
        assert rig.part.screen(other) is True

    def test_stale_at_delivery_counts_and_builds_the_notice(self):
        rig = make()
        assert rig.part.stale_at_delivery(proj(1, epoch=0)) is None
        change = split_of_p0(rig.routing)
        rig.part.deliver(BeginSplit(change=change))
        notice = rig.part.stale_at_delivery(proj(1, epoch=0))
        assert notice == StaleEpochNotice(tid=tid(1), partition="p0", epoch=1, changes=(change,))
        assert rig.part.stale_at_delivery(proj(2, epoch=1)) is None
        assert rig.stats.aborted_epoch == 1
        assert not sent(rig, StaleEpochNotice)  # who answers the client is the server's call


class TestCatchupTimer:
    def test_arms_only_while_the_stall_head_is_epoch_gated(self):
        rig = make()
        rig.part.stalled_on(proj(1, epoch=0))  # stalled for another reason
        rig.part.stalled_on(BeginSplit(change=split_of_p0(fresh_routing())))
        assert not rig.runtime.timers
        gated = proj(2, epoch=1)
        assert rig.part.must_wait(gated)
        rig.part.stalled_on(gated)
        rig.part.stalled_on(gated)
        ((due, _),) = rig.runtime.timers  # armed once
        assert due == CONFIG_CATCHUP_INTERVAL

    def test_pulls_and_rearms_until_the_epoch_is_learned(self):
        rig = make()
        gated = proj(2, epoch=1)
        rig.part.stalled_on(gated)
        rig.runtime.timers.pop()[1]()
        pulls = sent(rig, GetConfig)
        assert [dst for dst, _ in pulls] == ["q1", "q2", "r1"]  # everyone but our own
        assert all(msg == GetConfig(reply_to="s1", since_epoch=0) for _, msg in pulls)
        assert len(rig.runtime.timers) == 1  # re-armed: still gated
        change = plan_split(rig.routing, "p1", new_members=("n1",))
        rig.part.handle(ConfigSnapshot(epoch=1, changes=(change,)))
        assert not rig.part.must_wait(gated)
        rig.runtime.timers.pop()[1]()
        assert len(sent(rig, GetConfig)) == 3 and not rig.runtime.timers  # retired

    def test_a_new_gated_head_takes_over_the_armed_timer(self):
        rig = make()
        rig.part.stalled_on(proj(1, epoch=1))
        change = plan_split(rig.routing, "p1", new_members=("n1",))
        rig.part.handle(ConfigSnapshot(epoch=1, changes=(change,)))
        rig.part.stalled_on(proj(2, epoch=2))  # the pump found the next head gated too
        ((_, tick),) = rig.runtime.timers
        tick()
        pulls = sent(rig, GetConfig)  # the split child n1 is a peer by now
        assert [dst for dst, _ in pulls] == ["q1", "q2", "r1", "n1"]
        assert {msg.since_epoch for _, msg in pulls} == {1}


# ----------------------------------------------------------------------
# The seam itself
# ----------------------------------------------------------------------
SRC = Path(repro.__file__).parent
MIGRATION_INTERNALS = {"SplitSource", "moved_chains", "flatten_chains"}
PROTOCOL_VALUES = {"BeginSplit", "FinishSplit", "InstallMigration"}


def _uses(tree, names):
    """Names loaded outside import statements (docstrings do not count)."""
    return [
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in names
    ] + [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
    ]


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_server_holds_no_reconfiguration_rule():
    """``server.py`` names the protocol once — ``_ingest`` lets
    ``InstallMigration`` past its stall queue — and hands every value to
    ``reconfig.deliver``; the migration machinery it never mentions."""
    tree = ast.parse((SRC / "core" / "server.py").read_text())
    assert _uses(tree, MIGRATION_INTERNALS) == []
    assert _uses(tree, PROTOCOL_VALUES) == ["InstallMigration"]
    state = {"_migration", "_migration_pending", "_parked_reads", "_premature_requests"}
    assert _uses(tree, state) == []


def test_server_states_the_commit_path_once():
    """One delivery path (docs/PROTOCOL.md §18.2): ``server.py`` asks the
    certifier for a verdict at one call site and emits ``server.deliver``
    and ``server.certify`` from one site each."""
    tree = ast.parse((SRC / "core" / "server.py").read_text())
    # Every mention, not only calls: an alias (``certify = ...certify``)
    # is how a second loop would spell it.
    on_certifier = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "certify"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "certifier"
    ]
    assert len(on_certifier) == 1
    events = {"server.deliver", "server.certify"}
    literals = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in events
    ]
    assert sorted(literals) == sorted(events)


def test_participant_does_not_know_the_server():
    tree = ast.parse((SRC / "reconfig" / "participant.py").read_text())
    assert "repro.core.server" not in set(_imported_modules(tree))
    assert _uses(tree, {"SdurServer"}) == []
