"""Tier-2 soak: a replica's Paxos log and WAL stop growing with commits.

Skipped unless ``SOAK_SECONDS`` is set; CI's ``memory-soak`` job runs::

    SOAK_SECONDS=20 PYTHONPATH=src python -m pytest tests/soak -q

Two deployments under closed-loop local updates:

* an asyncio cluster (``build_aio_cluster``, 2 partitions x 3 replicas,
  file WALs) for ``SOAK_SECONDS`` wall seconds;
* a simulated LAN cluster of the same shape for 60 simulated seconds.

Each counts the live ``InstanceState`` and ``TxnProjection`` objects
and every gc-tracked object (the ``gc.get_objects()`` idiom of
``tests/integration/test_timer_plateau.py``) after a quarter of the run
and again at its end, while thousands of commits go by over seeded keys:

* the ``InstanceState`` and ``TxnProjection`` counts stay flat — a
  replica forgets what every member of its group has delivered
  (PROTOCOL.md §4);
* the tracked objects grow by under 0.1 per commit.  The version
  chains, the certification window and the dedup tables do grow with
  every commit, by design (``history_window`` 50 000), but as plain
  tuples of atoms, which the collector stops tracking (PROTOCOL.md §15).

The asyncio run also weighs what each file WAL holds and asserts it is
the offset index, 8 bytes a record, not the records.  RSS is not
asserted: the window and the chains are still unbounded (ROADMAP 1).

A third run, simulated, shrinks ``history_window`` so that both dedup
tables (``SdurServer._completed`` and ``VoteLedger._applied``, limit
``4 * history_window``) roll over many generations under 20 % globals:
each holds at most ``2 * limit`` entries, every one of a replica's last
``limit`` completions is still found with its outcome, and a resent
transaction among them is dropped at delivery by every replica rather
than certified again.  The default limit is 200 000 entries, which the
e2e benchmark's epochs never fill, so only this run exercises eviction.
"""

import asyncio
import gc
import os
import sys

import pytest

from repro.consensus.log import InstanceState
from repro.core.config import SdurConfig
from repro.core.transaction import TxnId, TxnProjection
from repro.harness.driver import ClosedLoopDriver
from repro.metrics.collector import MetricsCollector
from repro.storage.wal import WriteAheadLog
from repro.workload.microbench import MicroBenchmark
from tests.conftest import make_cluster, update_program
from tests.integration.test_asyncio_e2e import build_aio_cluster, execute

SOAK_SECONDS = float(os.environ.get("SOAK_SECONDS") or 0)
pytestmark = pytest.mark.skipif(
    not SOAK_SECONDS, reason="tier-2 soak: set SOAK_SECONDS to run it"
)

#: Live objects the counts may differ by between the two samples: what
#: is in flight at either instant, not what the commits in between left.
SLACK = 64

#: Tracked objects a commit may leave behind, on average between the
#: samples.  Before window entries, versions and dedup keys became
#: tuples of atoms this read 21 on the asyncio cluster and 15 on the
#: simulated one (about 7 a replica); after, under 0.01 on both.
TRACKED_PER_COMMIT = 0.1


def census() -> tuple[int, int, int]:
    """Live ``InstanceState`` and ``TxnProjection`` objects, and every
    object the collector tracks."""
    gc.collect()
    states = projections = 0
    tracked = gc.get_objects()
    for obj in tracked:
        kind = type(obj)
        states += kind is InstanceState
        projections += kind is TxnProjection
    return states, projections, len(tracked)


def assert_plateau(warm, end, commits) -> None:
    assert end[0] <= warm[0] + SLACK and end[1] <= warm[1] + SLACK, (warm, end, commits)
    per_commit = (end[2] - warm[2]) / commits
    assert per_commit < TRACKED_PER_COMMIT, (warm, end, commits, per_commit)


def wal_heap(wal: WriteAheadLog) -> int:
    """Bytes the log object holds: each attribute, and each item of a
    list attribute (where a copy of the records would sit)."""
    total = 0
    for value in vars(wal).values():
        total += sys.getsizeof(value)
        if isinstance(value, list):
            total += sum(map(sys.getsizeof, value))
    return total


def test_asyncio_cluster_plateaus(tmp_path):
    async def body():
        wals = {f"s{i}": WriteAheadLog(tmp_path / f"s{i}.wal") for i in range(1, 7)}
        world, client, servers = await build_aio_cluster(num_partitions=2, wals=wals)
        for server, _replica in servers:
            p = int(server.partition[1:])
            clients = range(p, 8, 2)  # closed loop j writes partition j % 2
            server.store.seed(
                {f"{p}/c{j}{v}{i}": 0 for j in clients for v in "xy" for i in range(50)}
            )
        commits = [0]
        running = [True]

        async def closed_loop(j):
            i = 0
            while running[0]:
                p = j % 2
                keys = [f"{p}/c{j}x{i % 50}", f"{p}/c{j}y{i % 50}"]
                # Await first: ``commits[0] += await ...`` reads the
                # counter before the await and loses the other loops' adds.
                result = await execute(client, update_program(keys))
                commits[0] += result.committed
                i += 1

        try:
            loops = [asyncio.create_task(closed_loop(j)) for j in range(8)]
            await asyncio.sleep(SOAK_SECONDS / 4)
            warm, warm_commits = census(), commits[0]
            await asyncio.sleep(SOAK_SECONDS * 3 / 4)
            end, end_commits = census(), commits[0]
            held = {name: (wal_heap(wal), len(wal)) for name, wal in wals.items()}
            running[0] = False
            await asyncio.gather(*loops)
        finally:
            await world.close_all()
            for wal in wals.values():
                wal.close()
        return warm, end, end_commits - warm_commits, held

    warm, end, commits, held = asyncio.run(body())
    assert commits > 50 * SOAK_SECONDS, commits
    assert_plateau(warm, end, commits)
    for name, (heap, records) in held.items():
        # The offset index (8 bytes a record, plus the array's headroom);
        # a copy of the payloads would be well over 100 bytes a record.
        assert records > 10 * SOAK_SECONDS and heap <= 16 * records + 1024, (name, heap, records)


def test_simulated_cluster_plateaus():
    cluster = make_cluster(2)
    cluster.seed({f"{p}/obj{i}": 0 for p in (0, 1) for i in range(2_000)})
    collector = MetricsCollector()
    drivers = [
        ClosedLoopDriver(
            cluster.add_client(), MicroBenchmark(2, home, 0.0, items_per_partition=2_000), collector
        )
        for home in (0, 1)
        for _ in range(2)
    ]
    cluster.start()
    for driver in drivers:
        driver.start()
    cluster.world.run(until=15.0)
    # The collector keeps a result per transaction: empty it before each
    # sample, so the samples count what the cluster keeps.
    collector.results.clear()
    warm = census()
    cluster.world.run(until=60.0)
    commits = sum(result.committed for result in collector.results)
    collector.results.clear()
    end = census()
    assert commits > 5_000
    assert_plateau(warm, end, commits)


def test_dedup_tables_roll_over_and_still_answer():
    cluster = make_cluster(2, config=SdurConfig(history_window=25))
    cluster.seed({f"{p}/obj{i}": 0 for p in (0, 1) for i in range(2_000)})
    completions: dict[str, list[tuple[TxnId, str]]] = {}
    for node_id, handle in cluster.servers.items():
        record = handle.server._record_completed
        log = completions[node_id] = []

        def logged(tid, outcome, record=record, log=log):
            log.append((tid, outcome.value))
            record(tid, outcome)

        handle.server._record_completed = logged
    collector = MetricsCollector()
    drivers = [
        ClosedLoopDriver(
            cluster.add_client(), MicroBenchmark(2, home, 0.2, items_per_partition=2_000), collector
        )
        for home in (0, 1)
        for _ in range(2)
    ]
    cluster.start()
    for driver in drivers:
        driver.start()
    cluster.world.run(until=20.0)
    for driver in drivers:
        driver.stop()
    cluster.world.run(until=22.0)

    for node_id, handle in cluster.servers.items():
        server, ledger = handle.server, handle.server.ledger
        limit = server._completed_limit
        assert ledger.limit == limit == 100
        assert len(completions[node_id]) > 10 * limit  # many generations
        assert ledger.stats.votes_ordered > 4 * limit
        completed = sum(
            len(row) for table in (server._completed, server._completed_old) for row in table.values()
        )
        applied = sum(
            len(seqs)
            for table in (ledger._applied, ledger._applied_old)
            for rows in table.values()
            for seqs in rows.values()
        )
        assert completed <= 2 * limit and applied <= 2 * limit, (node_id, completed, applied)
        for tid, outcome in completions[node_id][-limit:]:
            assert server._completed_outcome(tid) == outcome, (node_id, tid)

    # Resend the oldest of the last ``limit`` completions of a partition's
    # leader: every replica drops it as a duplicate.
    leader = cluster.servers["s1"].server
    (tid, outcome), partition = completions["s1"][-leader._completed_limit], leader.partition
    replicas = [h.server for h in cluster.servers.values() if h.partition == partition]
    before = [(r.stats.committed_local, r.stats.committed_global, r.stats.aborted) for r in replicas]
    delivered = [r.dc for r in replicas]
    leader.fabric.abcast(
        partition,
        TxnProjection(
            tid=tid, partition=partition, writeset={f"{partition[1:]}/obj0": -1},
            snapshot=leader.sc, partitions=(partition,), coordinator="s1",
        ),
    )
    cluster.world.run(until=24.0)
    assert [r.dc for r in replicas] == [dc + 1 for dc in delivered]  # it arrived, once
    assert [
        (r.stats.committed_local, r.stats.committed_global, r.stats.aborted) for r in replicas
    ] == before
    assert all(r._completed_outcome(tid) == outcome for r in replicas)
