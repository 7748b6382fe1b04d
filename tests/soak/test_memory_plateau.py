"""Tier-2 soak: a replica's Paxos log and WAL stop growing with commits.

Skipped unless ``SOAK_SECONDS`` is set; CI's ``memory-soak`` job runs::

    SOAK_SECONDS=20 PYTHONPATH=src python -m pytest tests/soak -q

Two deployments under closed-loop local updates:

* an asyncio cluster (``build_aio_cluster``, 2 partitions x 3 replicas,
  file WALs) for ``SOAK_SECONDS`` wall seconds;
* a simulated LAN cluster of the same shape for 60 simulated seconds.

Each counts the live ``InstanceState`` and ``TxnProjection`` objects
(the ``gc.get_objects()`` idiom of ``tests/integration/test_timer_plateau.py``)
after a quarter of the run and again at its end, and asserts the counts
flat while thousands of commits went by: a replica forgets what every
member of its group has delivered (PROTOCOL.md §4).  The asyncio run
also weighs what each file WAL holds and asserts it is the offset index,
8 bytes a record, not the records.  RSS is not asserted: the
certification window and the version chains still grow by design
(ROADMAP 1).
"""

import asyncio
import gc
import os
import sys

import pytest

from repro.consensus.log import InstanceState
from repro.core.transaction import TxnProjection
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


def census() -> tuple[int, int]:
    """Live ``InstanceState`` and ``TxnProjection`` objects."""
    gc.collect()
    states = projections = 0
    for obj in gc.get_objects():
        kind = type(obj)
        states += kind is InstanceState
        projections += kind is TxnProjection
    return states, projections


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
        world, client, _ = await build_aio_cluster(num_partitions=2, wals=wals)
        commits = [0]
        running = [True]

        async def closed_loop(j):
            i = 0
            while running[0]:
                p = j % 2
                keys = [f"{p}/c{j}x{i % 50}", f"{p}/c{j}y{i % 50}"]
                commits[0] += (await execute(client, update_program(keys))).committed
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
    assert end[0] <= warm[0] + SLACK and end[1] <= warm[1] + SLACK, (warm, end, commits)
    for name, (heap, records) in held.items():
        # The offset index (8 bytes a record, plus the array's headroom);
        # a copy of the payloads would be well over 100 bytes a record.
        assert records > 10 * SOAK_SECONDS and heap <= 16 * records + 1024, (name, heap, records)


def test_simulated_cluster_plateaus():
    cluster = make_cluster(2)
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
    warm, warm_results = census(), len(collector.results)
    cluster.world.run(until=60.0)
    end, end_results = census(), len(collector.results)
    assert end_results - warm_results > 5_000
    assert end[0] <= warm[0] + SLACK and end[1] <= warm[1] + SLACK, (warm, end)
