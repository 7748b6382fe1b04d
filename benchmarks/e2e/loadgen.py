"""Workloads and the load generators that drive them.

The generators run as callbacks and one sender coroutine on the rig's
event loop: they add no threads.  Everything random comes from
``random.Random`` streams derived from ``--seed``, so the same seed
issues the same transactions in the same per-client order; the system
under test only ever sees the generated transactions.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections.abc import Awaitable, Callable, Iterator
from dataclasses import dataclass

from repro.core.client import TxnResult
from repro.workload.distributions import UniformSampler
from repro.workload.microbench import MicroBenchmark

from rig import ITEMS_PER_PARTITION, NUM_PARTITIONS, ClientNode, Rig


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    global_fraction: float = 0.0
    read_only_fraction: float = 0.0
    #: Poisson arrival rate in txn per calibrated second; ``None`` =
    #: closed loop, one transaction in flight per client.
    open_rate: float | None = None


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "local_closed",
            "8 closed-loop clients, 100% local two-key updates: one abcast per commit, so "
            "codec, TCP, Paxos phase 2, WAL and delivery do all the work; votes and gossip idle",
        ),
        WorkloadSpec(
            "mix20_closed",
            "same clients, 20% global updates: adds cross-partition abcast, vote-ledger "
            "instances and non-empty CommitGossip, which local_closed never exercises",
            global_fraction=0.2,
        ),
        WorkloadSpec(
            "ro80_closed",
            "same clients, 80% read-only: snapshot vector + mvstore reads instead of "
            "Paxos/WAL/apply, so a write-path gain that taxes reads (or the reverse) shows",
            read_only_fraction=0.8,
        ),
        WorkloadSpec(
            "local_open100",
            "open loop, Poisson 100 txn per calibrated second of local updates, timed from "
            "due time: loop stalls (GC, gossip bursts) show as latency, not tps; "
            "tails past p75 do not repeat here and are diagnostics",
            open_rate=100.0,
        ),
    )
}


@dataclass(frozen=True, slots=True)
class TxnRecord:
    """One finished transaction, on the benchmark's own clock."""

    tid: object
    kind: str  # "local" | "global" | "ro"
    due: float
    issued: float
    finished: float
    committed: bool
    abort_reason: str | None

    @property
    def latency(self) -> float:
        return self.finished - self.due

    @property
    def failed(self) -> bool:
        """Timed out, shed or errored; a certification abort is an outcome."""
        return not self.committed and self.abort_reason is not None


def poisson_gaps(rng: random.Random, rate: float) -> Iterator[float]:
    while True:
        yield rng.expovariate(rate)


class LoadGen:
    """Issues one workload's transactions and records their outcomes."""

    def __init__(
        self,
        rig: Rig,
        spec: WorkloadSpec,
        seed: int,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
        on_result: Callable[[TxnResult], None] | None = None,
        pace: Callable[[], float] = lambda: 1.0,
    ) -> None:
        self.rig = rig
        self.spec = spec
        #: Injected by the self-tests (stub clock, stalling sleep).
        self.clock = clock
        self.sleep = sleep
        self.on_result = on_result
        #: Wall seconds per calibrated second, right now (open loop only:
        #: ``open_rate`` is per calibrated second, so that a slowed-down
        #: machine is offered the same share of what it can do).
        self.pace = pace
        self.records: list[TxnRecord] = []
        self.in_flight = 0
        self.issued = 0
        #: Open loop only: how late each transaction left the generator.
        self.sender_lateness: list[float] = []
        self._stopped = False
        self._idle: asyncio.Event | None = None
        self._rngs = {
            node.name: random.Random(f"{seed}/{spec.name}/{node.name}") for node in rig.clients
        }
        self._arrivals = random.Random(f"{seed}/{spec.name}/arrivals")
        self._workloads = {
            node.name: MicroBenchmark(
                NUM_PARTITIONS,
                node.home,
                spec.global_fraction,
                ITEMS_PER_PARTITION,
                UniformSampler(ITEMS_PER_PARTITION),
                spec.read_only_fraction,
            )
            for node in rig.clients
        }

    # ------------------------------------------------------------------
    def issue(self, node: ClientNode, due: float | None = None) -> None:
        """Start ``node``'s next transaction, timed from ``due`` (default: now)."""
        txn = self._workloads[node.name].next_txn(self._rngs[node.name])
        kind = "ro" if txn.read_only else txn.label  # "local" | "global"
        issued = self.clock()
        if due is None:
            due = issued
        self.in_flight += 1
        self.issued += 1
        node.client.execute(
            txn.program,
            lambda result: self._done(node, kind, due, issued, result),
            read_only=txn.read_only,
            label=txn.label,
        )

    def _done(
        self, node: ClientNode, kind: str, due: float, issued: float, result: TxnResult
    ) -> None:
        self.records.append(
            TxnRecord(
                result.tid, kind, due, issued, self.clock(), result.committed, result.abort_reason
            )
        )
        self.in_flight -= 1
        if self.on_result is not None:
            self.on_result(result)
        if self._stopped:
            if self.in_flight == 0 and self._idle is not None:
                self._idle.set()
        elif self.spec.open_rate is None:
            self.issue(node)

    # ------------------------------------------------------------------
    async def run(self, duration_s: float) -> None:
        """Generate load for ``duration_s``, then stop issuing."""
        end = self.clock() + duration_s
        if self.spec.open_rate is None:
            for node in self.rig.clients:
                self.issue(node)
            await self.sleep(duration_s)
        else:
            await self._send_open(end)
        self._stopped = True

    async def _send_open(self, end: float) -> None:
        clients = self.rig.clients
        dealt = 0
        due = self.clock()
        for gap in poisson_gaps(self._arrivals, self.spec.open_rate):
            due += gap * self.pace()
            if due >= end:
                break
            wait = due - self.clock()
            if wait > 0:
                await self.sleep(wait)
            # A stalled sender wakes late and works through its backlog;
            # each transaction keeps its own due time, so the stall is
            # charged to the transactions it delayed.
            self.sender_lateness.append(self.clock() - due)
            self.issue(clients[dealt % len(clients)], due)
            dealt += 1
        remaining = end - self.clock()
        if remaining > 0:
            await self.sleep(remaining)

    async def drain(self, timeout_s: float) -> int:
        """Wait for in-flight transactions; returns how many never finished."""
        self._stopped = True
        if self.in_flight:
            self._idle = asyncio.Event()
            try:
                await asyncio.wait_for(self._idle.wait(), timeout_s)
            except asyncio.TimeoutError:
                pass
        return self.in_flight
