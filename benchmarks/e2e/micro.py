"""One microbenchmark per layer, each tied to the traced row it explains.

Input-independent (fixed synthetic messages, fixed seeds), so measured
once: reported as the ``micro.*`` per-layer metrics of ``local_closed``'s
traced run, with a small time budget per item; run on its own for longer,
steadier numbers::

    python3 benchmarks/e2e/micro.py

===============================  =====================================
metric                           explains
===============================  =====================================
``micro.codec_*``                ``codec.encode/decode_ms_per_commit``
``micro.wal_append*_us``         ``wal.append_ms_per_commit``
``micro.paxos_instances_per_s``  ``paxos.handle_self_ms_per_commit``
``micro.mvstore_*_us``           ``mvstore.read_ms_per_ro``, apply share
``micro.transport_msgs_per_s``   ``transport.*``, ``loop.other``
``micro.server_adeliver_us``     ``server.adeliver_self_ms_per_commit``
``micro.sim_events_per_s``       the simulator that bounds tier-1's run
===============================  =====================================
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _path in (HERE.parents[1] / "src", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import asyncio  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import deque  # noqa: E402
from collections.abc import Callable  # noqa: E402
from typing import Any  # noqa: E402

from repro.consensus.messages import Accept  # noqa: E402
from repro.consensus.replica import PaxosConfig, PaxosReplica  # noqa: E402
from repro.core.config import SdurConfig  # noqa: E402
from repro.core.directory import ClusterDirectory  # noqa: E402
from repro.core.messages import CommitGossip, ReadResponse, Vote  # noqa: E402
from repro.core.partitioning import PartitionMap  # noqa: E402
from repro.core.server import SdurServer  # noqa: E402
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection  # noqa: E402
from repro.net.asyncio_transport import AioTransport, Envelope  # noqa: E402
from repro.net.codec import get_codec  # noqa: E402
from repro.runtime.base import Runtime  # noqa: E402
from repro.sim.kernel import Kernel  # noqa: E402
from repro.storage.mvstore import MultiVersionStore  # noqa: E402
from repro.storage.wal import WriteAheadLog  # noqa: E402

from rig import free_ports, quiet_teardown  # noqa: E402

#: Seconds per measured item inside the traced benchmark run (the whole
#: set stays under ~4 s) and when run on its own (~20 s).
QUICK_BUDGET_S = 0.1
FULL_BUDGET_S = 0.7


def _projection(seq: int, snapshot: int = 0) -> TxnProjection:
    keys = [f"0/obj{(seq * 7919) % 10_000}", f"0/obj{(seq * 104_729 + 1) % 10_000}"]
    return TxnProjection(
        tid=TxnId("c0~0badcafe", seq),
        partition="p0",
        readset=ReadsetDigest.exact(keys),
        writeset={key: seq for key in keys},
        snapshot=snapshot,
        partitions=("p0",),
        coordinator="s1",
        client="c0",
    )


def sample_messages() -> dict[str, Any]:
    """One message of each type that dominates a layer's traffic, shaped
    like the ones a real run sends (a full 256-entry gossip history)."""
    tid = TxnId("c0~0badcafe", 4242)
    return {
        "Accept": Accept(group="p0", ballot=(1, 0), instance=4242, value=_projection(4242, 4200)),
        "ReadResponse": ReadResponse(
            tid=tid, op_id=1, key="0/obj17", value=12, snapshot=4200, item_version=4100,
            partition="p0",
        ),
        "Vote": Vote(tid=tid, partition="p1", vote="commit"),
        "CommitGossip": CommitGossip(
            partition="p0",
            sc=5000,
            globals_committed=tuple(
                (TxnId(f"c{i % 8}~0badcafe", 1000 + i), 4000 + 3 * i, ("p0", "p1"))
                for i in range(256)
            ),
            complete_from=3990,
        ),
    }


def _per_call_us(fn: Callable[[], Any], budget_s: float) -> float:
    """Mean microseconds per call of ``fn`` over about ``budget_s``."""
    fn()  # warm
    calls = 0
    started = time.perf_counter()
    deadline = started + budget_s
    while True:
        fn()
        calls += 1
        now = time.perf_counter()
        if now >= deadline:
            return (now - started) * 1e6 / calls


def bench_codecs(budget_s: float) -> dict[str, float]:
    out = {}
    for codec in ("json", "packed"):
        encode, decode = get_codec(codec)
        for name, msg in sample_messages().items():
            envelope = Envelope(src="s1", payload=msg)
            frame = encode(envelope)
            if decode(frame) != envelope:
                raise AssertionError(f"{codec} codec does not round-trip {name}")
            out[f"micro.codec_{codec}_encode_us.{name}"] = _per_call_us(
                lambda: encode(envelope), budget_s
            )
            out[f"micro.codec_{codec}_decode_us.{name}"] = _per_call_us(
                lambda: decode(frame), budget_s
            )
    return out


def bench_wal(budget_s: float, work: Path) -> dict[str, float]:
    record = bytes(350)  # an instance number + one JSON-encoded projection
    out = {}
    for metric, fsync in (("micro.wal_append_us", False), ("micro.wal_append_fsync_us", True)):
        with WriteAheadLog(work / f"micro-{int(fsync)}.wal", fsync=fsync) as wal:
            out[metric] = _per_call_us(lambda: wal.append(record), budget_s)
    return out


class LoopbackRuntime(Runtime):
    """In-memory runtime: messages go through one shared FIFO by
    reference (no codec, no sockets) and timers never fire."""

    def __init__(self, node_id: str, queue: deque) -> None:
        self.node_id = node_id
        self._queue = queue
        self.handler: Callable[[str, Any], None] | None = None

    def now(self) -> float:
        return 0.0

    def send(self, dst: str, msg: Any) -> None:
        self._queue.append((dst, self.node_id, msg))

    def set_timer(self, delay: float, callback: Callable[[], None]):
        return _NEVER

    def listen(self, handler: Callable[[str, Any], None]) -> None:
        self.handler = handler

    def rng(self, name: str) -> random.Random:
        return random.Random(f"{self.node_id}.{name}")

    def execute(self, cost: float, fn: Callable[[], None]) -> None:
        fn()

    def latency_estimate(self, dst: str) -> float:
        return 0.0


class _NeverFires:
    def cancel(self) -> None:
        return None


_NEVER = _NeverFires()


def bench_paxos(budget_s: float) -> dict[str, float]:
    members = ["s1", "s2", "s3"]
    queue: deque = deque()
    delivered = [0]
    replicas = {}
    for name in members:
        runtime = LoopbackRuntime(name, queue)
        replica = PaxosReplica(
            runtime, "p0", members, PaxosConfig(static_leader="s1"),
            on_deliver=lambda instance, value: delivered.__setitem__(0, delivered[0] + 1),
        )
        runtime.listen(replica.handle)
        replicas[name] = replica
    for replica in replicas.values():
        replica.start()

    def pump() -> None:
        while queue:
            dst, src, msg = queue.popleft()
            replicas[dst].handle(src, msg)

    pump()  # Phase 1
    value = _projection(1)
    proposed = 0
    started = time.perf_counter()
    deadline = started + budget_s
    while time.perf_counter() < deadline:
        replicas["s1"].propose(value)
        proposed += 1
        pump()
    elapsed = time.perf_counter() - started
    if delivered[0] != 3 * proposed:
        raise AssertionError(f"paxos micro: {delivered[0]} deliveries for {proposed} proposals")
    return {"micro.paxos_instances_per_s": proposed / elapsed}


def bench_mvstore(budget_s: float) -> dict[str, float]:
    store = MultiVersionStore()
    keys = [f"0/obj{i}" for i in range(10_000)]
    store.seed({key: 0 for key in keys})
    rng = random.Random(7)
    version = 0
    for _ in range(20_000):  # chains of ~5 versions, as after a run
        version += 1
        store.apply({rng.choice(keys): version, rng.choice(keys): version}, version)
    picks = [(rng.choice(keys), rng.randrange(version)) for _ in range(1024)]
    state = [0, version]

    def read() -> None:
        key, snapshot = picks[state[0] & 1023]
        state[0] += 1
        store.read(key, snapshot)

    def apply() -> None:
        state[1] += 1
        key_a, _ = picks[state[1] & 1023]
        key_b, _ = picks[(state[1] + 511) & 1023]
        store.apply({key_a: state[1], key_b: state[1]}, state[1])

    return {
        "micro.mvstore_read_us": _per_call_us(read, budget_s),
        "micro.mvstore_apply_us": _per_call_us(apply, budget_s),
    }


def bench_transport(budget_s: float) -> dict[str, float]:
    async def body() -> float:
        quiet_teardown(asyncio.get_running_loop())
        ports = free_ports(2)
        directory = {"a": ("127.0.0.1", ports[0]), "b": ("127.0.0.1", ports[1])}
        received = [0]
        target = [0]
        done = asyncio.Event()

        def on_message(src: str, msg: Any) -> None:
            received[0] += 1
            if received[0] == target[0]:
                done.set()

        sender = AioTransport("a", directory, lambda src, msg: None)
        receiver = AioTransport("b", directory, on_message)
        await sender.start()
        await receiver.start()
        msg = sample_messages()["Vote"]
        try:
            sent = 0
            started = time.perf_counter()
            deadline = started + budget_s
            while time.perf_counter() < deadline:
                # 64 in flight at a time, as independent send tasks: the
                # shape ``AioNodeRuntime.send`` gives the transport.
                target[0] = sent + 64
                done.clear()
                tasks = [asyncio.ensure_future(sender.send("b", msg)) for _ in range(64)]
                await asyncio.gather(*tasks)
                await done.wait()
                sent += 64
            return sent / (time.perf_counter() - started)
        finally:
            await sender.close()
            await receiver.close()

    return {"micro.transport_msgs_per_s": asyncio.run(body())}


def bench_sim_kernel(budget_s: float) -> dict[str, float]:
    kernel = Kernel()
    rng = random.Random(11)
    batch = 2_000
    executed = 0
    started = time.perf_counter()
    deadline = started + budget_s
    while time.perf_counter() < deadline:
        for _ in range(batch):
            kernel.schedule(rng.random(), _noop)
        kernel.run()
        executed += batch
    return {"micro.sim_events_per_s": executed / (time.perf_counter() - started)}


def _noop() -> None:
    return None


class _DropFabric:
    def abcast(self, group: str, value: Any) -> None:
        return None


def bench_adeliver(budget_s: float) -> dict[str, float]:
    """One ``SdurServer`` fed local projections straight through
    ``on_adeliver`` — ``bench_batch.py``'s unbatched cell, on the e2e
    workload's transaction shape."""
    queue: deque = deque()
    server = SdurServer(
        runtime=LoopbackRuntime("s1", queue),
        partition="p0",
        directory=ClusterDirectory(partitions={"p0": ["s1"]}, preferred={"p0": "s1"}),
        partition_map=PartitionMap.by_index(1),
        fabric=_DropFabric(),
        config=SdurConfig(gossip_interval=None, vote_timeout=None),
        initial_data={f"0/obj{i}": 0 for i in range(10_000)},
    )
    state = [0]

    def deliver() -> None:
        state[0] += 1
        server.on_adeliver(state[0], _projection(state[0], snapshot=server.sc))
        queue.clear()  # the outcome notice

    per_call = _per_call_us(deliver, budget_s)
    if server.stats.committed_local != state[0]:
        raise AssertionError("adeliver micro: not every delivery committed")
    return {"micro.server_adeliver_us": per_call}


def run_all(budget_s: float = QUICK_BUDGET_S, work: Path | None = None) -> dict[str, float]:
    """Every ``micro.*`` metric; ``work`` is a scratch directory inside the
    checkout for the WAL files."""
    own_work = work is None
    if own_work:
        (HERE / "out").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="micro-", dir=HERE / "out"))
    try:
        out = bench_codecs(budget_s)
        out.update(bench_wal(budget_s, work))
        out.update(bench_paxos(budget_s * 2))
        out.update(bench_mvstore(budget_s))
        out.update(bench_transport(budget_s * 3))
        out.update(bench_sim_kernel(budget_s * 2))
        out.update(bench_adeliver(budget_s * 2))
    finally:
        if own_work:
            shutil.rmtree(work, ignore_errors=True)
    return out


if __name__ == "__main__":
    for metric, value in run_all(FULL_BUDGET_S).items():
        unit = "1/s" if metric.endswith("_per_s") else "us"
        print(f"{metric:48s} {value:14.3f} {unit}")
