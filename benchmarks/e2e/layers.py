"""Per-layer instrumentation, installed from outside the program.

``install`` wraps the public calls into each layer on the objects the rig
built (instance attributes, so no file under ``src/`` changes) and
``layer_metrics`` turns what the wrappers recorded into the per-layer
metrics of BENCHMARK.json.  Layers are this repo's modules:

=====================  ================================================
span layer             boundary wrapped
=====================  ================================================
``codec.encode/decode``  the transport's encode/decode callables
``runtime.send``         ``AioNodeRuntime.send`` (task creation)
``transport.send``       ``AioTransport.send`` coroutine, step by step
``paxos.handle``         ``PaxosReplica.handle``
``paxos.propose``        ``PaxosReplica.propose``
``wal.append``           ``WriteAheadLog.append``
``server.adeliver``      the replica's ``on_deliver`` callback
``server.handle``        ``SdurServer.handle``
``mvstore.read``         ``MultiVersionStore.read``
``client.execute``       ``SdurClient.execute``
``client.handle``        ``SdurClient.handle``
``timer``                callbacks armed through ``Runtime.set_timer``
``bench.loadgen``        the generator's own issue/done callbacks
``bench.calib``          the calibrator's slices of reference work
``gc``                   collector pauses (``gc.callbacks``)
=====================  ================================================
"""

from __future__ import annotations

import gc
from collections.abc import Callable
from typing import Any

from repro.core.messages import CommitRequest
from repro.core.transaction import TxnProjection

from loadgen import LoadGen, TxnRecord
from rig import Rig
from spans import TimedCoroutine, Tracer, percentile

VOTE_RECORD_KINDS = {"VoteRecord", "VoteRecordGroup"}
GOSSIP = {"CommitGossip"}


def _type_name(obj: Any) -> str:
    return type(obj).__name__


def _msg_tid(msg: Any) -> Any:
    """The transaction a message serves: its own ``tid`` or that of the
    value a Paxos message carries."""
    tid = getattr(msg, "tid", None)
    return tid if tid is not None else getattr(getattr(msg, "value", None), "tid", None)


def install(rig: Rig, loadgen: LoadGen, tracer: Tracer) -> None:
    """Wrap every layer boundary of the rig and the generator."""
    for node in rig.servers:
        _wrap_runtime(node.runtime, tracer)
        replica, server = node.replica, node.server
        proposed_at: dict[Any, float] = {}
        replica.handle = _wrap_handle(replica.handle, "paxos.handle", tracer)
        replica.propose = _wrap_propose(replica.propose, proposed_at, tracer)
        replica.on_deliver = _wrap_deliver(replica.on_deliver, node.name, proposed_at, tracer)
        node.wal.append = _wrap_wal_append(node.wal.append, tracer)
        server.handle = _wrap_server_handle(server.handle, tracer)
        server.store.read = tracer.wrap(server.store.read, "mvstore.read")
    for node in rig.clients:
        _wrap_runtime(node.runtime, tracer)
        client = node.client
        client.handle = _wrap_handle(client.handle, "client.handle", tracer)
        client.execute = tracer.wrap(client.execute, "client.execute")
    loadgen.issue = tracer.wrap(loadgen.issue, "bench.loadgen", lambda *a: "issue")
    loadgen._done = tracer.wrap(loadgen._done, "bench.loadgen", lambda *a: "done")


def time_gc(tracer: Tracer) -> Callable[[], None]:
    """Record collector pauses as ``gc`` spans (process-wide, so installed
    once per run, not per rig); returns the undo function."""

    def on_gc(phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            tracer.push("gc", f"gen{info['generation']}")
        else:
            pause = tracer.pop()
            if tracer.enabled:
                tracer.samples["gc.pause_s"].append(pause)

    gc.callbacks.append(on_gc)
    return lambda: gc.callbacks.remove(on_gc)


def _wrap_runtime(runtime: Any, tracer: Tracer) -> None:
    transport = runtime._transport
    encode, decode, send_coro = transport._encode, transport._decode, transport.send
    runtime_send, set_timer = runtime.send, runtime.set_timer

    def traced_encode(envelope: Any) -> bytes:
        kind = _type_name(envelope.payload)
        tracer.push("codec.encode", kind)
        try:
            data = encode(envelope)
        finally:
            tracer.pop()
        if tracer.enabled:
            tracer.counters["codec.bytes"] += len(data)
            if kind == "CommitGossip":
                tracer.counters["gossip.bytes"] += len(data)
            tracer.samples["codec.msg_bytes"].append(len(data))
        return data

    def traced_decode(frame: bytes) -> Any:
        tracer.push("codec.decode")
        kind = ""
        try:
            envelope = decode(frame)
            kind = _type_name(envelope.payload)
            return envelope
        finally:
            tracer.pop(kind)

    def send_task_done(elapsed_s: float) -> None:
        if tracer.enabled:
            tracer.samples["transport.send_task_s"].append(elapsed_s)

    def traced_transport_send(dst: str, msg: Any) -> TimedCoroutine:
        return TimedCoroutine(
            send_coro(dst, msg), tracer, "transport.send", _type_name(msg), send_task_done
        )

    def traced_runtime_send(dst: str, msg: Any) -> None:
        kind = _type_name(msg)
        if kind == "CommitRequest":
            tracer.stamp(msg.tid, "commit_sent")
        elif kind == "OutcomeNotice":
            tracer.stamp(msg.tid, "reply_sent")
        tracer.push("runtime.send", kind)
        try:
            runtime_send(dst, msg)
        finally:
            tracer.pop()

    def traced_set_timer(delay: float, callback: Callable[[], None]) -> Any:
        owner = getattr(callback, "__qualname__", "timer").split(".", 1)[0]
        name = getattr(callback, "__name__", "")
        kind = "gossip" if name == "_gossip_tick" else owner
        return set_timer(delay, tracer.wrap(callback, "timer", lambda: kind))

    transport._encode = traced_encode
    transport._decode = traced_decode
    transport.send = traced_transport_send
    runtime.send = traced_runtime_send
    runtime.set_timer = traced_set_timer


def _wrap_propose(propose: Callable[[Any], None], proposed_at: dict[Any, float], tracer: Tracer):
    def traced(value: Any) -> None:
        if tracer.enabled and isinstance(value, TxnProjection):
            proposed_at.setdefault(value.tid, tracer.clock())
        tracer.push("paxos.propose", _type_name(value))
        try:
            propose(value)
        finally:
            tracer.pop()

    return traced


def _wrap_deliver(
    on_deliver: Callable[[int, Any], None],
    node: str,
    proposed_at: dict[Any, float],
    tracer: Tracer,
):
    def traced(instance: int, value: Any) -> None:
        kind = _type_name(value)
        if isinstance(value, TxnProjection):
            if value.coordinator == node:
                tracer.stamp(value.tid, "delivered")
            proposed = proposed_at.pop(value.tid, None)
            if proposed is not None and tracer.enabled:
                tracer.samples["paxos.propose_to_deliver_s"].append(tracer.clock() - proposed)
        tracer.push("server.adeliver", kind, getattr(value, "tid", None))
        try:
            on_deliver(instance, value)
        finally:
            tracer.pop()

    return traced


def _wrap_wal_append(append: Callable[[bytes], int], tracer: Tracer):
    def traced(record: bytes) -> int:
        tracer.push("wal.append")
        try:
            return append(record)
        finally:
            tracer.pop()
            if tracer.enabled:
                tracer.counters["wal.bytes"] += len(record)

    return traced


def _wrap_handle(handle: Callable[[str, Any], Any], layer: str, tracer: Tracer):
    def traced(src: str, msg: Any) -> Any:
        tracer.push(layer, _type_name(msg), _msg_tid(msg))
        try:
            return handle(src, msg)
        finally:
            tracer.pop()

    return traced


def _wrap_server_handle(handle: Callable[[str, Any], bool], tracer: Tracer):
    def traced(src: str, msg: Any) -> bool:
        if isinstance(msg, CommitRequest):
            tracer.stamp(msg.tid, "submit_arrived")
        tracer.push("server.handle", _type_name(msg), getattr(msg, "tid", None))
        try:
            return handle(src, msg)
        finally:
            tracer.pop()

    return traced


# ----------------------------------------------------------------------
# From recordings to metrics
# ----------------------------------------------------------------------
STAGES = ("read", "submit", "order", "terminate", "reply")


def stage_breakdown(record: TxnRecord, stamps: dict[str, float]) -> dict[str, float] | None:
    """Split one committed update's latency at the client and session-server
    boundaries.  Every node shares the process clock, so the five stages
    telescope: they sum to ``record.latency`` exactly."""
    try:
        marks = (
            record.due,
            stamps["commit_sent"],
            stamps["submit_arrived"],
            stamps["delivered"],
            stamps["reply_sent"],
            record.finished,
        )
    except KeyError:
        return None
    return {stage: marks[i + 1] - marks[i] for i, stage in enumerate(STAGES)}


def server_counters(rig: Rig) -> dict[str, int]:
    """Sum of every server's ``wire_counters()`` plus log positions."""
    total: dict[str, int] = {}
    for node in rig.servers:
        for key, value in node.server.registry.wire_counters().items():
            total[key] = total.get(key, 0) + value
        if node.replica.is_leader:
            total["paxos_instances"] = (
                total.get("paxos_instances", 0) + node.replica.log.next_to_deliver
            )
    for node in rig.clients:
        stats = node.client.stats
        total["client_retries"] = (
            total.get("client_retries", 0) + stats.commit_resends + stats.busy_replies
        )
    return total


def layer_metrics(
    tracer: Tracer,
    window: list[TxnRecord],
    by_tid: dict[Any, TxnRecord],
    counters: dict[str, int],
    window_s: float,
    cpu_s: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced window.

    ``counters`` is the delta of :func:`server_counters` over the window;
    ``by_tid`` maps transaction id to its record for the stage budget.
    """
    committed = [r for r in window if r.committed]
    commits = max(1, len(committed))
    globals_ = max(1, sum(1 for r in committed if r.kind == "global"))
    ros = max(1, sum(1 for r in committed if r.kind == "ro"))

    def ms_per_commit(seconds: float) -> float:
        return seconds * 1e3 / commits

    self_s = tracer.self_seconds
    gossip_s = (
        self_s("codec.encode", GOSSIP)
        + self_s("codec.decode", GOSSIP)
        + self_s("server.handle", GOSSIP)
        + self_s("transport.send", GOSSIP)
        + self_s("runtime.send", GOSSIP)
        + self_s("timer", {"gossip"})
    )
    termination_s = (
        self_s("server.adeliver", VOTE_RECORD_KINDS)
        + self_s("server.handle", {"Vote"})
        + self_s("paxos.propose", VOTE_RECORD_KINDS)
    )
    traced_s = tracer.total_self_seconds()
    gossip_msgs = tracer.span_count("codec.encode", GOSSIP)
    encodes = tracer.span_count("codec.encode")
    instances = max(1, counters.get("paxos_instances", 0))
    pauses = tracer.samples["gc.pause_s"]

    out = {
        "codec.encode_ms_per_commit": ms_per_commit(self_s("codec.encode")),
        "codec.decode_ms_per_commit": ms_per_commit(self_s("codec.decode")),
        "codec.msgs_per_commit": encodes / commits,
        "codec.bytes_per_commit": tracer.counters["codec.bytes"] / commits,
        "codec.bytes_per_msg_p99": percentile(tracer.samples["codec.msg_bytes"], 0.99),
        "transport.send_self_ms_per_commit": ms_per_commit(
            self_s("transport.send") + self_s("runtime.send")
        ),
        "transport.send_task_ms_p50": percentile(tracer.samples["transport.send_task_s"], 0.5) * 1e3,
        "transport.sends_per_commit": tracer.span_count("runtime.send") / commits,
        "paxos.handle_self_ms_per_commit": ms_per_commit(
            self_s("paxos.handle")
            + self_s("paxos.propose")
            + self_s("timer", {"PaxosReplica", "LeaderElector"})
        ),
        "paxos.instances_per_commit": counters.get("paxos_instances", 0) / commits,
        "paxos.msgs_per_instance": tracer.span_count("paxos.handle") / instances,
        "paxos.propose_to_deliver_ms_p50": percentile(
            tracer.samples["paxos.propose_to_deliver_s"], 0.5
        )
        * 1e3,
        "wal.append_ms_per_commit": ms_per_commit(self_s("wal.append")),
        "wal.appends_per_commit": tracer.span_count("wal.append") / commits,
        "wal.bytes_per_commit": tracer.counters["wal.bytes"] / commits,
        "server.adeliver_self_ms_per_commit": ms_per_commit(
            self_s("server.adeliver", VOTE_RECORD_KINDS, exclude=True)
        ),
        "certify.ctest_calls_per_commit": counters.get("ctest_calls", 0) / commits,
        "certify.abort_frac": counters.get("aborted", 0)
        / max(
            1,
            counters.get("aborted", 0)
            + counters.get("committed_local", 0)
            + counters.get("committed_global", 0),
        ),
        "server.handle_self_ms_per_commit": ms_per_commit(
            self_s("server.handle", GOSSIP | {"Vote"}, exclude=True)
            + self_s("timer", {"SdurServer", "VoteLedger"})
        ),
        "server.reads_per_commit": counters.get("reads_served", 0) / commits,
        "mvstore.read_ms_per_ro": self_s("mvstore.read") * 1e3 / ros
        if any(r.kind == "ro" for r in committed)
        else 0.0,
        "termination.vote_records_per_global": tracer.span_count(
            "server.adeliver", VOTE_RECORD_KINDS
        )
        / globals_,
        "termination.self_ms_per_global": termination_s * 1e3 / globals_,
        "gossip.msgs_per_s": gossip_msgs / window_s,
        "gossip.bytes_per_msg": tracer.counters["gossip.bytes"] / max(1, gossip_msgs),
        "gossip.cpu_frac": gossip_s / window_s,
        "client.self_ms_per_commit": ms_per_commit(
            self_s("client.execute") + self_s("client.handle") + self_s("timer", {"SdurClient"})
        ),
        "client.retries_per_commit": counters.get("client_retries", 0) / commits,
        "bench.loadgen_ms_per_commit": ms_per_commit(self_s("bench.loadgen")),
        "bench.calib_ms_per_commit": ms_per_commit(self_s("bench.calib")),
        "gc.gen2_collections": float(tracer.span_count("gc", {"gen2"})),
        "gc.pause_ms_total": sum(pauses) * 1e3,
        "gc.pause_ms_max": max(pauses, default=0.0) * 1e3,
        "loop.other_ms_per_commit": ms_per_commit(cpu_s - traced_s),
        "budget.residual_frac": (cpu_s - traced_s) / cpu_s if cpu_s > 0 else 0.0,
    }

    # Stage budget over committed updates with a complete set of stamps.
    stages: dict[str, list[float]] = {stage: [] for stage in STAGES}
    local_terminate: list[float] = []
    global_terminate: list[float] = []
    latency_sum = stage_sum = 0.0
    for tid, stamps in tracer.stamps.items():
        record = by_tid.get(tid)
        if record is None or not record.committed or record.kind == "ro":
            continue
        parts = stage_breakdown(record, stamps)
        if parts is None:
            continue
        for stage, seconds in parts.items():
            stages[stage].append(seconds)
        (global_terminate if record.kind == "global" else local_terminate).append(
            parts["terminate"]
        )
        latency_sum += record.latency
        stage_sum += sum(parts.values())
    for stage, values in stages.items():
        out[f"stage.{stage}_ms_p50"] = percentile(values, 0.5) * 1e3
    out["stage.residual_frac"] = (
        abs(latency_sum - stage_sum) / latency_sum if latency_sum > 0 else 0.0
    )
    out["server.deliver_to_reply_ms_p50"] = percentile(local_terminate, 0.5) * 1e3
    out["termination.deliver_to_reply_ms_p50"] = percentile(global_terminate, 0.5) * 1e3
    return out
