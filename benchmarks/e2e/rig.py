"""The benchmark rig: one SDUR deployment over asyncio TCP on localhost.

Same for every workload: 2 partitions x 3 replicas and 8 clients, all on
one event loop in this process; ``PaxosConfig(static_leader=<first
member>)`` with a file WAL (flush per record, no fsync); ``SdurConfig()``
defaults; the JSON codec (the only one ``AioNodeRuntime.start()`` can
select); telemetry and tracing off.  Wired the way
``tests/integration/test_asyncio_e2e.py`` wires its cluster, from the
public constructors only.
"""

from __future__ import annotations

import asyncio
import socket
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.checker.history import HistoryRecorder
from repro.consensus.abcast import AbcastFabric
from repro.consensus.messages import PAXOS_MESSAGE_TYPES
from repro.consensus.replica import PaxosConfig, PaxosReplica
from repro.core.client import ClientConfig, ReadMany, SdurClient
from repro.core.config import SdurConfig
from repro.core.directory import ClusterDirectory
from repro.core.partitioning import PartitionMap
from repro.core.server import SdurServer
from repro.net.topology import Topology
from repro.runtime.aio import AioNodeRuntime, AioWorld
from repro.storage.wal import WriteAheadLog

NUM_PARTITIONS = 2
REPLICAS = 3
NUM_CLIENTS = 8
ITEMS_PER_PARTITION = 10_000
CLIENT_TIMEOUT_S = 5.0
#: Stated in the output: this is what "WAL on" means in every number.
WAL_POLICY = "file WAL, flush per record, fsync=False"


@dataclass
class ServerNode:
    name: str
    partition: str
    runtime: AioNodeRuntime
    server: SdurServer
    replica: PaxosReplica
    wal: WriteAheadLog


@dataclass
class ClientNode:
    name: str
    home: int  # index of the home partition
    runtime: AioNodeRuntime
    client: SdurClient


@dataclass
class Rig:
    world: AioWorld
    servers: list[ServerNode]
    clients: list[ClientNode]
    #: Update transactions the set-up itself committed (the gate's sum
    #: check has to know about them).
    probe_commits: int = 0

    def partitions(self) -> dict[str, list[ServerNode]]:
        grouped: dict[str, list[ServerNode]] = {}
        for node in self.servers:
            grouped.setdefault(node.partition, []).append(node)
        return grouped

    async def close(self) -> None:
        await self.world.close_all()
        for node in self.servers:
            node.server.close()
            node.wal.close()


def free_ports(count: int) -> list[int]:
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def quiet_teardown(loop: asyncio.AbstractEventLoop) -> None:
    """Swallow the teardown spam of ``AioWorld.close_all()``.

    ``AioTransport.close()`` cancels its reader tasks, and asyncio's
    stream server reports each cancelled connection callback through the
    loop's exception handler; timers that outlive ``close_all()`` keep
    calling ``Runtime.send``, whose tasks the closing loop then destroys
    while pending.  Recorded in the README as a finding for ROADMAP
    robustness item (iii); not fixed here.
    """

    def handler(loop: asyncio.AbstractEventLoop, context: dict[str, Any]) -> None:
        if isinstance(context.get("exception"), asyncio.CancelledError):
            return
        if "Task was destroyed but it is pending" in context.get("message", ""):
            return
        loop.default_exception_handler(context)

    loop.set_exception_handler(handler)
    warnings.filterwarnings(
        "ignore", message="coroutine 'AioTransport.send' was never awaited", category=RuntimeWarning
    )


def update_two(key_a: str, key_b: str):
    def program(txn):
        values = yield ReadMany((key_a, key_b))
        txn.write(key_a, (values[key_a] or 0) + 1)
        txn.write(key_b, (values[key_b] or 0) + 1)

    return program


async def build(wal_dir: Path, seed: int, recorder: HistoryRecorder | None = None) -> Rig:
    """Build, seed and start the deployment; returns once a probe update
    has committed on every partition (polled, no fixed sleep).

    ``recorder``, when given, sees every commit from the first one on
    (the serializability check needs the whole history).
    """
    server_names = [f"s{i + 1}" for i in range(NUM_PARTITIONS * REPLICAS)]
    client_names = [f"c{i}" for i in range(NUM_CLIENTS)]
    names = server_names + client_names
    ports = free_ports(len(names))
    world = AioWorld(
        {name: ("127.0.0.1", port) for name, port in zip(names, ports)}, seed=seed
    )
    topology = Topology()
    for name in names:
        topology.add(name, "local")
    partition_map = PartitionMap.by_index(NUM_PARTITIONS)
    groups = {
        partition_map.partition_name(p): server_names[p * REPLICAS : (p + 1) * REPLICAS]
        for p in range(NUM_PARTITIONS)
    }
    preferred = {pid: members[0] for pid, members in groups.items()}
    directory = ClusterDirectory(partitions=groups, preferred=preferred, topology=topology)

    servers: list[ServerNode] = []
    for index, (pid, members) in enumerate(groups.items()):
        initial = {f"{index}/obj{i}": 0 for i in range(ITEMS_PER_PARTITION)}
        for name in members:
            runtime = world.runtime_for(name)
            fabric = AbcastFabric(runtime, groups, preferred)
            server = SdurServer(
                runtime=runtime,
                partition=pid,
                directory=directory,
                partition_map=partition_map,
                fabric=fabric,
                config=SdurConfig(),
                initial_data=initial,
            )
            wal = WriteAheadLog(wal_dir / f"{name}.wal", fsync=False)
            replica = PaxosReplica(
                runtime,
                pid,
                members,
                PaxosConfig(static_leader=members[0], wal=wal),
                on_deliver=server.on_adeliver,
            )
            fabric.attach_replica(pid, replica)
            server.is_partition_leader = replica.elector.is_leader
            if recorder is not None:
                server.on_commit_hook = recorder.server_hook(name)
            node = ServerNode(name, pid, runtime, server, replica, wal)

            # Looked up per message, so the tracer can wrap ``handle`` on
            # the instances after the rig is built.
            def dispatch(src: str, msg: Any, node: ServerNode = node) -> None:
                if isinstance(msg, PAXOS_MESSAGE_TYPES):
                    node.replica.handle(src, msg)
                else:
                    node.server.handle(src, msg)

            runtime.listen(dispatch)
            servers.append(node)

    clients: list[ClientNode] = []
    for i, name in enumerate(client_names):
        home = i % NUM_PARTITIONS
        members = groups[partition_map.partition_name(home)]
        session = members[(i // NUM_PARTITIONS) % REPLICAS]
        runtime = world.runtime_for(name)
        client = SdurClient(
            runtime,
            directory,
            partition_map,
            ClientConfig(
                session_server=session,
                commit_timeout=CLIENT_TIMEOUT_S,
                read_timeout=CLIENT_TIMEOUT_S,
            ),
        )
        node = ClientNode(name, home, runtime, client)
        runtime.listen(lambda src, msg, node=node: node.client.handle(src, msg))
        clients.append(node)

    await world.start_all()
    for node in servers:
        node.replica.start()
        node.server.start()
    rig = Rig(world, servers, clients)
    await _probe(rig, recorder)
    return rig


async def _probe(rig: Rig, recorder: HistoryRecorder | None, deadline_s: float = 30.0) -> None:
    """Commit one update per partition (the client's own resend covers a
    request that raced Phase 1)."""
    loop = asyncio.get_running_loop()
    for home in range(NUM_PARTITIONS):
        node = next(c for c in rig.clients if c.home == home)
        program = update_two(f"{home}/obj0", f"{home}/obj1")
        committed = False
        while not committed:
            done: asyncio.Future = loop.create_future()
            node.client.execute(program, done.set_result)
            result = await asyncio.wait_for(done, deadline_s)
            if recorder is not None:
                recorder.record_result(result)
            committed = result.committed
        rig.probe_commits += 1
