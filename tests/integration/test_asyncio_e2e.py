"""The unmodified protocol cores over real asyncio TCP on localhost.

This is the proof that the sans-io design holds: the same
PaxosReplica/SdurServer/SdurClient classes that run on the simulator are
wired onto :class:`~repro.runtime.aio.AioWorld` and commit transactions
over real sockets.
"""

import asyncio
import socket

from repro.consensus.abcast import AbcastFabric
from repro.consensus.messages import PAXOS_MESSAGE_TYPES
from repro.consensus.replica import PaxosConfig, PaxosReplica
from repro.core.client import ClientConfig, SdurClient
from repro.core.config import SdurConfig
from repro.core.directory import ClusterDirectory
from repro.core.partitioning import PartitionMap
from repro.core.transaction import Outcome
from repro.net.topology import Topology
from repro.runtime.aio import AioWorld
from repro.storage.wal import WriteAheadLog
from tests.conftest import update_program


def free_ports(count):
    sockets, ports = [], []
    for _ in range(count):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


async def build_aio_cluster(num_partitions=2, replicas=3, session_server="s1", wals=None):
    """A full SDUR deployment over localhost TCP (``s1`` leads ``p0``).

    ``wals``, when a dict, receives an in-memory WAL per server name."""
    server_names = [
        f"s{p * replicas + r + 1}" for p in range(num_partitions) for r in range(replicas)
    ]
    names = server_names + ["client"]
    ports = free_ports(len(names))
    directory_net = {name: ("127.0.0.1", port) for name, port in zip(names, ports)}
    world = AioWorld(directory_net, seed=1)

    topology = Topology()
    for name in names:
        topology.add(name, "local")
    partitions = {
        f"p{p}": server_names[p * replicas : (p + 1) * replicas]
        for p in range(num_partitions)
    }
    preferred = {pid: members[0] for pid, members in partitions.items()}
    directory = ClusterDirectory(partitions=partitions, preferred=preferred, topology=topology)
    partition_map = PartitionMap.by_index(num_partitions)

    from repro.core.server import SdurServer

    servers = []
    for pid, members in partitions.items():
        for name in members:
            runtime = world.runtime_for(name)
            fabric = AbcastFabric(runtime, partitions, preferred)
            server = SdurServer(
                runtime=runtime,
                partition=pid,
                directory=directory,
                partition_map=partition_map,
                fabric=fabric,
                config=SdurConfig(gossip_interval=0.05),
            )
            replica = PaxosReplica(
                runtime,
                pid,
                members,
                PaxosConfig(
                    static_leader=members[0],
                    wal=None if wals is None else wals.setdefault(name, WriteAheadLog()),
                ),
                on_deliver=server.on_adeliver,
            )
            fabric.attach_replica(pid, replica)
            server.is_partition_leader = replica.elector.is_leader

            def dispatch(src, msg, replica=replica, server=server):
                if isinstance(msg, PAXOS_MESSAGE_TYPES):
                    replica.handle(src, msg)
                else:
                    server.handle(src, msg)

            runtime.listen(dispatch)
            servers.append((server, replica))

    client_runtime = world.runtime_for("client")
    client = SdurClient(
        client_runtime,
        directory,
        partition_map,
        ClientConfig(session_server=session_server, commit_timeout=2.0, read_timeout=1.0),
    )
    client_runtime.listen(client.handle)

    await world.start_all()
    for server, replica in servers:
        replica.start()
        server.start()
    await asyncio.sleep(0.3)  # let Phase 1 settle
    return world, client, servers


async def execute(client, program, read_only=False, timeout=5.0):
    loop = asyncio.get_running_loop()
    future = loop.create_future()
    client.execute(program, lambda result: future.set_result(result), read_only=read_only)
    return await asyncio.wait_for(future, timeout)


class TestAsyncioEndToEnd:
    def test_local_transaction_over_tcp(self):
        async def body():
            world, client, servers = await build_aio_cluster()
            try:
                result = await execute(client, update_program(["0/x"]))
                assert result.outcome is Outcome.COMMIT
                result = await execute(client, update_program(["0/x"]))
                assert result.committed
                store = servers[0][0].store
                assert store.read_latest("0/x")[1] == 2
            finally:
                await world.close_all()

        asyncio.run(body())

    def test_global_transaction_over_tcp(self):
        async def body():
            world, client, servers = await build_aio_cluster()
            try:
                result = await execute(client, update_program(["0/x", "1/y"]))
                assert result.committed
                assert result.is_global
                p1_server = next(s for s, _ in servers if s.partition == "p1")
                await asyncio.sleep(0.3)
                assert p1_server.store.read_latest("1/y")[1] == 1
            finally:
                await world.close_all()

        asyncio.run(body())

    def test_conflicting_transactions_over_tcp(self):
        async def body():
            world, client, servers = await build_aio_cluster()
            try:
                loop = asyncio.get_running_loop()
                futures = [loop.create_future(), loop.create_future()]
                client.execute(
                    update_program(["0/x", "0/y"]),
                    lambda r, f=futures[0]: f.set_result(r),
                )
                client.execute(
                    update_program(["0/x", "0/y"]),
                    lambda r, f=futures[1]: f.set_result(r),
                )
                results = await asyncio.wait_for(asyncio.gather(*futures), 5.0)
                outcomes = sorted(r.outcome.value for r in results)
                assert outcomes == ["abort", "commit"]
            finally:
                await world.close_all()

        asyncio.run(body())

    def test_read_only_over_tcp(self):
        async def body():
            world, client, servers = await build_aio_cluster()
            try:
                await execute(client, update_program(["0/x", "1/y"]))
                await asyncio.sleep(0.3)  # gossip for the snapshot vector
                from repro.core.client import ReadMany

                seen = {}

                def program(txn):
                    values = yield ReadMany(("0/x", "1/y"))
                    seen.update(values)

                result = await execute(client, program, read_only=True)
                assert result.committed
                assert set(seen) == {"0/x", "1/y"}
            finally:
                await world.close_all()

        asyncio.run(body())
