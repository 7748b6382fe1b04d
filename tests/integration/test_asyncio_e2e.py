"""The unmodified protocol cores over real asyncio TCP on localhost.

This is the proof that the sans-io design holds: the same
:class:`~repro.harness.cluster.SdurCluster` that assembles simulated
deployments wires PaxosReplica/SdurServer/SdurClient onto an
:class:`~repro.runtime.aio.AioWorld`, and they commit transactions over
real sockets.
"""

import asyncio
import importlib.util
import socket
import sys
from pathlib import Path

from repro.consensus.messages import PAXOS_MESSAGE_TYPES
from repro.consensus.replica import PaxosConfig
from repro.core.client import ClientConfig
from repro.core.config import SdurConfig
from repro.core.messages import CommitRequest, ReadRequest
from repro.core.partitioning import PartitionMap
from repro.core.transaction import Outcome
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import SdurCluster
from repro.runtime.aio import AioWorld
from repro.storage.wal import WriteAheadLog
from tests.conftest import update_program

#: The id ``SdurCluster.add_client`` gives a deployment's first client.
CLIENT = "c1"


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


async def build_aio_cluster(num_partitions=2, session_server="s1", wals=None):
    """``lan_deployment(num_partitions)`` assembled by :class:`SdurCluster`
    on an :class:`AioWorld` of localhost ports, started, with one client
    (``s1`` leads ``p0``).

    ``wals``, when a dict, receives an in-memory WAL per server name."""
    deployment = lan_deployment(num_partitions)
    names = deployment.topology.node_ids + [CLIENT]
    world = AioWorld(dict(zip(names, (("127.0.0.1", port) for port in free_ports(len(names))))))
    paxos_for = None
    if wals is not None:
        def paxos_for(node_id, partition):
            return PaxosConfig(
                static_leader=deployment.directory.preferred_of(partition),
                wal=wals.setdefault(node_id, WriteAheadLog()),
            )

    cluster = SdurCluster(
        world,
        deployment,
        PartitionMap.by_index(num_partitions),
        SdurConfig(gossip_interval=0.05),
        paxos_for,
    )
    client = cluster.add_client(
        config=ClientConfig(session_server=session_server, commit_timeout=2.0, read_timeout=1.0)
    )
    await world.start_all()
    cluster.start()
    await asyncio.sleep(0.3)  # let Phase 1 settle
    return world, client, [(h.server, h.replica) for h in cluster.servers.values()]


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


def frozen_rig():
    """``benchmarks/e2e/rig.py``, loaded as it is (it is not a package)."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "rig.py"
    spec = importlib.util.spec_from_file_location("frozen_e2e_rig", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def wiring(runtime, server, replica):
    """What a node's listener hands to which core, by message type, after
    checking the hooks that tie its server to its replica."""
    assert server.is_partition_leader == replica.elector.is_leader
    assert server.fabric.local_replicas == {server.partition: replica}
    routed = []
    # On the instances, as benchmarks/e2e/layers.py wraps them.
    server.handle = lambda src, msg: routed.append(("server", type(msg).__name__))
    replica.handle = lambda src, msg: routed.append(("replica", type(msg).__name__))
    try:
        for kind in (*PAXOS_MESSAGE_TYPES, ReadRequest, CommitRequest):
            runtime._handler("peer", kind.__new__(kind))
    finally:
        del server.handle, replica.handle
    return routed


class TestOneAssembly:
    def test_cluster_wires_each_node_as_the_frozen_rig_does(self, tmp_path):
        """The rig keeps its own copy of the node wiring; the two must not
        drift apart unseen."""

        async def body():
            rig = await frozen_rig().build(tmp_path, seed=1)
            try:
                theirs = {n.name: wiring(n.runtime, n.server, n.replica) for n in rig.servers}
            finally:
                await rig.close()
            world, _, servers = await build_aio_cluster()
            try:
                ours = {
                    r.runtime.node_id: wiring(r.runtime, s, r) for s, r in servers
                }
            finally:
                await world.close_all()
            return theirs, ours

        theirs, ours = asyncio.run(body())
        assert ours == theirs
        for routed in ours.values():
            assert routed == [("replica", kind.__name__) for kind in PAXOS_MESSAGE_TYPES] + [
                ("server", "ReadRequest"),
                ("server", "CommitRequest"),
            ]

    def test_a_checkpoint_compacts_the_nodes_wal(self):
        async def body():
            wals = {}
            world, client, servers = await build_aio_cluster(wals=wals)
            try:
                for i in range(5):
                    assert (await execute(client, update_program([f"0/k{i}"]))).committed
                leader = servers[0][0]
                held = len(wals["s1"])
                leader.take_checkpoint()
                return held, len(wals["s1"])
            finally:
                await world.close_all()

        held, after = asyncio.run(body())
        assert held >= 5 and after == 0

