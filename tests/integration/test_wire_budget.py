"""The wire budget of a commit, counted rather than timed.

Timing gates flake; counters do not.  One partition of three replicas
with a static leader (``s1``) and one client whose session server is a
follower (``s2``).  The client reads at the nearest replica and commits
at its session partition's preferred server, ``s1`` (PROTOCOL.md §3), so
the leader coordinates and no ``ClientPropose`` hop is on the path.  A
local two-key update needs ten frames::

    client -> s1   1 ReadRequest, 1 CommitRequest
    s1 -> client   1 ReadResponse, 1 OutcomeNotice
    s1 -> s2, s3   2 Accept, 2 Chosen
    s2, s3 -> s1   2 Accepted

and two encodes of a message that carries the transaction's read and
write sets: the ``CommitRequest`` and **one** ``Accept`` (a broadcast is
framed once; votes and decisions name the value by ``(ballot,
instance)``; the leader does not TCP itself).

Measured with this script on the parent commit (9a81d75: one asyncio
task, one encode and one ``write`` per message, the leader's ``Accept``
and ``Accepted`` to itself over TCP, value-carrying ``Accepted`` and
``Chosen``), by wrapping ``_encode`` and ``StreamWriter.write``: 15.04
frames, 15.04 writes, 10.00 set-carrying encodes and 6 082 bytes per
commit.  Cutting those four Phase-2 copies left 13.0 frames, 11 encodes
(3.00 set-carrying), 11 writes and 3 742 bytes on the wire.  The
fractional 0.04 is the leader's commit-index advert, the only timer
traffic in this deployment.

Measured again when the schema-compiled codec (``repro.net.codec``)
replaced tagged JSON on the wire: the counts are **unchanged** — a codec
must not add a hop — and the same frames are 1 377 bytes per commit.

Measured again when a partition's keys came to share one
``ReadRequest`` and one ``ReadResponse`` (PROTOCOL.md §2): 11.0 frames,
9 encodes (3.00 set-carrying), 11 writes and **1 224 bytes** per
commit.

Measured again when replicas began forgetting what every member has
delivered (PROTOCOL.md §4, "What a replica forgets"): each ``Accept``
carries the group floor and each ``Accepted`` its sender's delivery
cursor, 8 bytes apiece, and a commit carries two of each — 1 224 + 32 =
1 256 bytes per commit, frame and encode counts unchanged.

Measured again when a follower's client began committing at the leader
instead of through the follower: the ``ClientPropose`` the follower
forwarded (one frame, one set-carrying encode) is gone, and so is the
follower's wait for the ``Chosen`` relay before it could reply.  10.0
frames, 8 encodes (2.00 set-carrying), 10 writes and **1 087 bytes**
per commit.  The byte gate is that figure plus 10 %.

This is the regression guard for the cuts of the Phase-2 wire path and
of the read path, and for any later change that re-adds a hop, an
encode or a copy of the value.  It is also the counted guard that a
commit's reply is one ``OutcomeNotice``, from the coordinator, the one
reply type the server sends and the one ``benchmarks/e2e/layers.py``
stamps.  The script is serial, so the leader's turn group commit
(PROTOCOL.md §4) never has two proposals in one turn: each instance is
a bare ``Accept`` and the counts above hold unchanged.

The read-only test counts a read-only transaction's frames on a
two-partition cluster: its snapshot vector (PROTOCOL.md §6) rides the
answer to its first read, so two keys of one partition cost one request
and one response, and one key in each partition two of each.

The last test is the concurrent counterpart: four clients committing
at once on one partition, where the group commit has to show — fewer
instances and WAL records than commits, one ``on_deliver`` per
committed value.
"""

import asyncio

from repro.consensus.messages import ClientPropose
from repro.core.client import SdurClient
from repro.core.messages import CommitRequest, OutcomeNotice
from repro.core.transaction import TxnProjection
from tests.conftest import read_program, update_program
from tests.integration.test_asyncio_e2e import CLIENT, build_aio_cluster, execute, free_ports

COMMITS = 50
#: Wire bytes per commit of this script (see above), and the headroom
#: a change may use before it has to say why.
MEASURED_BYTES_PER_COMMIT = 1087
HEADROOM = 1.10


def carries_the_sets(msg) -> bool:
    return isinstance(msg, CommitRequest) or isinstance(
        getattr(msg, "value", None), TxnProjection
    )


def test_local_commit_stays_inside_its_wire_budget():
    async def body():
        world, client, servers = await build_aio_cluster(
            num_partitions=1, session_server="s2"
        )
        try:
            transports = [runtime._transport for runtime in world._runtimes.values()]
            set_encodes = [0]
            notices = [0]
            notices_from_s1 = [0]
            proposes = [0]
            for transport in transports:
                # Wrapped on the instance, as benchmarks/e2e/layers.py does.
                def counting(envelope, encode=transport._encode):
                    set_encodes[0] += carries_the_sets(envelope.payload)
                    if isinstance(envelope.payload, OutcomeNotice):
                        notices[0] += 1
                        notices_from_s1[0] += envelope.src == "s1"
                    proposes[0] += isinstance(envelope.payload, ClientPropose)
                    return encode(envelope)

                transport._encode = counting

            def totals():
                return {
                    name: sum(getattr(transport, name) for transport in transports)
                    for name in ("frames_sent", "encodes", "writes", "bytes_sent", "sends_dropped")
                } | {
                    "set_encodes": set_encodes[0],
                    "notices": notices[0],
                    "notices_from_s1": notices_from_s1[0],
                    "proposes": proposes[0],
                }

            async def delivered_everywhere(count):
                for _ in range(300):
                    if all(replica.log.next_to_deliver == count for _, replica in servers):
                        return
                    await asyncio.sleep(0.01)
                raise AssertionError(f"replicas did not all deliver {count} instances")

            # Connections open, first-use paths run.
            assert (await execute(client, update_program(["0/x", "0/y"]))).committed
            await delivered_everywhere(1)
            before = totals()
            for i in range(COMMITS):
                # The key shape of benchmarks/e2e's local two-key update.
                keys = [f"0/obj{(i * 7919) % 10_000}", f"0/obj{(i * 104_729 + 1) % 10_000}"]
                result = await execute(client, update_program(keys))
                assert result.committed and not result.is_global
            await delivered_everywhere(COMMITS + 1)  # the followers' last Chosen
            after = totals()
            return {name: (after[name] - before[name]) / COMMITS for name in after}
        finally:
            await world.close_all()

    per_commit = asyncio.run(body())
    assert per_commit["sends_dropped"] == 0
    # One reply, from the coordinator: the leader s1, not the follower
    # session server s2 that waited for s1's Chosen to learn the outcome.
    assert per_commit["notices"] == 1, per_commit
    assert per_commit["notices_from_s1"] == 1, per_commit
    # The commit request reaches the leader itself: nothing to forward.
    assert per_commit["proposes"] == 0, per_commit
    # The 10 the protocol needs, plus timer traffic (11 with s2 as the
    # coordinator, which forwarded a ClientPropose to s1).
    assert 10 <= per_commit["frames_sent"] <= 11, per_commit
    # CommitRequest and one Accept (3 with the ClientPropose).
    assert per_commit["set_encodes"] == 2, per_commit
    # A broadcast is framed once: Accept x2 and Chosen x2 are two encodes.
    assert per_commit["encodes"] <= per_commit["frames_sent"] - 2, per_commit
    # Same-turn frames for one peer share a write (none do in this serial
    # script now that a partition's reads are one request).
    assert per_commit["writes"] <= per_commit["frames_sent"], per_commit
    assert per_commit["bytes_sent"] <= HEADROOM * MEASURED_BYTES_PER_COMMIT, per_commit


def test_read_only_transaction_pays_one_request_per_partition():
    async def body():
        world, client, _ = await build_aio_cluster(num_partitions=2, session_server="s2")
        try:
            # Every message to or from the client, by type: one frame each.
            to_client, from_client = [], []
            for name, runtime in world._runtimes.items():
                def counting(dst, msg, send=runtime.send, src=name):
                    if CLIENT in (src, dst):
                        (from_client if src == CLIENT else to_client).append(type(msg).__name__)
                    send(dst, msg)

                runtime.send = counting

            async def frames(keys):
                to_client.clear()
                from_client.clear()
                result = await execute(client, read_program(keys), read_only=True)
                assert result.committed and result.read_only
                await asyncio.sleep(0.05)  # nothing else arrives
                return len(from_client) + len(to_client)

            await frames(["0/x", "1/y"])  # connections open, first-use paths run
            # Two keys of one partition: one request, and one response that
            # brings the vector (6 frames when the vector had a round trip
            # of its own and each key another).
            assert await frames(["0/a", "0/b"]) == 2
            assert from_client == ["ReadRequest"] and to_client == ["ReadResponse"]
            # One key in each partition: the second request leaves with the
            # first answer's vector (6 frames with a vector round trip).
            assert await frames(["0/c", "1/d"]) == 4
            assert from_client == ["ReadRequest"] * 2
            assert to_client == ["ReadResponse"] * 2
        finally:
            await world.close_all()

    asyncio.run(body())


async def more_clients(world, like, count):
    """``count`` more clients configured as ``like``, started on ``world``."""
    clients = []
    for i, port in enumerate(free_ports(count), start=1):
        name = f"client{i}"
        world.directory[name] = ("127.0.0.1", port)
        runtime = world.runtime_for(name)
        client = SdurClient(
            runtime, like.routing.directory, like.routing.partition_map, like.config
        )
        runtime.listen(client.handle)
        await runtime.start()
        clients.append(client)
    return clients


def test_concurrent_commits_share_instances():
    per_client = 20

    async def body():
        wals = {}
        world, first, servers = await build_aio_cluster(
            num_partitions=1, session_server="s2", wals=wals
        )
        try:
            clients = [first, *await more_clients(world, first, 3)]
            delivered = {}
            for server, replica in servers:
                count = delivered[replica.runtime.node_id] = [0]

                def on_deliver(instance, value, inner=replica.on_deliver, count=count):
                    count[0] += isinstance(value, TxnProjection)
                    inner(instance, value)

                replica.on_deliver = on_deliver

            async def commits(j, client):
                for i in range(per_client):
                    keys = [f"0/c{j}x{i}", f"0/c{j}y{i}"]  # no two clients conflict
                    assert (await execute(client, update_program(keys))).committed

            await asyncio.gather(*(commits(j, c) for j, c in enumerate(clients)))
            total = per_client * len(clients)
            for _ in range(300):
                if all(count[0] == total for count in delivered.values()):
                    break
                await asyncio.sleep(0.01)
            return total, delivered, {
                replica.runtime.node_id: (
                    replica.log.next_to_deliver, len(wals[replica.runtime.node_id])
                )
                for _, replica in servers
            }
        finally:
            await world.close_all()

    total, delivered, logs = asyncio.run(body())
    # One on_deliver per committed value, at every replica.
    assert all(count[0] == total for count in delivered.values()), delivered
    for name, (instances, records) in logs.items():
        # Fewer instances, and WAL records, than commits: a turn's
        # proposals share one.
        assert instances == records < total, (name, logs)
