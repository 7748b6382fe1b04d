"""Cluster assembly: wiring protocol cores onto a runtime.

``build_cluster`` takes a deployment (topology + directory), a partition
map, and configurations, and returns an :class:`SdurCluster` with one
Paxos replica + SDUR server per server node, each behind a small
dispatcher that routes Paxos traffic to the replica and everything else
to the server.  Clients are added afterwards and bound to session
servers near them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.checker.history import HistoryRecorder
from repro.consensus.abcast import AbcastFabric
from repro.consensus.messages import PAXOS_MESSAGE_TYPES
from repro.consensus.replica import PaxosConfig, PaxosReplica
from repro.core.client import ClientConfig, SdurClient
from repro.core.config import SdurConfig
from repro.core.directory import ClusterDirectory
from repro.core.partitioning import PartitionMap
from repro.core.server import SdurServer
from repro.errors import ConfigurationError
from repro.geo.deployments import Deployment
from repro.net.topology import NodeSpec
from repro.obs.recorder import ObsRecorder, SpanRecorder
from repro.reconfig.coordinator import plan_merge, plan_split
from repro.reconfig.epochs import ConfigChange, VersionedRouting
from repro.reconfig.messages import BeginSplit
from repro.runtime.sim import SimWorld


@dataclass
class ServerHandle:
    """Everything running at one server node."""

    node_id: str
    partition: str
    server: SdurServer
    replica: PaxosReplica


class SdurCluster:
    """A fully wired SDUR deployment on a simulation world."""

    def __init__(
        self,
        world: SimWorld,
        deployment: Deployment,
        partition_map: PartitionMap,
        config: SdurConfig,
    ) -> None:
        self.world = world
        self.deployment = deployment
        #: The cluster's canonical (most advanced) routing view.  Each
        #: server and client gets its own fork so protocol state machines
        #: advance epochs independently, as they would across processes.
        self.routing = VersionedRouting(deployment.directory, partition_map)
        self.config = config
        self.servers: dict[str, ServerHandle] = {}
        self.clients: dict[str, SdurClient] = {}
        self.recorder: HistoryRecorder | None = None
        #: Autoscale controller (repro.autoscale), armed via
        #: :meth:`enable_autoscale`; ``None`` = manual scaling only.
        self.autoscale: Any | None = None
        #: Live telemetry (repro.telemetry), armed via
        #: :meth:`enable_telemetry`; ``None`` = end-of-run stats only.
        self.telemetry: Any | None = None
        self.health_monitor: Any | None = None
        self._started = False

    @property
    def obs(self) -> ObsRecorder:
        """The world's causal-tracing recorder (the no-op one when off)."""
        return self.world.obs

    @property
    def directory(self) -> ClusterDirectory:
        return self.routing.directory

    @property
    def partition_map(self) -> PartitionMap:
        return self.routing.partition_map

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _add_server(
        self,
        node_id: str,
        partition: str,
        paxos_config: PaxosConfig,
        routing: VersionedRouting | None = None,
    ) -> ServerHandle:
        node_routing = (routing or self.routing).fork()
        runtime = self.world.runtime_for(node_id)
        fabric = AbcastFabric(
            runtime,
            groups=node_routing.directory.partitions,
            coordinator_hints=node_routing.directory.preferred,
            # With elected (not pinned) leaders the static hint can die;
            # redundant submission keeps cross-partition broadcasts alive.
            redundant_submit=paxos_config.static_leader is None,
        )
        server = SdurServer(
            runtime=runtime,
            partition=partition,
            directory=node_routing.directory,
            partition_map=node_routing.partition_map,
            fabric=fabric,
            config=self.config,
            routing=node_routing,
        )
        replica = PaxosReplica(
            runtime,
            group_id=partition,
            members=node_routing.directory.servers_of(partition),
            config=paxos_config,
            on_deliver=server.on_adeliver,
        )
        fabric.attach_replica(partition, replica)
        server.is_partition_leader = replica.elector.is_leader
        server.checkpoint_hook = replica.compact_wal

        def dispatch(src: str, msg: Any, replica=replica, server=server) -> None:
            if isinstance(msg, PAXOS_MESSAGE_TYPES):
                replica.handle(src, msg)
            else:
                server.handle(src, msg)

        runtime.listen(dispatch)
        handle = ServerHandle(node_id, partition, server, replica)
        self.servers[node_id] = handle
        if self.telemetry is not None:
            # Servers created after enable_telemetry (e.g. by a split)
            # join the sampling set immediately.
            server.telemetry_enabled = True
            self.telemetry.attach(node_id, server.registry)
        return handle

    def seed(self, data: dict[str, Any]) -> None:
        """Load initial data into every replica of each key's partition."""
        if self._started:
            raise ConfigurationError("seed() must run before start()")
        per_partition: dict[str, dict[str, Any]] = {}
        for key, value in data.items():
            partition = self.partition_map.partition_of(key)
            per_partition.setdefault(partition, {})[key] = value
        for handle in self.servers.values():
            partition_data = per_partition.get(handle.partition)
            if partition_data:
                handle.server.store.seed(partition_data)

    def restore_server(self, node_id: str, checkpoint_blob: bytes) -> None:
        """Install a checkpoint into a freshly built server node.

        Restores the SDUR delivery-path state *and* advances the Paxos
        replica's cursor past the instances the checkpoint covers — both
        are required: a replica whose WAL was fully compacted would
        otherwise restart at instance 0 and propose over decided slots.
        Must run before :meth:`start`.
        """
        if self._started:
            raise ConfigurationError("restore_server() must run before start()")
        from repro.core.checkpoint import ServerCheckpoint

        checkpoint = ServerCheckpoint.from_bytes(checkpoint_blob)
        handle = self.servers[node_id]
        handle.server.restore_checkpoint(checkpoint)
        handle.replica.log.advance_to(checkpoint.next_instance)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for handle in self.servers.values():
            handle.replica.start()
            handle.server.start()

    def add_client(
        self,
        region: str | None = None,
        session_server: str | None = None,
        config: ClientConfig | None = None,
        **overrides: Any,
    ) -> SdurClient:
        """Create a client, placed in ``region`` (default: first region)."""
        if region is None:
            region = sorted(self.deployment.topology.regions())[0]
        client_id = self.deployment.add_client(region)
        if config is None:
            if session_server is None:
                session_server = self.deployment.session_server_for(client_id)
            config = ClientConfig(session_server=session_server, **overrides)
        runtime = self.world.runtime_for(client_id)
        client_routing = self.routing.fork()
        client = SdurClient(
            runtime,
            client_routing.directory,
            client_routing.partition_map,
            config,
            routing=client_routing,
        )
        runtime.listen(client.handle)
        self.clients[client_id] = client
        return client

    # ------------------------------------------------------------------
    # Elastic repartitioning
    # ------------------------------------------------------------------
    def split_partition(
        self,
        source: str,
        *,
        new_members: list[str] | None = None,
        new_preferred: str | None = None,
        salt: str | None = None,
    ) -> ConfigChange:
        """Split ``source`` live: spin up a new Paxos group and migrate.

        Builds the :class:`ConfigChange`, adds the new partition's server
        nodes (placed like the source's replicas), starts them, and kicks
        the three-phase protocol off by broadcasting :class:`BeginSplit`
        through the *source* partition's log — from there the servers run
        the migration themselves while transactions keep committing.
        Returns the change; clients learn it through the protocol
        (stale-epoch notices and read-response epoch sniffing).
        """
        change = plan_split(
            self.routing,
            source,
            new_members=new_members,
            new_preferred=new_preferred,
            salt=salt,
        )
        # Place the new replicas like the source's: same regions and
        # datacenters, one for one.
        source_members = self.routing.directory.servers_of(source)
        topology = self.deployment.topology
        for index, node_id in enumerate(change.new_members):
            mirror = topology.spec(source_members[index % len(source_members)])
            topology.add_node(
                NodeSpec(node_id, mirror.region, mirror.datacenter)
            )
        # New servers are born already in the post-split configuration and
        # hold their reads until the migration is installed.
        post_routing = self.routing.fork()
        post_routing.apply(change)
        for node_id in change.new_members:
            handle = self._add_server(
                node_id,
                change.new_partition,
                PaxosConfig(static_leader=change.new_preferred),
                routing=post_routing,
            )
            handle.server.await_migration()
            if self.recorder is not None:
                handle.server.on_commit_hook = self.recorder.server_hook(node_id)
                handle.server.on_merge_hook = self.recorder.merge_hook(node_id)
            if self._started:
                handle.replica.start()
                handle.server.start()
        self.routing.apply(change)
        # Kick off through the source partition's own log so every source
        # replica switches epochs at the same position.
        kicker = self.servers[source_members[0]].server
        kicker.fabric.abcast(source, BeginSplit(change=change))
        return change

    def merge_partitions(self, absorbed: str, into: str) -> ConfigChange:
        """Absorb partition ``absorbed`` into ``into``, live.

        The reverse of :meth:`split_partition`, run on the same
        three-phase protocol (docs/PROTOCOL.md §17): ``BeginSplit`` is
        ordered through the *absorbed* partition's log (freezing its
        keyspace behind the write barrier), its flattened store ships as
        ``InstallMigration`` through the absorbing partition's log, and
        ``FinishSplit`` retires the absorbed replicas.  No servers are
        removed — the directory keeps the absorbed partition addressable
        so in-flight global transactions can still collect its votes.
        """
        change = plan_merge(self.routing, absorbed, into)
        self.routing.apply(change)
        absorbed_members = self.routing.directory.servers_of(absorbed)
        kicker = self.servers[absorbed_members[0]].server
        kicker.fabric.abcast(absorbed, BeginSplit(change=change))
        return change

    def enable_autoscale(self, config: Any | None = None) -> Any:
        """Arm the :mod:`repro.autoscale` control loop on this cluster.

        Attaches a hot-key tracker to every server, starts the periodic
        monitor/policy tick, and lets the controller actuate
        :meth:`split_partition` / :meth:`merge_partitions` autonomously.
        Idempotent; returns the controller.
        """
        if self.autoscale is not None:
            return self.autoscale
        from repro.autoscale import AutoscaleConfig, AutoscaleController

        self.autoscale = AutoscaleController(self, config or AutoscaleConfig())
        self.autoscale.arm()
        if self.telemetry is not None:
            self.telemetry.attach("autoscale", self.autoscale.registry)
        return self.autoscale

    def enable_telemetry(self, config: Any | None = None) -> Any:
        """Arm the :mod:`repro.telemetry` live pipeline on this cluster.

        Attaches every server's :class:`MetricRegistry` to a
        :class:`TelemetrySampler` ticking on the sim clock, flips the
        servers' histogram recording on, and wires a
        :class:`HealthMonitor` over the sampled series (gray-failure
        detection; read it through :meth:`health`).  Idempotent;
        returns the sampler.
        """
        if self.telemetry is not None:
            return self.telemetry
        from repro.telemetry import HealthMonitor, TelemetryConfig, TelemetrySampler

        cfg = config or TelemetryConfig()
        sampler = TelemetrySampler(cfg, clock=lambda: self.world.now)
        for node_id, handle in self.servers.items():
            handle.server.telemetry_enabled = True
            sampler.attach(node_id, handle.server.registry)
        if self.autoscale is not None:
            sampler.attach("autoscale", self.autoscale.registry)
        self.health_monitor = HealthMonitor(sampler, self._partition_members, cfg.health)
        sampler.arm(self.world.kernel.schedule)
        self.telemetry = sampler
        return sampler

    def _partition_members(self) -> dict[str, list[str]]:
        """partition -> replica node ids, for the health monitor (always
        the *current* routing view, so splits/merges are reflected)."""
        return {
            partition: list(self.directory.servers_of(partition))
            for partition in self.routing.active_partitions()
        }

    def health(self) -> dict:
        """The health monitor's current verdicts (see OBSERVABILITY.md).

        ``{"degraded": [...], "nodes": {...}, "events": [...]}``; empty
        when telemetry was never enabled.
        """
        if self.health_monitor is None:
            return {"degraded": [], "nodes": {}, "events": []}
        return self.health_monitor.report()

    # ------------------------------------------------------------------
    # Instrumentation and fault injection
    # ------------------------------------------------------------------
    def attach_recorder(self, recorder: HistoryRecorder | None = None) -> HistoryRecorder:
        """Hook a history recorder into every server; returns it."""
        recorder = recorder or HistoryRecorder()
        self.recorder = recorder
        for handle in self.servers.values():
            handle.server.on_commit_hook = recorder.server_hook(handle.node_id)
            handle.server.on_merge_hook = recorder.merge_hook(handle.node_id)
        return recorder

    def crash_server(self, node_id: str) -> None:
        self.world.crash(node_id)

    def replica_counts(self) -> dict[str, int]:
        """partition -> replica count (for recorder completeness checks)."""
        return {p: len(m) for p, m in self.directory.partitions.items()}

    def server_stats(self) -> dict[str, dict[str, int]]:
        # Served off each server's §19 MetricRegistry: every wire
        # counter is a registry metric with metadata, and
        # ``wire_counters()`` replays the historical key set and order
        # bit-identically (tests/telemetry/test_registry.py).
        out: dict[str, dict[str, int]] = {
            node_id: handle.server.registry.wire_counters()
            for node_id, handle in self.servers.items()
        }
        if self.autoscale is not None:
            out["autoscale"] = self.autoscale.counters()
        return out


def build_cluster(
    deployment: Deployment,
    partition_map: PartitionMap,
    config: SdurConfig | None = None,
    seed: int = 0,
    intra_delay: float | None = None,
    jitter_fraction: float = 0.0,
    codec_roundtrip: bool = False,
    paxos_config: PaxosConfig | None = None,
    paxos_config_factory: "Callable[[str, str], PaxosConfig] | None" = None,
) -> SdurCluster:
    """Create a simulation world and wire an SDUR cluster onto it.

    ``intra_delay`` overrides δ; inter-region delays default to the
    paper's EC2 measurements.  ``paxos_config`` overrides the per-group
    consensus settings (default: static leader pinned at each partition's
    preferred server, which is how the paper deploys Paxos coordinators);
    ``paxos_config_factory(node_id, partition)`` overrides them per node
    (needed for per-replica WALs).
    """
    if partition_map.num_partitions != len(deployment.partition_ids):
        raise ConfigurationError(
            f"partition map has {partition_map.num_partitions} partitions, "
            f"deployment has {len(deployment.partition_ids)}"
        )
    config = config or SdurConfig()
    world = SimWorld.geo(
        deployment.topology,
        intra_delay=intra_delay,
        jitter_fraction=jitter_fraction,
        seed=seed,
        codec_roundtrip=codec_roundtrip,
        obs=SpanRecorder() if config.tracing else None,
    )
    cluster = SdurCluster(world, deployment, partition_map, config)
    for partition in deployment.partition_ids:
        for node_id in deployment.directory.servers_of(partition):
            if paxos_config_factory is not None:
                node_paxos = paxos_config_factory(node_id, partition)
            else:
                node_paxos = paxos_config or PaxosConfig(
                    static_leader=deployment.directory.preferred_of(partition)
                )
            cluster._add_server(node_id, partition, node_paxos)
    return cluster
