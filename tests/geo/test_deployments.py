"""Unit tests for the WAN 1 / WAN 2 / LAN deployment builders."""

from unittest.mock import patch

import pytest

from repro.geo import deployments
from repro.geo.deployments import lan_deployment, wan1_deployment, wan2_deployment
from repro.net.topology import EU, US_EAST, US_WEST


class TestWan1:
    def test_majority_in_home_region(self):
        deployment = wan1_deployment(2)
        topo = deployment.topology
        p0 = deployment.directory.servers_of("p0")
        home_count = sum(1 for s in p0 if topo.region_of(s) == EU)
        assert home_count == 2  # majority at home
        assert sum(1 for s in p0 if topo.region_of(s) == US_EAST) == 1

    def test_each_partition_has_replica_in_other_region(self):
        """Needed for 2δ remote reads (paper §IV-B)."""
        deployment = wan1_deployment(2)
        topo = deployment.topology
        for partition in deployment.partition_ids:
            regions = {topo.region_of(s) for s in deployment.directory.servers_of(partition)}
            assert len(regions) == 2

    def test_preferred_server_in_home_region(self):
        deployment = wan1_deployment(2)
        for partition in deployment.partition_ids:
            preferred = deployment.directory.preferred_of(partition)
            assert (
                deployment.topology.region_of(preferred)
                == deployment.preferred_region[partition]
            )

    def test_many_partitions_rotate_regions(self):
        deployment = wan1_deployment(4)
        assert deployment.preferred_region["p0"] == EU
        assert deployment.preferred_region["p1"] == US_EAST
        assert deployment.preferred_region["p2"] == EU
        assert len(deployment.directory.all_servers()) == 12


class TestWan2:
    def test_one_replica_per_region(self):
        deployment = wan2_deployment(2)
        topo = deployment.topology
        for partition in deployment.partition_ids:
            regions = [topo.region_of(s) for s in deployment.directory.servers_of(partition)]
            assert sorted(regions) == sorted([EU, US_EAST, US_WEST])

    def test_preferred_servers_spread_across_regions(self):
        """Footnote 3: no region may end up without a preferred server."""
        deployment = wan2_deployment(3)
        regions = {deployment.preferred_region[p] for p in deployment.partition_ids}
        assert regions == {EU, US_EAST, US_WEST}

    def test_group_size_follows_region_count(self, monkeypatch):
        monkeypatch.setattr(deployments, "DEFAULT_REGIONS", [EU, US_EAST])
        deployment = wan2_deployment(1)
        assert len(deployment.directory.servers_of("p0")) == 2


class TestLan:
    def test_single_region(self):
        deployment = lan_deployment(3)
        assert deployment.topology.regions() == {US_EAST}
        assert len(deployment.directory.all_servers()) == 9

    def test_replica_count_configurable(self, monkeypatch):
        monkeypatch.setattr(deployments, "LAN_REPLICAS", 5)
        deployment = lan_deployment(2)
        assert len(deployment.directory.servers_of("p0")) == 5

    def test_replicas_in_distinct_datacenters(self):
        deployment = lan_deployment(1)
        specs = [
            deployment.topology.spec(s) for s in deployment.directory.servers_of("p0")
        ]
        assert len({spec.datacenter for spec in specs}) == 3


class TestClients:
    def test_client_ids_unique(self):
        deployment = wan1_deployment(2)
        ids = {deployment.add_client(EU) for _ in range(5)}
        assert len(ids) == 5

    def test_session_server_matches_region(self):
        deployment = wan1_deployment(2)
        eu_client = deployment.add_client(EU)
        us_client = deployment.add_client(US_EAST)
        assert deployment.session_server_for(eu_client) == "s1"
        assert deployment.session_server_for(us_client) == "s4"

    def test_home_partition(self):
        deployment = wan1_deployment(2)
        client = deployment.add_client(US_EAST)
        session = deployment.session_server_for(client)
        assert deployment.directory.partition_of_server(session) == "p1"

    def test_unmatched_region_falls_back_to_first_partition(self):
        deployment = wan1_deployment(2)
        client = deployment.add_client(US_WEST)
        assert deployment.session_server_for(client) == "s1"


class TestSessionServersAreCoordinators:
    """A client commits at the preferred server of its session server's
    partition (PROTOCOL.md §3).  Every simulated client's session server
    already is that server, so the rule cannot move a simulated row; this
    guard fails the day a deployment or experiment hands out a follower."""

    @staticmethod
    def coordinates(directory, session):
        return directory.preferred_of(directory.partition_of_server(session)) == session

    @pytest.mark.parametrize(
        "deployment",
        [wan1_deployment(2), wan1_deployment(4), wan2_deployment(3), lan_deployment(2)],
        ids=["wan1x2", "wan1x4", "wan2x3", "lanx2"],
    )
    def test_every_region_is_handed_a_preferred_server(self, deployment):
        for region in (EU, US_EAST, US_WEST):
            session = deployment.session_server_for(deployment.add_client(region))
            assert self.coordinates(deployment.directory, session), (region, session)

    @pytest.mark.parametrize("runner", ["run_o1", "run_o2", "run_o3", "run_o4"])
    def test_the_overload_suites_sessions_are_preferred_servers(self, runner):
        """Each scenario is stopped where its load starts, clients built."""
        from repro.experiments import overload

        class Built(Exception):
            pass

        def stop(cluster, *args, **kwargs):
            raise Built(cluster)

        with patch.object(overload, "run_open_loop", stop):
            with pytest.raises(Built) as built:
                getattr(overload, runner)(quick=True)
        (cluster,) = built.value.args
        assert cluster.clients
        for client in cluster.clients.values():
            session = client.config.session_server
            assert self.coordinates(cluster.directory, session), session
