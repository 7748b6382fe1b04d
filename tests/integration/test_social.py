"""End-to-end checks of the social network workload (paper §VI-A)."""

import random

import pytest

from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import run_experiment
from repro.workload.social import (
    SocialNetworkWorkload,
    consumers_key,
    follow_txn,
    generate_social_data,
    post_txn,
    posts_key,
    producers_key,
    timeline_txn,
)
from tests.conftest import run_txn

NUM_USERS = 40


@pytest.fixture
def social_cluster():
    cluster = build_cluster(
        lan_deployment(2), PartitionMap.by_index(2), SdurConfig(), seed=3, intra_delay=0.001
    )
    data = generate_social_data(NUM_USERS, follows_per_user=4, rng=random.Random(1))
    cluster.seed(data)
    client = cluster.add_client()
    cluster.start()
    cluster.world.run_for(0.5)
    return cluster, client


class TestDataGeneration:
    def test_follow_graph_is_symmetric(self):
        data = generate_social_data(20, follows_per_user=3, rng=random.Random(2))
        for user in range(20):
            for followee in data[producers_key(user)]:
                assert user in data[consumers_key(followee)]

    def test_every_user_has_keys(self):
        data = generate_social_data(10, 2, random.Random(0))
        for user in range(10):
            assert producers_key(user) in data
            assert consumers_key(user) in data
            assert len(data[posts_key(user)]) == 2

    def test_rejects_tiny_populations(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            generate_social_data(1, 1, random.Random(0))


class TestOperations:
    def test_post_appends(self, social_cluster):
        cluster, client = social_cluster
        result = run_txn(cluster, client, post_txn(0, "hello world"), label="post")
        assert result.committed
        assert not result.is_global
        store = cluster.servers["s1"].server.store
        assert "hello world" in store.read_latest(posts_key(0))[1]

    def test_post_bounds_list_length(self, social_cluster):
        cluster, client = social_cluster
        from repro.workload.social import MAX_POSTS

        for i in range(MAX_POSTS + 5):
            run_txn(cluster, client, post_txn(0, f"msg{i}"))
        store = cluster.servers["s1"].server.store
        posts = store.read_latest(posts_key(0))[1]
        assert len(posts) == MAX_POSTS
        assert posts[-1] == f"msg{MAX_POSTS + 4}"

    def test_follow_updates_both_lists(self, social_cluster):
        cluster, client = social_cluster
        # users 0 and 1 live in different partitions (uid % 2).
        result = run_txn(cluster, client, follow_txn(0, 1))
        assert result.committed
        assert result.is_global
        p0_store = cluster.servers["s1"].server.store
        p1_store = cluster.servers["s4"].server.store
        assert 1 in p0_store.read_latest(producers_key(0))[1]
        assert 0 in p1_store.read_latest(consumers_key(1))[1]

    def test_follow_same_partition_is_local(self, social_cluster):
        cluster, client = social_cluster
        result = run_txn(cluster, client, follow_txn(0, 2))  # both even -> p0
        assert result.committed
        assert not result.is_global

    def test_duplicate_follow_is_idempotent(self, social_cluster):
        cluster, client = social_cluster
        run_txn(cluster, client, follow_txn(0, 2))
        result = run_txn(cluster, client, follow_txn(0, 2))
        assert result.committed
        store = cluster.servers["s1"].server.store
        producers = store.read_latest(producers_key(0))[1]
        assert producers.count(2) == 1

    def test_timeline_reads_followed_posts(self, social_cluster):
        cluster, client = social_cluster
        run_txn(cluster, client, follow_txn(0, 1))
        run_txn(cluster, client, post_txn(1, "from user 1"))
        # Snapshot vectors are built asynchronously (paper §III-A): let
        # the gossip catch up so the fresh follow is visible.
        cluster.world.run_for(0.5)
        result = run_txn(cluster, client, timeline_txn(0), read_only=True)
        assert result.committed
        assert result.read_only
        assert posts_key(1) in result.read_versions

    def test_timeline_with_no_producers(self, social_cluster):
        cluster, client = social_cluster
        # A fresh user beyond the seeded range follows nobody.
        result = run_txn(cluster, client, timeline_txn(38), read_only=True)
        assert result.committed


class TestWorkloadMix:
    def test_mix_matches_configuration(self):
        workload = SocialNetworkWorkload(
            num_users=100, num_partitions=2, home_partition_index=0
        )
        rng = random.Random(42)
        labels = [workload.next_txn(rng).label for _ in range(4000)]
        timeline_share = labels.count("timeline") / len(labels)
        post_share = labels.count("post") / len(labels)
        follow_share = (labels.count("follow") + labels.count("follow-global")) / len(labels)
        assert 0.82 < timeline_share < 0.88
        assert 0.05 < post_share < 0.10
        assert 0.05 < follow_share < 0.10
        globals_among_follows = labels.count("follow-global") / max(
            1, labels.count("follow") + labels.count("follow-global")
        )
        assert 0.35 < globals_among_follows < 0.65

    def test_acting_users_stay_in_home_partition(self):
        workload = SocialNetworkWorkload(
            num_users=100, num_partitions=2, home_partition_index=1
        )
        rng = random.Random(7)
        for _ in range(50):
            spec = workload.next_txn(rng)
            # Smoke: programs must be constructible generators.
            assert spec.program is not None

    def test_small_driven_run_commits(self):
        cluster = build_cluster(
            lan_deployment(2), PartitionMap.by_index(2), SdurConfig(), seed=9,
            intra_delay=0.001,
        )
        cluster.seed(generate_social_data(NUM_USERS, 4, random.Random(5)))
        pairs = []
        for partition in ("p0", "p1"):
            client = cluster.add_client()
            pairs.append(
                (client, SocialNetworkWorkload(NUM_USERS, 2, int(partition[1:])))
            )
        run = run_experiment(cluster, pairs, warmup=0.5, measure=3.0, drain=1.0)
        total = run.summary()
        assert total.committed > 50
        assert run.summary(label="timeline").aborted == 0  # RO never aborts
