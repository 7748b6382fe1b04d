"""Hypothesis-driven end-to-end invariants of the whole system.

Each example generates a random configuration (partitions, reorder
threshold, delaying, bloom digests, jitter, conflict intensity) and a
random concurrent workload, runs it through the full simulated stack,
and asserts the two non-negotiable invariants:

1. **Serializability** — the multiversion serialization graph of the
   committed history is acyclic (paper §II-B);
2. **Replica determinism** — every replica of a partition commits the
   same transactions at the same versions (paper §IV-G).

Shrinking over this space has already caught two real protocol races
(see DESIGN.md, "Protocol corrections").
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from repro.core.config import DelayMode, SdurConfig
from repro.core.partitioning import PartitionMap
from repro.geo.deployments import lan_deployment, wan1_deployment
from repro.harness.cluster import build_cluster
from tests.conftest import update_program
from tests.oracles import optimistic_termination

config_strategy = st.fixed_dictionaries(
    {
        "num_partitions": st.integers(2, 3),
        "reorder_threshold": st.sampled_from([0, 4, 12]),
        "delay_fixed": st.sampled_from([0.0, 0.01]),
        "bloom": st.booleans(),
        "wan": st.booleans(),
        "keyspace": st.integers(3, 10),
        "global_p": st.floats(0.0, 0.6),
        "seed": st.integers(0, 2**16),
    }
)


def run_system(params, num_txns=30, optimistic_oracle=False):
    num_partitions = 2 if params["wan"] else params["num_partitions"]
    config = SdurConfig(
        reorder_threshold=params["reorder_threshold"],
        delay_mode=DelayMode.FIXED if params["delay_fixed"] else DelayMode.OFF,
        delay_fixed=params["delay_fixed"],
    )
    if params["wan"]:
        cluster = build_cluster(
            wan1_deployment(2),
            PartitionMap.by_index(2),
            config,
            seed=params["seed"],
            jitter_fraction=0.15,
        )
    else:
        cluster = build_cluster(
            lan_deployment(num_partitions),
            PartitionMap.by_index(num_partitions),
            config,
            seed=params["seed"],
            intra_delay=0.001,
            jitter_fraction=0.3,
        )
    clients = [
        cluster.add_client(bloom_readsets=params["bloom"], bloom_fp_rate=0.01)
        for _ in range(3)
    ]
    if optimistic_oracle:
        optimistic_termination.install(cluster)
    cluster.start()
    recorder = cluster.attach_recorder()
    cluster.world.run_for(0.5)
    rng = cluster.world.rng.stream("prop-workload")
    done = []
    issued = [0]

    def issue(client):
        issued[0] += 1
        if num_partitions > 1 and rng.random() < params["global_p"]:
            pa, pb = rng.sample(range(num_partitions), 2)
            keys = [
                f"{pa}/k{rng.randrange(params['keyspace'])}",
                f"{pb}/k{rng.randrange(params['keyspace'])}",
            ]
        else:
            home = rng.randrange(num_partitions)
            keys = sorted(
                {
                    f"{home}/k{rng.randrange(params['keyspace'])}",
                    f"{home}/k{rng.randrange(params['keyspace'])}",
                }
            )

        def on_done(result):
            done.append(result)
            if issued[0] < num_txns:
                issue(client)

        client.execute(update_program(keys), on_done)

    for client in clients:
        issue(client)
    cluster.world.run_for(120.0)
    for result in done:
        recorder.record_result(result)
    return cluster, recorder, done


class TestSystemInvariants:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(params=config_strategy)
    def test_serializable_and_deterministic(self, params):
        cluster, recorder, done = run_system(params)
        assert len(done) >= 30, "workload did not complete"
        check_serializability(recorder).raise_if_failed()
        replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()

    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16))
    def test_high_contention_single_key_never_loses_updates(self, seed):
        """All commits on one hot counter must be serial increments: the
        final value equals the number of committed increments."""
        cluster = build_cluster(
            lan_deployment(2),
            PartitionMap.by_index(2),
            SdurConfig(reorder_threshold=4),
            seed=seed,
            intra_delay=0.001,
            jitter_fraction=0.3,
        )
        cluster.seed({"0/hot": 0, "1/side": 0})
        clients = [cluster.add_client() for _ in range(3)]
        cluster.start()
        cluster.world.run_for(0.5)
        done = []
        issued = [0]

        def issue(client):
            issued[0] += 1

            def on_done(result):
                done.append(result)
                if issued[0] < 20:
                    issue(client)

            client.execute(update_program(["0/hot", "1/side"]), on_done)

        for client in clients:
            issue(client)
        cluster.world.run_for(60.0)
        committed = sum(1 for r in done if r.committed)
        final = cluster.servers["s1"].server.store.read_latest("0/hot").value or 0
        assert final == committed, f"lost updates: {committed} commits, value {final}"
