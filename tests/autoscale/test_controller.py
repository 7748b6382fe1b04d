"""Integration: the autoscale controller splits and merges on its own.

A downsized end-to-end loop — no scheduled faults, no operator: clients
hammer partition 0 until the controller splits it, then the load stops
and the cooled child is merged back.  The committed history must stay
serializable throughout (the merge install is recorded as a synthetic
commit).
"""

from repro.autoscale import AutoscaleConfig
from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from tests.conftest import make_cluster, update_program

CONTROL = AutoscaleConfig(
    interval=0.25,
    capacity=200.0,
    high_water=0.5,
    low_water=0.1,
    sustain=2,
    cooldown=1.0,
    min_partitions=2,
    max_partitions=3,
    ewma_alpha=0.7,
)

HOT_UNTIL = 3.0
RUN_FOR = 10.0


class TestAutoscaleController:
    def test_controller_splits_then_merges_autonomously(self):
        cluster = make_cluster(num_partitions=2, seed=23)
        cluster.seed({f"0/k{i}": 0 for i in range(12)})
        cluster.seed({f"1/k{i}": 0 for i in range(4)})
        controller = cluster.enable_autoscale(CONTROL)
        clients = [cluster.add_client() for _ in range(4)]
        cluster.start()
        recorder = cluster.attach_recorder()

        rng = cluster.world.rng.stream("autoscale-load")
        done = []

        def issue(client):
            # Hot on partition 0 until HOT_UNTIL, then the load stops
            # and the split child has nothing left to do.
            keys = sorted({f"0/k{rng.randrange(12)}" for _ in range(2)})

            def on_done(result):
                done.append(result)
                if cluster.world.now < HOT_UNTIL:
                    issue(client)

            client.execute(update_program(keys), on_done)

        for client in clients:
            issue(client)
        cluster.world.run(until=RUN_FOR)
        for result in done:
            recorder.record_result(result)

        counters = controller.counters()
        assert counters["splits_triggered"] >= 1
        assert counters["merges_triggered"] >= 1
        actions = [action for _t, action, _p, _into in controller.events]
        assert actions.index("split") < actions.index("merge")
        # The child was folded back: the active set is the seed layout.
        assert cluster.routing.active_partitions() == ["p0", "p1"]
        assert "p2" in cluster.routing.retired

        assert done and any(r.committed for r in done)
        check_serializability(recorder).raise_if_failed()
        replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()
