"""Hypothesis property: admission shedding preserves exactly-once outcomes.

Shedding refuses work *before* atomic broadcast, and the client resubmits
the same tid after a Busy — so no matter how aggressively the server
sheds, each issued transaction must finish with exactly one outcome
callback, and a committed increment must be applied exactly once (the
final counter value equals the number of commits).  A double-apply on
resubmission, a lost callback on shed, or a shed transaction leaking
into a replica's log would all break these invariants.
"""

from unittest.mock import patch

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from repro.core import client as client_module
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.overload import admission
from repro.overload.admission import AdmissionConfig
from tests.conftest import update_program

admission_strategy = st.fixed_dictionaries(
    {
        # Tight enough that sheds actually happen under 3 eager clients.
        "rate": st.sampled_from([20.0, 60.0, None]),
        "burst": st.sampled_from([1.0, 4.0]),
        "max_inflight": st.sampled_from([2, 8, 256]),
        "max_queue_depth": st.sampled_from([2, 8, 512]),
        "seed": st.integers(0, 2**16),
        "max_busy_retries": st.sampled_from([2, 8]),
    }
)


class TestSheddingExactlyOnce:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(params=admission_strategy)
    def test_every_txn_one_outcome_and_no_double_apply(self, params):
        with patch.object(admission, "RETRY_AFTER", 0.01), patch.multiple(
            client_module,
            BUSY_BACKOFF_BASE=0.02,
            BACKOFF_CAP=0.2,
            MAX_BUSY_RETRIES=params["max_busy_retries"],
        ):
            self._run(params)

    @staticmethod
    def _run(params):
        config = SdurConfig(
            admission=AdmissionConfig(
                rate=params["rate"],
                burst=params["burst"],
                max_inflight=params["max_inflight"],
                max_queue_depth=params["max_queue_depth"],
            )
        )
        cluster = build_cluster(
            lan_deployment(1),
            PartitionMap.by_index(1),
            config,
            seed=params["seed"],
            intra_delay=0.001,
            jitter_fraction=0.3,
        )
        cluster.seed({"0/hot": 0})
        clients = [cluster.add_client() for _ in range(3)]
        cluster.start()
        recorder = cluster.attach_recorder()
        num_txns = 24
        done = []
        issued = [0]

        def issue(client):
            issued[0] += 1

            def on_done(result):
                done.append(result)
                if issued[0] < num_txns:
                    issue(client)

            client.execute(update_program(["0/hot"]), on_done)

        for client in clients:
            issue(client)
        cluster.world.run_for(90.0)

        # Exactly one outcome per issued transaction — a shed must abort
        # or (after retry) commit, never vanish and never report twice.
        assert len(done) == issued[0]
        assert len({r.tid for r in done}) == len(done)

        # Exactly-once application: the hot counter equals the number of
        # committed increments (a Busy resubmission must not double-apply).
        committed = sum(1 for r in done if r.committed)
        final = cluster.servers["s1"].server.store.read_latest("0/hot").value or 0
        assert final == committed, f"{committed} commits but value {final}"

        # Shed transactions never enter any replica's log, so replicas
        # still agree and the committed history stays serializable.
        for result in done:
            recorder.record_result(result)
        replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()
        check_serializability(recorder).raise_if_failed()

        # The run must actually exercise admission (sheds or admits > 0).
        stats = cluster.server_stats()
        assert any(s["admitted"] > 0 for s in stats.values())
