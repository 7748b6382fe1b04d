"""Admission control (docs/PROTOCOL.md §16): units and server behavior."""

from unittest.mock import patch

import pytest

from repro.core import client as client_module
from repro.core.config import SdurConfig
from repro.core.transaction import Outcome, TxnId
from repro.errors import ConfigurationError
from repro.overload import admission
from repro.overload.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)

from tests.conftest import make_cluster, run_txn, update_program


class TestTokenBucket:
    def test_burst_then_refusal(self):
        bucket = TokenBucket(rate=10.0, capacity=3.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [True, True, True, False]

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=10.0, capacity=3.0)
        for _ in range(3):
            bucket.try_take(0.0)
        assert not bucket.try_take(0.05)  # half a token so far
        assert bucket.try_take(0.1)

    def test_never_exceeds_capacity(self):
        bucket = TokenBucket(rate=1000.0, capacity=2.0)
        assert [bucket.try_take(100.0) for _ in range(3)] == [True, True, False]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, capacity=0.0)


class TestAdmissionConfigValidation:
    def test_bad_values_rejected(self):
        for kwargs in (
            {"rate": 0.0},
            {"rate": -1.0},
            {"burst": 0.0},
            {"max_inflight": 0},
            {"max_queue_depth": 0},
        ):
            with pytest.raises(ConfigurationError):
                AdmissionConfig(**kwargs)


def tid(seq: int) -> TxnId:
    return TxnId(client="c", seq=seq)


class TestAdmissionController:
    def test_queue_bound_sheds_first(self):
        ctl = AdmissionController(AdmissionConfig(max_queue_depth=4))
        assert ctl.admit_commit(tid(1), 0.0, queue_depth=4) is AdmissionDecision.SHED_QUEUE
        assert ctl.admit_commit(tid(1), 0.0, queue_depth=3) is AdmissionDecision.ADMIT
        assert ctl.shed_queue == 1 and ctl.admitted == 1

    def test_inflight_bound_and_release(self):
        ctl = AdmissionController(AdmissionConfig(max_inflight=2))
        assert ctl.admit_commit(tid(1), 0.0, 0).admitted
        assert ctl.admit_commit(tid(2), 0.0, 0).admitted
        assert ctl.admit_commit(tid(3), 0.0, 0) is AdmissionDecision.SHED_INFLIGHT
        ctl.note_completed(tid(1))
        assert ctl.admit_commit(tid(3), 0.0, 0).admitted
        assert ctl.inflight == 2

    def test_rate_bound(self):
        ctl = AdmissionController(AdmissionConfig(rate=10.0, burst=1.0))
        assert ctl.admit_commit(tid(1), 0.0, 0).admitted
        assert ctl.admit_commit(tid(2), 0.0, 0) is AdmissionDecision.SHED_RATE
        assert ctl.admit_commit(tid(3), 0.2, 0).admitted  # 2 tokens refilled, cap 1

    def test_resubmission_of_admitted_tid_is_free(self):
        """A still-in-flight tid re-admits without a slot or token."""
        ctl = AdmissionController(AdmissionConfig(rate=10.0, burst=1.0, max_inflight=1))
        assert ctl.admit_commit(tid(1), 0.0, 0).admitted
        # Same tid: bucket empty and inflight full, yet it passes.
        assert ctl.admit_commit(tid(1), 0.0, 0).admitted
        assert ctl.inflight == 1 and ctl.shed_total == 0

    def test_inflight_ttl_leak_guard(self):
        ctl = AdmissionController(AdmissionConfig(max_inflight=1))
        with patch.object(admission, "INFLIGHT_TTL", 5.0):
            assert ctl.admit_commit(tid(1), 0.0, 0).admitted
        assert ctl.admit_commit(tid(2), 1.0, 0) is AdmissionDecision.SHED_INFLIGHT
        # tid 1's coordinator never learned the outcome; the slot expires.
        assert ctl.admit_commit(tid(2), 6.0, 0).admitted


class TestServerAdmission:
    def test_admission_off_counts_admits_and_never_sheds(self):
        cluster = make_cluster(1)
        client = cluster.add_client()
        cluster.start()
        result = run_txn(cluster, client, update_program(["0/x"]))
        assert result.outcome is Outcome.COMMIT
        stats = cluster.server_stats()
        session = client.config.session_server
        assert stats[session]["admitted"] >= 1
        assert all(s["shed_total"] == 0 for s in stats.values())

    def test_rate_shed_busy_reply_and_client_retry(self):
        """A shed commit is refused with Busy; the client resubmits the
        same tid after backing off and eventually commits."""
        config = SdurConfig(admission=AdmissionConfig(rate=1.0, burst=1.0))
        cluster = make_cluster(1, config=config)
        # Enough resubmissions to outlast the refill: the default gives
        # up after 0.75 s of backoff.
        with patch.multiple(client_module, BACKOFF_JITTER=0.0, MAX_BUSY_RETRIES=16):
            client = cluster.add_client()
            cluster.start()
            first = run_txn(cluster, client, update_program(["0/a"]))
            assert first.committed
            # Bucket now empty (burst 1): the next commit gets shed at least
            # once, then admitted after ~1 s of refill via backoff retries.
            second = run_txn(cluster, client, update_program(["0/b"]))
        assert second.committed
        assert client.stats.busy_replies >= 1
        session = client.config.session_server
        assert cluster.server_stats()[session]["shed_total"] >= 1

    def test_shed_exhaustion_aborts_with_reason(self):
        config = SdurConfig(admission=AdmissionConfig(rate=0.001, burst=1.0))
        cluster = make_cluster(1, config=config)
        with patch.multiple(
            client_module, BUSY_BACKOFF_BASE=0.01, BACKOFF_CAP=0.02, MAX_BUSY_RETRIES=2
        ):
            client = cluster.add_client()
            cluster.start()
            first = run_txn(cluster, client, update_program(["0/a"]))
            assert first.committed  # consumed the only token for ~17 min
            second = run_txn(cluster, client, update_program(["0/b"]))
        assert not second.committed
        assert second.abort_reason == "shed (rate)"
        assert client.stats.shed_aborts == 1

    def test_queue_depth_counters_exported(self):
        cluster = make_cluster(1)
        client = cluster.add_client()
        cluster.start()
        run_txn(cluster, client, update_program(["0/x"]))
        stats = next(iter(cluster.server_stats().values()))
        for counter in (
            "admitted",
            "shed_total",
            "queue_depth",
            "queue_depth_max",
            "stall_depth_max",
        ):
            assert counter in stats

    def test_busy_does_not_suspect_the_server(self):
        config = SdurConfig(admission=AdmissionConfig(rate=1.0, burst=1.0))
        cluster = make_cluster(1, config=config)
        client = cluster.add_client(commit_timeout=5.0)
        cluster.start()
        run_txn(cluster, client, update_program(["0/a"]))
        run_txn(cluster, client, update_program(["0/b"]))
        # The busy server answered; it must not be on the suspect list.
        assert client.config.session_server not in client._suspected
