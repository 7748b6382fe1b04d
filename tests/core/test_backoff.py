"""Client backoff with jitter (§16) and suspicion-dict hygiene."""

import random
from unittest.mock import patch

import pytest

from repro.core import client as client_module
from repro.core.config import SdurConfig
from repro.errors import ConfigurationError
from repro.overload import admission
from repro.overload.admission import AdmissionConfig
from repro.overload.backoff import BackoffPolicy

from tests.conftest import inflight_read, make_cluster, run_txn, update_program


class TestBackoffPolicy:
    def test_envelope_grows_geometrically_to_cap(self):
        policy = BackoffPolicy(base=0.1, cap=1.0, multiplier=2.0, jitter=0.0)
        assert [policy.envelope(a) for a in range(5)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.8, 1.0]
        )

    def test_huge_attempt_does_not_overflow(self):
        policy = BackoffPolicy(base=0.1, cap=2.0)
        assert policy.envelope(10_000) == 2.0

    def test_no_jitter_is_deterministic(self):
        policy = BackoffPolicy(base=0.1, cap=1.0, jitter=0.0)
        rng = random.Random(1)
        assert policy.delay(3, rng) == policy.envelope(3)

    def test_jitter_stays_inside_envelope(self):
        policy = BackoffPolicy(base=0.1, cap=1.0, jitter=0.5)
        rng = random.Random(42)
        for attempt in range(8):
            envelope = policy.envelope(attempt)
            for _ in range(50):
                delay = policy.delay(attempt, rng)
                assert envelope * 0.5 <= delay <= envelope

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base=0.0, cap=1.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base=1.0, cap=0.5)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base=0.1, cap=1.0, multiplier=0.5)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base=0.1, cap=1.0, jitter=1.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base=0.1, cap=1.0).envelope(-1)


class TestClientBusyBackoffTiming:
    def test_resubmits_follow_the_deterministic_envelope(self):
        """With jitter 0 the k-th Busy resubmission lands exactly
        ``base * 2**(k-1)`` after the shed (floored by retry_after)."""
        # One token, then ~forever to refill: every retry sheds too.
        config = SdurConfig(admission=AdmissionConfig(rate=0.0001, burst=1.0))
        with patch.object(admission, "RETRY_AFTER", 0.0), patch.multiple(
            client_module,
            BUSY_BACKOFF_BASE=0.1,
            BACKOFF_CAP=0.4,
            BACKOFF_JITTER=0.0,
            MAX_BUSY_RETRIES=3,
        ):
            cluster = make_cluster(1, config=config)
            client = cluster.add_client()
            cluster.start()
            first = run_txn(cluster, client, update_program(["0/a"]))
            assert first.committed
            start = cluster.world.now
            second = run_txn(cluster, client, update_program(["0/b"]), timeout=30.0)
        assert not second.committed and second.abort_reason == "shed (rate)"
        # Sheds at ~0 (initial), then resubmits after 0.1, 0.2, 0.4 —
        # the abort lands right after the third shed reply.
        elapsed = second.finished - start
        assert 0.7 <= elapsed <= 0.9
        assert client.stats.busy_replies == 4  # initial + 3 resubmissions

    def test_retry_after_floors_the_delay(self):
        config = SdurConfig(admission=AdmissionConfig(rate=0.0001, burst=1.0))
        with patch.object(admission, "RETRY_AFTER", 0.5), patch.multiple(
            client_module,
            BUSY_BACKOFF_BASE=0.01,
            BACKOFF_CAP=0.02,
            BACKOFF_JITTER=0.0,
            MAX_BUSY_RETRIES=2,
        ):
            cluster = make_cluster(1, config=config)
            client = cluster.add_client()
            cluster.start()
            run_txn(cluster, client, update_program(["0/a"]))
            start = cluster.world.now
            second = run_txn(cluster, client, update_program(["0/b"]), timeout=30.0)
        assert not second.committed
        # Two resubmissions, each floored to the server's 0.5 s hint.
        assert second.finished - start >= 1.0


class TestTimeoutBackoff:
    def test_commit_retry_delays_grow(self):
        """Commit-timeout retries back off exponentially when the server
        stays silent: resend k fires ``timeout * 2**k`` after resend k-1."""
        from repro.core.messages import CommitRequest

        cluster = make_cluster(1)
        with patch.object(client_module, "BACKOFF_JITTER", 0.0):
            client = cluster.add_client(commit_timeout=0.2)
        cluster.start()
        original_send = client.runtime.send
        client.runtime.send = lambda dst, msg: (
            None if isinstance(msg, CommitRequest) else original_send(dst, msg)
        )
        results = []
        client.execute(update_program(["0/x"]), results.append)
        cluster.world.run_for(1.5)
        # Reads finish in milliseconds; every commit send is then lost.
        # Resends at +0.2, +0.4, +0.8 → 3 by t=1.5 (a fixed timer would
        # have fired 7 times).
        assert client.stats.commit_resends == 3

    def test_read_retry_delays_grow(self):
        """Read-timeout retries back off exponentially against a silent
        partition (all replicas crashed)."""
        cluster = make_cluster(1)
        with patch.object(client_module, "BACKOFF_JITTER", 0.0):
            client = cluster.add_client(read_timeout=0.2)
        cluster.start()
        for node in list(cluster.servers):
            cluster.crash_server(node)
        results = []
        client.execute(update_program(["0/x"]), results.append)
        cluster.world.run_for(1.5)
        # Retries at +0.2, +0.4, +0.8 → 3 attempts recorded by t=1.5.
        assert inflight_read(client)[1].attempt == 3

    def test_suspected_dict_prunes_expired_entries(self):
        cluster = make_cluster(1)
        client = cluster.add_client()
        cluster.start()
        with patch.object(client_module, "SUSPECT_TTL", 0.5):
            client._suspect("s1")
            client._suspect("s2")
            assert set(client._suspected) == {"s1", "s2"}
            cluster.world.run_for(1.0)
            # Next suspicion write prunes everything already expired.
            client._suspect("s3")
        assert set(client._suspected) == {"s3"}
