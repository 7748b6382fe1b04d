"""Unit tests for the replica-agreement checker."""

import pytest

from repro.checker import HistoryRecorder, replica_agreement
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection


def tid(n):
    return TxnId("c", n)


def projection(t, partition, keys, partitions):
    return TxnProjection(
        tid=t,
        partition=partition,
        readset=ReadsetDigest.exact(keys),
        writeset={k: 1 for k in keys},
        snapshot=0,
        partitions=partitions,
        coordinator="s1",
        client="c1",
    )


def commit(recorder, node, t, partition, version):
    recorder.on_commit(node, t, partition, version, projection(t, partition, ["x"], (partition,)))


class TestReplicaAgreement:
    def test_identical_histories_agree(self):
        recorder = HistoryRecorder()
        for node in ("s1", "s2", "s3"):
            for n in (1, 2, 3):
                commit(recorder, node, tid(n), "p0", n)
        report = replica_agreement(recorder, {"p0": 3})
        assert report.ok
        assert report.num_replicas == 3
        assert report.num_commits == 3
        report.raise_if_failed()

    def test_swapped_versions_detected(self):
        """The arrival-time reorder race: two replicas commit the same
        two transactions at swapped versions."""
        recorder = HistoryRecorder()
        commit(recorder, "s1", tid(1), "p0", 1)
        commit(recorder, "s1", tid(2), "p0", 2)
        commit(recorder, "s2", tid(2), "p0", 1)
        commit(recorder, "s2", tid(1), "p0", 2)
        report = replica_agreement(recorder)
        assert not report.ok
        assert any("version 1" in issue for issue in report.issues)
        with pytest.raises(AssertionError, match="replicas disagree"):
            report.raise_if_failed()

    def test_midstream_hole_detected_without_drain_hint(self):
        recorder = HistoryRecorder()
        for n in (1, 2, 3):
            commit(recorder, "s1", tid(n), "p0", n)
        commit(recorder, "s2", tid(1), "p0", 1)
        commit(recorder, "s2", tid(3), "p0", 3)  # skipped version 2
        report = replica_agreement(recorder)
        assert not report.ok
        assert any("skipped" in issue for issue in report.issues)

    def test_tail_gap_tolerated_unless_drained(self):
        """A lagging replica is fine mid-run but divergence after drain."""
        recorder = HistoryRecorder()
        for n in (1, 2, 3):
            commit(recorder, "s1", tid(n), "p0", n)
        for n in (1, 2):
            commit(recorder, "s2", tid(n), "p0", n)
        assert replica_agreement(recorder).ok
        report = replica_agreement(recorder, {"p0": 2})
        assert not report.ok

    def test_non_monotonic_history_detected(self):
        recorder = HistoryRecorder()
        commit(recorder, "s1", tid(1), "p0", 2)
        commit(recorder, "s1", tid(2), "p0", 1)
        report = replica_agreement(recorder)
        assert not report.ok
        assert any("non-monotonic" in issue for issue in report.issues)

    def test_partitions_checked_independently(self):
        recorder = HistoryRecorder()
        commit(recorder, "s1", tid(1), "p0", 1)
        commit(recorder, "s2", tid(1), "p0", 1)
        commit(recorder, "q1", tid(2), "p1", 1)
        commit(recorder, "q2", tid(2), "p1", 1)
        assert replica_agreement(recorder, {"p0": 2, "p1": 2}).ok

    def test_recorded_violations_surface_in_report(self):
        recorder = HistoryRecorder()
        commit(recorder, "s1", tid(1), "p0", 1)
        commit(recorder, "s2", tid(1), "p0", 2)  # same txn, different version
        assert recorder.violations
        report = replica_agreement(recorder)
        assert not report.ok
