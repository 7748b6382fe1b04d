"""Unit tests for the serializability checker on hand-built histories."""

from repro.checker.agreement import replica_agreement
from repro.checker.history import HistoryRecorder
from repro.checker.serializability import check_serializability
from repro.core.client import TxnResult
from repro.core.transaction import Outcome, ReadsetDigest, TxnId, TxnProjection


def projection(tid, partition, ws_keys, partitions):
    return TxnProjection(
        tid=tid,
        partition=partition,
        readset=ReadsetDigest.exact([]),
        writeset={key: 1 for key in ws_keys},
        snapshot=0,
        partitions=partitions,
        coordinator="s",
        client="c",
    )


def make_result(tid, reads, writes, partitions=("p0",), committed=True):
    return TxnResult(
        tid=tid,
        outcome=Outcome.COMMIT if committed else Outcome.ABORT,
        started=0.0,
        finished=1.0,
        is_global=len(partitions) > 1,
        read_only=not writes,
        partitions=partitions,
        read_versions=dict(reads),
        writes={key: 1 for key in writes},
    )


def record_commit(recorder, tid, partition, version, ws_keys, partitions):
    recorder.on_commit(
        "server", tid, partition, version, projection(tid, partition, ws_keys, partitions)
    )


class TestAcyclicHistories:
    def test_empty_history_ok(self):
        report = check_serializability(HistoryRecorder())
        assert report.ok

    def test_serial_chain_ok(self):
        recorder = HistoryRecorder()
        t1, t2 = TxnId("c", 1), TxnId("c", 2)
        record_commit(recorder, t1, "p0", 1, ["x"], ("p0",))
        record_commit(recorder, t2, "p0", 2, ["x"], ("p0",))
        recorder.record_result(make_result(t1, {"x": 0}, ["x"]))
        recorder.record_result(make_result(t2, {"x": 1}, ["x"]))
        report = check_serializability(recorder)
        assert report.ok
        assert report.num_edges >= 2  # T0->t1 (ww), t1->t2 (wr+ww)

    def test_read_only_snapshot_ok(self):
        recorder = HistoryRecorder()
        t1 = TxnId("c", 1)
        record_commit(recorder, t1, "p0", 1, ["x"], ("p0",))
        recorder.record_result(make_result(t1, {"x": 0}, ["x"]))
        recorder.record_result(make_result(TxnId("r", 1), {"x": 1, "y": 0}, []))
        assert check_serializability(recorder).ok


class TestViolations:
    def test_split_global_snapshot_is_a_cycle(self):
        """A read-only transaction seeing a global's write in p0 but not
        its write in p1 creates t -> RO -> t."""
        recorder = HistoryRecorder()
        t = TxnId("c", 1)
        record_commit(recorder, t, "p0", 1, ["x"], ("p0", "p1"))
        record_commit(recorder, t, "p1", 1, ["y"], ("p0", "p1"))
        recorder.record_result(make_result(t, {"x": 0, "y": 0}, ["x", "y"], ("p0", "p1")))
        # RO read x at version 1 (t visible) and y at version 0 (t missing).
        recorder.record_result(make_result(TxnId("r", 1), {"x": 1, "y": 0}, []))
        report = check_serializability(recorder)
        assert not report.ok
        assert report.cycle is not None

    def test_lost_update_is_a_cycle(self):
        """Two transactions both read version 0 of x and both commit
        writes — a lost update (rw + ww cycle)."""
        recorder = HistoryRecorder()
        t1, t2 = TxnId("c", 1), TxnId("c", 2)
        record_commit(recorder, t1, "p0", 1, ["x"], ("p0",))
        record_commit(recorder, t2, "p0", 2, ["x"], ("p0",))
        recorder.record_result(make_result(t1, {"x": 0}, ["x"]))
        recorder.record_result(make_result(t2, {"x": 0}, ["x"]))  # stale read!
        report = check_serializability(recorder)
        assert not report.ok

    def test_client_commit_without_server_record_flagged(self):
        recorder = HistoryRecorder()
        recorder.record_result(make_result(TxnId("c", 1), {"x": 0}, ["x"]))
        report = check_serializability(recorder)
        assert not report.ok
        assert any("never at servers" in issue for issue in report.issues)

    def test_client_abort_with_server_commit_flagged(self):
        """A replica that commits what its client was told aborted (a
        restored replica answering a resent, committed request with
        ``abort``) leaves no cycle: only this check sees it."""
        recorder = HistoryRecorder()
        t = TxnId("c", 1)
        record_commit(recorder, t, "p0", 1, ["x"], ("p0",))
        recorder.record_result(make_result(t, {"x": 0}, ["x"], committed=False))
        report = check_serializability(recorder)
        assert not report.ok
        assert any("aborted at client but committed" in issue for issue in report.issues)

    def test_partial_global_commit_flagged(self):
        recorder = HistoryRecorder()
        t = TxnId("c", 1)
        record_commit(recorder, t, "p0", 1, ["x"], ("p0", "p1"))
        recorder.record_result(make_result(t, {"x": 0, "y": 0}, ["x", "y"], ("p0", "p1")))
        report = check_serializability(recorder)
        assert not report.ok
        assert any("missing commit record" in issue for issue in report.issues)

    def test_unknown_read_version_flagged(self):
        recorder = HistoryRecorder()
        t = TxnId("c", 1)
        record_commit(recorder, t, "p0", 1, ["x"], ("p0",))
        recorder.record_result(make_result(t, {"x": 0}, ["x"]))
        recorder.record_result(make_result(TxnId("r", 1), {"x": 7}, []))
        report = check_serializability(recorder)
        assert not report.ok


class TestRecorder:
    def test_replica_divergence_detected(self):
        recorder = HistoryRecorder()
        t = TxnId("c", 1)
        record_commit(recorder, t, "p0", 1, ["x"], ("p0",))
        recorder.on_commit(
            "other-replica", t, "p0", 2, projection(t, "p0", ["x"], ("p0",))
        )
        assert recorder.violations
        report = check_serializability(recorder)
        assert not report.ok

    def test_agreeing_replicas_accumulate_reporters(self):
        recorder = HistoryRecorder()
        t = TxnId("c", 1)
        proj = projection(t, "p0", ["x"], ("p0",))
        for replica in ("s1", "s2", "s3"):
            recorder.on_commit(replica, t, "p0", 1, proj)
        replica_agreement(recorder, {"p0": 3}).raise_if_failed()

    def test_missing_reporters_detected(self):
        recorder = HistoryRecorder()
        t = TxnId("c", 1)
        record_commit(recorder, t, "p0", 1, ["x"], ("p0",))
        try:
            replica_agreement(recorder, {"p0": 3}).raise_if_failed()
        except AssertionError as exc:
            assert "1 of 3" in str(exc)
        else:
            raise AssertionError("expected a reporter-count failure")
