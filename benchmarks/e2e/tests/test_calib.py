"""Calibrated seconds: the factor arithmetic, and what ``per_epoch`` does
with it on a hand-built window."""

import pytest

from calib import REF_SLICE_S, Calibrator, CalMark, between
from loadgen import TxnRecord
from run import Epoch, Mark, end_to_end, per_epoch


def test_factors_are_mean_slice_time_over_the_reference():
    speed = between(CalMark(10, 1.0, 0.5), CalMark(110, 1.0 + 100 * 3 * REF_SLICE_S, 0.5 + 100 * 2 * REF_SLICE_S))
    assert speed.slices == 100
    assert speed.wall_factor == pytest.approx(3.0)
    assert speed.cpu_factor == pytest.approx(2.0)
    # No slice ran: nothing to calibrate with, times stay as measured.
    assert between(CalMark(5, 1.0, 1.0), CalMark(5, 1.0, 1.0)).wall_factor == 1.0


def _epoch(slow: float, commits: int, latency_s: float) -> Epoch:
    """A 2 s window on a machine ``slow`` times slower than the reference:
    100 slices ran in it, and ``commits`` transactions committed."""
    slices_s = 100 * slow * REF_SLICE_S
    start = Mark(10.0, 5.0, 1000, CalMark(0, 0.0, 0.0))
    end = Mark(12.0 + slices_s, 7.0 + slices_s, 1000 + commits, CalMark(100, slices_s, slices_s))
    records = [
        TxnRecord(i, "local", 10.5, 10.5, 10.5 + latency_s, True, None) for i in range(commits)
    ]
    return Epoch(0.1, records, 0, (start, end), {}, [], [])


def test_a_slower_machine_reads_the_same_in_calibrated_seconds():
    # Twice as slow: half the commits in the window, twice the latency.
    quiet, slowed = per_epoch([_epoch(1.0, 1000, 0.010), _epoch(2.0, 500, 0.020)])
    for row in (quiet, slowed):
        assert row["committed_tps"] == pytest.approx(500.0)  # slices' own time taken out
        assert row["commit_p50_ms"] == pytest.approx(10.0)
        assert row["cpu_ms_per_commit"] == pytest.approx(2.0)
    assert slowed["raw.commit_p50_ms"] == pytest.approx(20.0)
    assert slowed["wall_factor"] == pytest.approx(2.0)


def test_timing_metrics_are_the_median_of_the_measured_epochs():
    rows = per_epoch(
        [_epoch(1.0, 10, 0.5)]  # the warm-up epoch: only its memory growth counts
        + [_epoch(1.0, commits, 0.010) for commits in (1000, 1200, 400, 1100, 900)]
    )
    values = end_to_end(rows)
    assert values["committed_tps"] == pytest.approx(500.0)  # 1000 commits in 2 s
    assert values["commit_p50_ms"] == pytest.approx(10.0)
    assert values["rss_kb_per_commit"] == pytest.approx(1.0)


def test_burst_runs_slices_and_sets_the_pace():
    calibrator = Calibrator()
    try:
        speed = calibrator.burst(0.02)
        assert speed.slices >= 5 and calibrator.slices == speed.slices
        assert 0.0 < speed.cpu_s <= speed.wall_s * 1.05
        assert calibrator.pace() == pytest.approx(speed.wall_factor)
        assert calibrator.since(calibrator.mark()).slices == 0
    finally:
        calibrator.close()
