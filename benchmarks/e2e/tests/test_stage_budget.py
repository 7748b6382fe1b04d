"""The stage budget telescopes to the recorded latency exactly."""

import random

from layers import STAGES, stage_breakdown
from loadgen import TxnRecord


def test_stages_sum_to_latency_with_zero_residual():
    rng = random.Random(3)
    for _ in range(200):
        due = rng.uniform(0, 1000)
        marks = sorted(due + rng.uniform(0, 0.5) for _ in range(5))
        record = TxnRecord("t", "local", due, marks[0], marks[4], True, None)
        stamps = dict(zip(("commit_sent", "submit_arrived", "delivered", "reply_sent"), marks[:4]))
        parts = stage_breakdown(record, stamps)
        assert tuple(parts) == STAGES
        assert all(seconds >= 0 for seconds in parts.values())
        # Telescoping differences of one clock: equal up to float rounding.
        assert abs(sum(parts.values()) - record.latency) < 1e-12


def test_incomplete_stamps_are_left_out():
    record = TxnRecord("t", "local", 0.0, 0.0, 1.0, True, None)
    assert stage_breakdown(record, {"commit_sent": 0.1}) is None
