"""Unit tests for the watermark-hysteresis scale policy.

The policy is pure (no cluster, no clock), so these tests drive it with
synthetic pressure traces and assert exactly which tick fires.
"""

from repro.autoscale import AutoscaleConfig, ScalePolicy


def make_policy(**overrides) -> ScalePolicy:
    defaults = dict(
        interval=1.0,
        capacity=1000.0,
        high_water=0.75,
        low_water=0.25,
        sustain=3,
        cooldown=5.0,
        min_partitions=1,
        max_partitions=8,
    )
    defaults.update(overrides)
    return ScalePolicy(AutoscaleConfig(**defaults))


def tick(policy, now, pressures, adjacency=(), active=None):
    return policy.decide(
        now, pressures, list(adjacency), active if active is not None else len(pressures)
    )


class TestSplitHysteresis:
    def test_fires_only_after_sustain_consecutive_samples(self):
        policy = make_policy(sustain=3)
        assert tick(policy, 0.0, {"p0": 900.0}).action == "hold"
        assert tick(policy, 1.0, {"p0": 900.0}).action == "hold"
        decision = tick(policy, 2.0, {"p0": 900.0})
        assert decision.action == "split"
        assert decision.partition == "p0"

    def test_a_dip_resets_the_streak(self):
        policy = make_policy(sustain=3)
        tick(policy, 0.0, {"p0": 900.0})
        tick(policy, 1.0, {"p0": 900.0})
        tick(policy, 2.0, {"p0": 100.0})  # dip: streak back to zero
        assert tick(policy, 3.0, {"p0": 900.0}).action == "hold"
        assert tick(policy, 4.0, {"p0": 900.0}).action == "hold"
        assert tick(policy, 5.0, {"p0": 900.0}).action == "split"

    def test_pressure_at_the_watermark_does_not_count(self):
        policy = make_policy(sustain=1)
        # high water = 750 exactly: not *above*, so no streak.
        assert tick(policy, 0.0, {"p0": 750.0}).action == "hold"
        assert tick(policy, 1.0, {"p0": 750.1}).action == "split"

    def test_picks_the_hottest_ripe_partition(self):
        policy = make_policy(sustain=1)
        decision = tick(policy, 0.0, {"p0": 800.0, "p1": 950.0, "p2": 100.0})
        assert decision.action == "split"
        assert decision.partition == "p1"

    def test_respects_max_partitions(self):
        policy = make_policy(sustain=1, max_partitions=2)
        assert tick(policy, 0.0, {"p0": 900.0, "p1": 900.0}).action == "hold"


class TestMergeHysteresis:
    ADJ = [("p2", "p0")]

    def test_both_sides_must_sustain_under(self):
        policy = make_policy(sustain=2, min_partitions=1)
        quiet = {"p0": 50.0, "p2": 40.0}
        assert tick(policy, 0.0, quiet, self.ADJ, active=3).action == "hold"
        decision = tick(policy, 1.0, quiet, self.ADJ, active=3)
        assert decision.action == "merge"
        assert decision.partition == "p2"
        assert decision.into == "p0"

    def test_one_warm_side_blocks_the_pair(self):
        policy = make_policy(sustain=2, min_partitions=1)
        for t in range(5):
            decision = tick(
                policy, float(t), {"p0": 500.0, "p2": 40.0}, self.ADJ, active=3
            )
            assert decision.action == "hold"

    def test_respects_min_partitions(self):
        policy = make_policy(sustain=1, min_partitions=2)
        quiet = {"p0": 50.0, "p2": 40.0}
        assert tick(policy, 0.0, quiet, self.ADJ, active=2).action == "hold"
        assert tick(policy, 1.0, quiet, self.ADJ, active=3).action == "merge"

    def test_picks_the_coolest_pair(self):
        policy = make_policy(sustain=1, min_partitions=1)
        adjacency = [("p2", "p0"), ("p3", "p1")]
        pressures = {"p0": 100.0, "p2": 100.0, "p1": 10.0, "p3": 10.0}
        decision = tick(policy, 0.0, pressures, adjacency, active=4)
        assert (decision.partition, decision.into) == ("p3", "p1")

    def test_split_beats_merge(self):
        policy = make_policy(sustain=1, min_partitions=1)
        pressures = {"p0": 50.0, "p2": 40.0, "p1": 900.0}
        decision = tick(policy, 0.0, pressures, self.ADJ, active=3)
        assert decision.action == "split"
        assert decision.partition == "p1"


class TestCooldown:
    def test_candidate_inside_cooldown_is_suppressed_not_queued(self):
        policy = make_policy(sustain=1, cooldown=5.0)
        assert tick(policy, 0.0, {"p0": 900.0, "p1": 100.0}).action == "split"
        # p1 heats up during the cooldown window: suppressed, flagged.
        suppressed = tick(policy, 1.0, {"p0": 100.0, "p1": 900.0})
        assert suppressed.action == "hold"
        assert suppressed.suppressed_by_cooldown
        # Once the window passes the (still-ripe) candidate fires.
        decision = tick(policy, 6.0, {"p0": 100.0, "p1": 900.0})
        assert decision.action == "split"
        assert decision.partition == "p1"

    def test_streaks_keep_counting_while_suppressed(self):
        policy = make_policy(sustain=3, cooldown=10.0)
        assert tick(policy, 0.0, {"p0": 900.0, "p1": 100.0}, active=2, adjacency=[]).action == "hold"
        assert tick(policy, 1.0, {"p0": 900.0, "p1": 100.0}).action == "hold"
        assert tick(policy, 2.0, {"p0": 900.0, "p1": 100.0}).action == "split"
        # p1 sustains over the watermark entirely inside the cooldown:
        # the first two ticks just build the streak (no candidate yet),
        # the third has a ripe candidate that the cooldown swallows.
        assert not tick(policy, 3.0, {"p0": 100.0, "p1": 900.0}).suppressed_by_cooldown
        assert not tick(policy, 4.0, {"p0": 100.0, "p1": 900.0}).suppressed_by_cooldown
        assert tick(policy, 5.0, {"p0": 100.0, "p1": 900.0}).suppressed_by_cooldown
        # … and fires on the first tick after it expires: the streak
        # survived suppression, only the *action* waited.
        assert tick(policy, 12.0, {"p0": 100.0, "p1": 900.0}).action == "split"

    def test_acting_resets_the_winners_streaks(self):
        policy = make_policy(sustain=2, cooldown=0.1, min_partitions=1)
        quiet = {"p0": 50.0, "p2": 40.0}
        tick(policy, 0.0, quiet, [("p2", "p0")], active=3)
        assert tick(policy, 1.0, quiet, [("p2", "p0")], active=3).action == "merge"
        # Same quiet pressures immediately after: both streaks were
        # consumed by the action, so the pair must re-earn sustain.
        assert tick(policy, 2.0, quiet, [("p2", "p0")], active=3).action == "hold"

    def test_vanished_partition_drops_its_streak(self):
        policy = make_policy(sustain=2)
        tick(policy, 0.0, {"p0": 900.0, "p1": 900.0})
        # p1 disappears (merged away elsewhere); only p0's streak lives.
        decision = tick(policy, 1.0, {"p0": 900.0})
        assert decision.action == "split"
        assert decision.partition == "p0"
        assert "p1" not in policy._over
