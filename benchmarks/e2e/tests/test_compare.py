"""compare.py's verdicts."""

from compare import MIN_RUNS, verdict


def side(median, spread=0.02, runs=10):
    return {"median": median, "q1": median * (1 - spread / 2), "q3": median * (1 + spread / 2),
            "runs": [median] * runs}


def test_verdicts_follow_the_bound_and_the_direction():
    assert verdict(side(100), side(104), "lower", 0.1)[1] == "unchanged"
    assert verdict(side(100), side(115), "lower", 0.1)[1] == "regressed"
    assert verdict(side(100), side(115), "higher", 0.1)[1] == "improved"
    worse, word = verdict(side(100), side(80), "higher", 0.1)
    assert word == "regressed" and abs(worse - 0.2) < 1e-12


def test_no_verdict_from_noise_or_from_too_few_runs():
    assert verdict(side(100, spread=0.3), side(150), "lower", 0.1)[1] == "unresolved"
    assert verdict(side(100), side(150, runs=MIN_RUNS - 1), "lower", 0.1)[1] == "unresolved"
    assert verdict(side(100), side(150, runs=MIN_RUNS), "lower", 0.1)[1] == "regressed"
