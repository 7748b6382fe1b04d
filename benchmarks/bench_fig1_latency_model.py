"""T1 — regenerate the Figure 1 latency-model table (modelled vs measured)."""

from repro.experiments import fig1_model


def test_t1_latency_model(table_runner):
    table = table_runner(fig1_model.run)
    by_deployment = {row["deployment"]: row for row in table.rows}
    # One row per deployment: the system that ships, next to Figure 1's
    # own formula for a global commit.
    assert {"wan1", "wan2"} <= set(by_deployment)
    wan1, wan2 = by_deployment["wan1"], by_deployment["wan2"]
    # Exact agreements the simulator must reproduce (small tolerance for
    # the loopback hand-off delay).
    assert abs(wan1["measured_local_ms"] - wan1["local_commit_ms"]) < 0.5
    assert abs(wan1["measured_global_ms"] - wan1["global_commit_ms"]) < 0.5
    assert abs(wan2["measured_local_ms"] - wan2["local_commit_ms"]) < 0.5
    # The vote tax is exactly two local broadcasts over the paper's formula.
    assert wan1["global_commit_ms"] - wan1["figure1_global_ms"] == 20.0  # 4δ
    assert wan2["global_commit_ms"] - wan2["figure1_global_ms"] == 240.0  # 4Δ
    # The exact cases carry exact attributions.
    assert wan1["local_attribution"].startswith("4δ = ")
    assert wan1["global_attribution"].startswith("8δ+2Δ = ")
    assert wan2["local_attribution"].startswith("2δ+2Δ = ")
