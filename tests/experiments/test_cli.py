"""Tests for the ``python -m repro.experiments`` command-line runner."""

from repro.experiments.__main__ import REGISTRY, main, to_markdown
from repro.experiments.common import ExperimentTable


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        expected = {"T1", "F2", "F3", "F4", "F5", "F6", "S1", "S2", "S3"}
        assert expected <= set(REGISTRY)

    def test_extensions_registered(self):
        assert {"A1", "A2", "A3", "A5", "E1"} <= set(REGISTRY)
        # A4 swept a timer-closed Paxos batch; turn group commit retired it.
        assert "A4" not in REGISTRY

    def test_descriptions_are_nonempty(self):
        for exp_id, (description, runner) in REGISTRY.items():
            assert description
            assert callable(runner)


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "F6" in out and "E1" in out

    def test_unknown_experiment(self, capsys):
        assert main(["ZZ"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment ids" in err

    def test_runs_selected_and_writes_markdown(self, tmp_path, monkeypatch, capsys):
        # Stub the registry so the test is instant.
        table = ExperimentTable("T0", "stub", rows=[{"x": 1, "y": "z"}], notes=["n"])
        monkeypatch.setitem(
            REGISTRY, "T0", ("stub experiment", lambda quick: table)
        )
        out_path = tmp_path / "report.md"
        assert main(["T0", "--markdown", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "T0: stub" in printed
        report = out_path.read_text()
        assert "## T0 — stub" in report
        assert "| x | y |" in report
        assert "> n" in report

    def test_case_insensitive_ids(self, monkeypatch, capsys):
        table = ExperimentTable("T0", "stub", rows=[])
        monkeypatch.setitem(REGISTRY, "T0", ("stub", lambda quick: table))
        assert main(["t0"]) == 0


class TestMarkdown:
    def test_empty_rows_render(self):
        text = to_markdown([(ExperimentTable("X", "t", rows=[]), 1.0)])
        assert "## X — t" in text
        assert "wall time: 1s" in text

    def test_multiple_tables(self):
        tables = [
            (ExperimentTable("A", "first", rows=[{"v": 1}]), 2.0),
            (ExperimentTable("B", "second", rows=[{"w": 2}]), 3.0),
        ]
        text = to_markdown(tables)
        assert text.index("## A") < text.index("## B")
