"""Tests for the benchmark harness infrastructure (report + figure types)."""

import math

import pytest

from repro.bench import FigureResult, improvement, render_table, rows_to_dict
from repro.bench.figures import ALL_FIGURES, table1_optimizations
from repro.bench.report import _fmt


class TestReport:
    def test_improvement(self):
        assert improvement(100.0, 40.0) == pytest.approx(60.0)
        assert improvement(100.0, 120.0) == pytest.approx(-20.0)

    def test_improvement_undefined_baseline_is_nan(self):
        # a non-positive baseline has no meaningful ratio; the tables
        # render the NaN as "-" instead of claiming a fake 0%
        assert math.isnan(improvement(0.0, 40.0))
        assert math.isnan(improvement(-1.0, 40.0))
        assert _fmt(improvement(0.0, 40.0)) == "-"

    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = text.splitlines()
        assert "T" in lines[1]
        assert "a" in lines[3] and "bb" in lines[3]
        assert len(lines) >= 6

    def test_render_table_note(self):
        text = render_table("T", ["x"], [[1]], note="hello")
        assert "note: hello" in text

    def test_fmt_floats(self):
        assert _fmt(123.456) == "123"
        assert _fmt(1.234) == "1.23"
        assert _fmt(0.1234) == "0.123"
        assert _fmt(float("nan")) == "-"
        assert _fmt("str") == "str"

    def test_rows_to_dict(self):
        out = rows_to_dict(["a", "b"], [[1, 2], [3, 4]])
        assert out == [{"a": 1, "b": 2}, {"a": 3, "b": 4}]


class TestFigureResult:
    def test_render_includes_checks(self):
        result = table1_optimizations()
        text = result.render()
        assert "Table 1" in text
        assert "shape checks" in text
        assert "OK" in text

    def test_as_dict(self):
        result = table1_optimizations()
        d = result.as_dict()
        assert d["figure"] == "Table 1"
        assert isinstance(d["rows"], list) and d["rows"]
        assert d["checks"]

    def test_all_checks_pass_flag(self):
        result = FigureResult("F", "t", ["c"], [[1]], checks={"x": True, "y": False})
        assert not result.all_checks_pass

    def test_registry_complete(self):
        """Every §6 artefact has a registered experiment."""
        expected = {
            "table1",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10_13",
            "fig11_14",
            "fig12_15",
            "fig16",
            "fig17_18",
            "choose_throughput",
            "failure_recovery",
            "appendix_b",
            "supplementary_ts5",
            "cache_reuse",
        }
        assert set(ALL_FIGURES) == expected


class TestCliModule:
    def test_unknown_figure_exits_2(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "not-a-figure"])
        assert exit_info.value.code == 2

    def test_single_figure_runs(self, capsys):
        from repro.__main__ import main

        assert main(["bench", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_profile_flag_reports_attribution_and_artifact(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.__main__ import main
        from repro.engine import runner

        monkeypatch.chdir(tmp_path)  # artifact lands in the scratch dir
        assert main(["bench", "--profile", "failure_recovery"]) == 0
        out = capsys.readouterr().out
        assert "profiling: on" in out
        assert "[profile] failure_recovery:" in out
        assert "compute" in out
        artifact = tmp_path / "PROFILE_failure_recovery.speedscope.json"
        assert artifact.exists()
        # nothing stays installed afterwards: plain runs stay unprofiled
        assert runner._ambient == []
