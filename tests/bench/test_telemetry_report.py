"""The --telemetry bench report and the breakdown/timeline table builders."""

import pytest

from repro import Cluster, GB, TimelineSampler, run_mdf
from repro.bench.report import telemetry_breakdown, timeline_table
from repro.bench.telemetry import telemetry_report
from ..conftest import build_filter_mdf


class TestTelemetryReport:
    @pytest.fixture(scope="class")
    def report(self):
        return telemetry_report()

    def test_contains_every_section(self, report):
        assert "telemetry demo" in report
        assert "timeline under LRU" in report
        assert "timeline under AMM" in report
        assert "telemetry breakdown by branch" in report
        assert "telemetry breakdown by node" in report
        assert "Prometheus exposition" in report
        assert "JSON exposition" in report

    def test_trace_registry_consistency_holds(self, report):
        assert "0 mismatches" in report
        assert "MISMATCH" not in report

    def test_prometheus_lines_present(self, report):
        assert "# TYPE repro_tasks_executed_total counter" in report


class TestTableBuilders:
    def test_breakdown_totals_match_metrics(self):
        result = run_mdf(
            build_filter_mdf(), Cluster(num_workers=2, mem_per_worker=1 * GB),
            observers=[TimelineSampler()],
        )
        table = telemetry_breakdown(result.telemetry.registry, "node")
        total_row = next(
            line for line in table.splitlines() if line.startswith("total")
        )
        assert str(result.metrics.tasks_executed) in total_row.replace(".00", "")

    def test_breakdown_unattributed_bucket(self):
        result = run_mdf(
            build_filter_mdf(), Cluster(num_workers=2, mem_per_worker=1 * GB),
            observers=[TimelineSampler()],
        )
        table = telemetry_breakdown(result.telemetry.registry, "branch")
        assert "(unattributed)" in table  # source stage runs outside any branch

    def test_timeline_table_decimates(self):
        result = run_mdf(
            build_filter_mdf(), Cluster(num_workers=2, mem_per_worker=1 * GB),
            observers=[TimelineSampler(interval=0.01)],
        )
        samples = result.telemetry.samples
        assert len(samples) > 6
        table = timeline_table(samples, max_rows=6)
        assert f"showing 6 of {len(samples)} samples" in table

    def test_timeline_table_short_series_untouched(self):
        result = run_mdf(
            build_filter_mdf(), Cluster(num_workers=2, mem_per_worker=1 * GB),
            observers=[TimelineSampler()],
        )
        table = timeline_table(result.telemetry.samples, max_rows=1000)
        assert "showing" not in table


class TestCliFlag:
    def test_telemetry_flag_prints_report(self, capsys, monkeypatch):
        import repro.bench.telemetry as bench_telemetry
        from repro.__main__ import main

        monkeypatch.setattr(
            bench_telemetry, "telemetry_report", lambda: "FAKE TELEMETRY REPORT"
        )
        assert main(["bench", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "FAKE TELEMETRY REPORT" in out
