"""The experiment harness: cells, reports, artifacts, gate baselines."""

import dataclasses
import json

import pytest

from repro import observing, run_mdf
from repro.cache import ResultCache
from repro.engine import master
from repro.lab import Experimentation, LabReport, get_workload
from repro.live import LiveHook
from repro.lab.workloads import available_workloads
from repro.service import outputs_digest


class TestWorkloadZoo:
    def test_smoke_tier_is_subset_of_full(self):
        smoke = set(available_workloads("smoke"))
        full = set(available_workloads("full"))
        assert smoke and smoke <= full

    def test_get_workload_unknown_name(self):
        try:
            get_workload("nope")
        except ValueError as exc:
            assert "nope" in str(exc) and "registered" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_run_returns_result_and_cluster(self):
        result, cluster = get_workload("filter_min").run(scheduler="bfs")
        assert result.completion_time > 0
        assert cluster.obs is not None

    @pytest.mark.parametrize("name", available_workloads())
    def test_a_kept_mdf_runs_again_like_a_fresh_build(self, name, monkeypatch):
        """The admission rule a service worker relies on: three runs of one
        MDF, each on a fresh cluster and config, give the trace bytes,
        outputs and operator fingerprint table of a fresh build."""
        tables = []

        def recording(ops):
            tables.append(real(ops))
            return tables[-1]

        real = master.operator_fingerprints
        monkeypatch.setattr(master, "operator_fingerprints", recording)
        workload = get_workload(name)

        def run(mdf):
            config = workload.make_config()
            config.cache = ResultCache()  # so the master takes the table
            result = run_mdf(mdf, workload.make_cluster(), config=config)
            return result.events.to_jsonl(), outputs_digest(result.outputs), tables[-1]

        fresh = run(workload.make_mdf())
        assert fresh[2]  # the table is not vacuous
        kept = workload.make_mdf()
        for _ in range(3):
            assert run(kept) == fresh


class TestExperimentation:
    def test_cells_is_full_cross_product(self):
        exp = Experimentation(
            schedulers=["bfs", "bas"],
            memories=["amm", "lru"],
            workloads=["filter_min"],
            cluster_sizes=[None, 2],
        )
        assert len(exp.cells()) == 2 * 2 * 1 * 2

    def test_run_cell_collects_all_dimensions(self):
        exp = Experimentation()
        cell = exp.run_cell("starved_explore", "heft", memory="amm")
        assert cell.completion_time > 0
        assert cell.exploration_cost > 0
        assert 0.0 <= cell.memory_hit_ratio <= 1.0
        assert cell.branches_executed == 3
        assert cell.evictions > 0  # the starved workload must evict
        assert cell.violations == 0
        assert set(cell.profile) >= {"compute", "io", "overhead"}
        assert cell.profile["compute"] > 0

    def test_cluster_size_override(self):
        exp = Experimentation()
        small = exp.run_cell("filter_min", "bfs", workers=2)
        default = exp.run_cell("filter_min", "bfs")
        assert small.workers == 2
        assert default.workers == 4
        assert small.completion_time != default.completion_time

    def test_memory_policy_dimension_changes_behaviour_not_outputs(self):
        exp = Experimentation(memories=["amm", "lru"])
        amm = exp.run_cell("starved_explore", "bas", memory="amm")
        lru = exp.run_cell("starved_explore", "bas", memory="lru")
        # both validator-clean; AMM must not be worse on the starved run
        assert amm.violations == 0 and lru.violations == 0
        assert amm.completion_time <= lru.completion_time

    def test_run_produces_deterministic_report(self):
        exp = Experimentation(
            schedulers=["bfs", "heft"], workloads=["filter_min"]
        )
        a = exp.run(progress=None)
        b = exp.run(progress=None)
        assert a.to_json() == b.to_json()

    def test_live_mode_monitors_every_cell(self):
        """The lab has no live mode of its own: it is observed from
        outside like any other code that calls ``run_mdf``."""
        exp = Experimentation(schedulers=["bas", "heft"], workloads=["filter_min"])
        hook = LiveHook()
        with observing(hook):
            report = exp.run(progress=None)
        assert len(hook.runs) == len(report.cells) == 2
        assert hook.all_byte_identical and hook.alert_kinds() == {}
        for cell, run in zip(report.cells, hook.runs):
            assert run.monitor.snapshot().eta == cell.completion_time


class TestLabReport:
    def _report(self):
        exp = Experimentation(
            schedulers=["bfs", "bas", "heft"], workloads=["filter_min"]
        )
        return exp.run()

    def test_render_table_lists_every_cell_and_best(self):
        report = self._report()
        text = report.render_table()
        for scheduler in ("bfs", "bas", "heft"):
            assert scheduler in text
        assert "best on filter_min" in text

    def test_best_policy_minimises_completion_time(self):
        report = self._report()
        best = report.best_policy("filter_min")
        times = {c.scheduler: c.completion_time for c in report.cells}
        assert times[best] == min(times.values())

    def test_save_writes_json_artifact(self, tmp_path):
        report = self._report()
        path = tmp_path / "lab.json"
        report.save(str(path))
        data = json.loads(path.read_text())
        assert len(data["cells"]) == 3
        assert data["cells"][0]["workload"] == "filter_min"

    def test_baseline_scenarios_keyed_for_gate(self):
        report = self._report()
        scenarios = report.baseline_scenarios()
        assert "lab_filter_min_heft" in scenarios
        assert all(v > 0 for v in scenarios.values())

    def test_gate_scenarios_match_lab_measurements(self):
        """The prof gate's pinned lab scenarios equal a fresh lab run."""
        from repro.prof.gate import SCENARIOS

        exp = Experimentation()
        for scenario, workload, scheduler in [
            ("lab_random", "filter_min", "random"),
            ("lab_wsteal", "starved_explore", "wsteal"),
        ]:
            cell = exp.run_cell(workload, scheduler)
            assert SCENARIOS[scenario]() == cell.completion_time

    def test_backend_mismatches_name_cells_that_differ_from_serial(self):
        report = self._report()
        twins = [dataclasses.replace(c, backend="mp") for c in report.cells]
        assert LabReport(cells=twins).backend_mismatches() == []  # no twin
        report.cells += twins
        assert report.backend_mismatches() == []
        twins[1].evictions += 1
        assert report.backend_mismatches() == ["filter_min × bas × amm on mp"]

    def test_empty_report_best_policy(self):
        assert LabReport().best_policy("filter_min") is None
