"""Differential policy testing: every scheduler, same answers.

The lab's central safety claim — a pluggable scheduling policy (or an
execution backend) changes *when* stages run, never *what* the job
computes — checked by the report's one reducer,
``LabReport.mismatches``, over the whole registry × the smoke workload
zoo, plus the bench figures' representative MDFs.  Each cell must show
the output digest and choose decisions of its ``bfs`` twin, every field
of its ``serial`` twin, a validator-clean trace and live-vs-replayed
registry parity.
"""

import dataclasses
import multiprocessing
import os
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main
from repro.engine.backends.mp import MPBackend
from repro.engine.job import outputs_digest
from repro.engine.policies import available_schedulers
from repro.lab import (
    Experimentation,
    LabReport,
    LabWorkload,
    available_workloads,
    get_workload,
)
from repro.obs.bridge import diff_registries, registry_from_trace
from repro.trace.validate import Validator, validate_trace

SCHEDULERS = available_schedulers()
SMOKE = available_workloads("smoke")

fork_available = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def smoke_report():
    """The registry × the smoke zoo, each cell run once."""
    return Experimentation(workloads=SMOKE).run()


class TestDifferentialMatrix:
    def test_zoo_has_enough_coverage(self):
        """The acceptance floor: >=4 schedulers x >=3 workloads."""
        assert len(SCHEDULERS) >= 4
        assert len(SMOKE) >= 3

    @pytest.mark.parametrize("workload", SMOKE)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_cell_matches_reference(self, smoke_report, workload, scheduler):
        [cell] = [
            c
            for c in smoke_report.cells
            if (c.workload, c.scheduler) == (workload, scheduler)
        ]
        assert cell.violations == [] and cell.replay_diffs == []
        named = f"{workload} × {scheduler} × amm on serial"
        assert not [m for m in smoke_report.mismatches() if m.startswith(named)]

    def test_matrix_runs_whole_smoke_tier(self, smoke_report):
        assert len(smoke_report.cells) == len(SCHEDULERS) * len(SMOKE)
        assert smoke_report.mismatches() == []

    def test_mismatches_name_a_doctored_twin(self, smoke_report):
        """A cell whose outputs or decisions leave its bfs twin's is named;
        so is one with no bfs twin at all."""
        cells = [c for c in smoke_report.cells if c.workload == "filter_min"]
        heft = next(c for c in cells if c.scheduler == "heft")
        others = [c for c in cells if c is not heft]
        named = "filter_min × heft × amm on serial, 4 workers: "
        why = "outputs or choose decisions differ from bfs"
        doctored = dataclasses.replace(heft, outputs_digest="0" * 64)
        assert LabReport(cells=[*others, doctored]).mismatches() == [named + why]
        doctored = dataclasses.replace(heft, decisions={})
        assert LabReport(cells=[*others, doctored]).mismatches() == [named + why]
        alone = LabReport(cells=[heft]).mismatches()
        assert alone == [named + why]


class TestTwinOracle:
    """What the reducer sees that ``repr`` and the old per-backend number
    comparison did not, and the one-run-per-cell shape of the command."""

    def test_lab_runs_each_cell_once(self, monkeypatch, capsys):
        runs = []
        real = LabWorkload.run

        def counting(self, *args, **kwargs):
            runs.append(self.name)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(LabWorkload, "run", counting)
        argv = ["lab", "--policies", "bas", "--workloads", "filter_min,starved_explore"]
        assert main([*argv, "--backends", "mp"]) == 0
        # bas and bfs × two workloads × mp and serial
        assert len(runs) == 2 * 2 * 2
        assert "8 cells match their bfs and serial twins" in capsys.readouterr().out

    @pytest.mark.skipif(
        not fork_available, reason="mp backend prefetch needs the fork start method"
    )
    def test_backend_check_compares_outputs(self, monkeypatch, capsys):
        """An ``mp`` backend that reverses every prefetched list partition
        keeps every simulated number, so only the outputs tell."""
        taken = []
        real = MPBackend.take_prefetched

        def reversing(self, key):
            result = real(self, key)
            if result is not None:
                taken.append(key)
                result = [p[::-1] if isinstance(p, list) else p for p in result]
            return result

        monkeypatch.setattr(MPBackend, "take_prefetched", reversing)
        argv = ["lab", "--backends", "serial,mp", "--workloads", "wide_topk"]
        assert main([*argv, "--policies", "bas,bfs"]) == 1
        assert taken
        named = "wide_topk × bas × amm on mp, 4 workers: differs from its serial twin"
        assert named in capsys.readouterr().err

    def test_repr_blind_perturbation_is_caught(self, monkeypatch):
        """NumPy's ``repr`` abbreviates a 64×16 array and prints 8 digits,
        so a 1e-3 change to one weight keeps ``repr`` equal; the output
        digest does not."""
        reprs = []
        real = LabWorkload.run

        def perturbing(self, *args, **kwargs):
            result, cluster = real(self, *args, **kwargs)
            if kwargs["scheduler"] == "bas":
                before = repr(result.outputs)
                result.outputs["write-model"][0].weights1[30, 8] += 1e-3
                reprs.append((before, repr(result.outputs)))
            return result, cluster

        monkeypatch.setattr(LabWorkload, "run", perturbing)
        report = Experimentation(schedulers=["bas"], workloads=["dl_grid"]).run()
        [(before, after)] = reprs
        assert before == after
        assert report.mismatches() == [
            "dl_grid × bas × amm on serial, 4 workers: "
            "outputs or choose decisions differ from bfs"
        ]

    def test_lab_does_not_import_the_service(self):
        env = {"PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
        code = "import sys, repro.lab; assert 'repro.service' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


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
        assert outputs_digest(contender.outputs) == outputs_digest(reference.outputs)
        assert {n: d.kept for n, d in contender.decisions.items()} == {
            n: d.kept for n, d in reference.decisions.items()
        }
