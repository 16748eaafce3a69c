"""Shared helpers and fixtures for the benchmark targets.

Each figure benchmark runs one experiment from ``repro.bench.figures``
exactly once under pytest-benchmark (wall-clock of the whole harness),
prints the paper-style table, records the simulated rows in
``extra_info`` and asserts the figure's shape checks (who wins, by
roughly what factor).

The workload/cluster setup the ablation and policy benchmarks used to
duplicate per test lives here as fixtures: ``ablation_mdf`` /
``ablation_cluster`` pin the DESIGN.md §5 ablation rig, and the
``lab_workload`` fixture parametrises a benchmark over the policy lab's
smoke zoo (``repro.lab.workloads``) — one source of truth shared with
``python -m repro lab`` and the differential tests.

Every ``run_mdf`` a benchmark in this directory makes runs under an
ambient ``observing(Validator(), ReplayParity())``: each trace must
satisfy the paper invariants and each live registry must equal a replay
of its own trace (the ``paper-figures`` CI job).  The wall-clock harness
under ``wall/`` times unobserved runs and is left alone.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import Validator, observing
from repro.cluster import GB, Cluster
from repro.lab.workloads import available_workloads, get_workload
from repro.obs import diff_registries, registry_from_trace
from repro.workloads import string_int_pairs, synthetic_mdf

HERE = Path(__file__).resolve().parent


class ReplayParity:
    """Run observer: the run's live registry equals a replay of its trace
    over every ``CONSISTENCY_VIEWS`` row, or ``run_mdf`` raises."""

    def begin(self, mdf, cluster, config) -> None:
        self.cluster = cluster

    def end(self, result) -> None:
        if result is not None:
            diffs = diff_registries(self.cluster.obs, registry_from_trace(result.events))
            assert diffs == [], diffs[:5]


@pytest.fixture(autouse=True)
def validated_runs(request):
    """Validate every run of a benchmark in this directory (not ``wall/``)."""
    if Path(request.node.path).resolve().parent != HERE:
        yield
        return
    with observing(Validator(), ReplayParity()):
        yield


@pytest.fixture(scope="module")
def ablation_mdf():
    """The DESIGN.md §5 ablation subject: a 6×6 synthetic nested grid.

    Module-scoped: the MDF is immutable under execution, so every
    ablation in a module reuses one build."""
    pairs = string_int_pairs(1500)
    return synthetic_mdf(pairs, b1=6, b2=6, nominal_bytes=int(2.5 * GB))


@pytest.fixture(scope="module")
def ablation_mdf_small():
    """The 4×4 variant the fault-tolerance/straggler ablations run."""
    pairs = string_int_pairs(1500)
    return synthetic_mdf(pairs, b1=4, b2=4, nominal_bytes=int(2.5 * GB))


@pytest.fixture
def ablation_cluster():
    """Factory for the ablation rig's cluster (fresh per call)."""

    def make() -> Cluster:
        return Cluster(8, 1 * GB)

    return make


@pytest.fixture(params=sorted(available_workloads("smoke")))
def lab_workload(request):
    """Each policy-lab smoke workload in turn (shared zoo definition)."""
    return get_workload(request.param)


def run_figure(benchmark, figure_fn, **kwargs):
    """Run a figure experiment under pytest-benchmark and check shapes."""
    result = benchmark.pedantic(
        lambda: figure_fn(**kwargs), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info.update(result.as_dict())
    print()
    print(result.render())
    failed = [name for name, ok in result.checks.items() if not ok]
    assert not failed, f"{result.figure} shape checks failed: {failed}"
    return result
