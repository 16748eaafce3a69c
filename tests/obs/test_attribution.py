"""Per-branch / per-node attribution sums to the job-global Metrics.

The acceptance bar for the telemetry layer: every task, eviction and byte
must be attributable to a ``{branch, node}`` pair (or the explicit
unattributed remainder), and the per-dimension sums must equal the
job-global ``Metrics`` exactly — the registry is the single source of
both, so these are identities, not approximations.
"""

import pytest

from repro import Cluster, GB, MB, TimelineSampler, run_mdf
from ..conftest import build_filter_mdf, build_nested_mdf


def _total(registry, name, dims):
    return sum(registry.aggregate(name, dims).values())


@pytest.fixture(params=["lru", "amm"])
def pressured_run(request):
    mdf = build_nested_mdf()
    cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
    result = run_mdf(mdf, cluster, memory=request.param, observers=[TimelineSampler()])
    return result


class TestAttribution:
    def test_tasks_fully_attributed(self, pressured_run):
        reg = pressured_run.telemetry.registry
        m = pressured_run.metrics
        assert _total(reg, "tasks_executed", ("branch", "node")) == m.tasks_executed

    def test_evictions_fully_attributed(self, pressured_run):
        reg = pressured_run.telemetry.registry
        m = pressured_run.metrics
        assert m.evictions > 0, "fixture must exercise memory pressure"
        assert _total(reg, "evictions", ("branch", "node")) == m.evictions

    def test_bytes_fully_attributed(self, pressured_run):
        reg = pressured_run.telemetry.registry
        m = pressured_run.metrics
        for name in (
            "bytes_read_memory",
            "bytes_read_disk",
            "bytes_written_memory",
            "bytes_written_disk",
        ):
            assert _total(reg, name, ("branch", "node")) == getattr(m, name), name

    def test_attribution_granularity_invariant(self, pressured_run):
        """The same total regardless of the grouping dimensions."""
        reg = pressured_run.telemetry.registry
        for name in ("tasks_executed", "evictions", "bytes_read_disk"):
            totals = {
                dims: _total(reg, name, dims)
                for dims in ((), ("branch",), ("node",), ("branch", "node", "stage"))
            }
            assert len(set(totals.values())) == 1, (name, totals)

    def test_eviction_policy_label_matches_run(self, pressured_run):
        reg = pressured_run.telemetry.registry
        policies = {k[0] for k in reg.aggregate("evictions", ("policy",))}
        assert len(policies) == 1  # one policy per run


class TestBreakdownTables:
    def test_branch_breakdown_renders_totals(self):
        result = run_mdf(
            build_filter_mdf(), Cluster(num_workers=4, mem_per_worker=1 * GB),
            observers=[TimelineSampler()],
        )
        table = result.telemetry.branch_breakdown()
        assert "telemetry breakdown by branch" in table
        assert "total" in table
        # every branch that executed tasks appears as a row
        reg = result.telemetry.registry
        branches = {k[0] for k in reg.aggregate("tasks_executed", ("branch",)) if k[0]}
        assert len(branches) == 3  # one per explored threshold
        for branch in branches:
            assert branch in table

    def test_node_breakdown_lists_workers(self):
        result = run_mdf(
            build_filter_mdf(), Cluster(num_workers=2, mem_per_worker=1 * GB),
            observers=[TimelineSampler()],
        )
        table = result.telemetry.node_breakdown()
        assert "worker-0" in table and "worker-1" in table

    def test_telemetry_none_without_flag(self):
        result = run_mdf(build_filter_mdf(), Cluster(num_workers=2, mem_per_worker=1 * GB))
        assert result.telemetry is None
