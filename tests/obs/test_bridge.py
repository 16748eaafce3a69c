"""Trace↔telemetry consistency: the bridge rebuilds the live registry.

The decision trace and the labeled registry observe the same execution;
``registry_from_trace`` replays the former into the latter and
``diff_registries`` asserts equality over every guaranteed view — on live
runs and on the golden recordings under ``tests/golden/``.
"""

import pytest

from repro import Cluster, GB, MB, TimelineSampler, run_mdf
from repro.obs import CONSISTENCY_VIEWS, diff_registries, registry_from_trace
from repro.trace import Trace
from ..conftest import build_filter_mdf, build_nested_mdf
from ..golden.regenerate import GOLDEN_FILES, build_explore_choose_mdf, load_quickstart_module


class TestLiveConsistency:
    @pytest.mark.parametrize("policy", ["lru", "amm"])
    @pytest.mark.parametrize("scheduler", ["bas", "bfs"])
    def test_pressured_nested_run(self, policy, scheduler):
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        result = run_mdf(
            build_nested_mdf(), cluster, scheduler=scheduler, memory=policy,
            observers=[TimelineSampler()],
        )
        rebuilt = registry_from_trace(result.events)
        assert diff_registries(result.telemetry.registry, rebuilt) == []

    def test_roomy_filter_run(self):
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        result = run_mdf(build_filter_mdf(), cluster, observers=[TimelineSampler()])
        rebuilt = registry_from_trace(result.events)
        assert diff_registries(result.telemetry.registry, rebuilt) == []

    def test_jsonl_round_trip_preserves_consistency(self):
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        result = run_mdf(build_nested_mdf(), cluster, memory="amm", observers=[TimelineSampler()])
        replayed = Trace.from_jsonl(result.events.to_jsonl())
        rebuilt = registry_from_trace(replayed)
        assert diff_registries(result.telemetry.registry, rebuilt) == []


class TestGoldenConsistency:
    """The recorded golden traces bridge to the live registries of the runs
    that produced them (byte-stable traces make this a real cross-check)."""

    def test_quickstart_golden(self):
        mdf = load_quickstart_module().build_quickstart_mdf()
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        run_mdf(mdf, cluster, scheduler="bas", memory="amm")
        golden = Trace.load_jsonl(GOLDEN_FILES["quickstart"])
        assert diff_registries(cluster.obs, registry_from_trace(golden)) == []

    def test_explore_choose_golden(self):
        cluster = Cluster(num_workers=2, mem_per_worker=48 * MB)
        run_mdf(build_explore_choose_mdf(), cluster, scheduler="bas", memory="amm")
        golden = Trace.load_jsonl(GOLDEN_FILES["explore_choose"])
        assert diff_registries(cluster.obs, registry_from_trace(golden)) == []


class TestDiffRegistries:
    def test_detects_injected_drift(self):
        cluster = Cluster(num_workers=2, mem_per_worker=1 * GB)
        result = run_mdf(build_filter_mdf(), cluster, observers=[TimelineSampler()])
        rebuilt = registry_from_trace(result.events)
        rebuilt.counter("tasks_executed", branch="ghost", stage="s99").inc(7)
        problems = diff_registries(result.telemetry.registry, rebuilt)
        assert problems
        assert any("tasks_executed" in p and "ghost" in p for p in problems)

    def test_views_cover_acceptance_instruments(self):
        covered = {name for name, _ in CONSISTENCY_VIEWS}
        for required in (
            "tasks_executed",
            "evictions",
            "bytes_read_memory",
            "bytes_read_disk",
            "bytes_written_memory",
            "bytes_written_disk",
        ):
            assert required in covered
