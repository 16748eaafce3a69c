"""Tests for BFS and branch-aware scheduling order (Algorithm 1)."""

import pytest

from repro import Cluster, GB
from repro.engine import BFSScheduler, BranchAwareScheduler, EngineConfig, run_mdf
from repro.engine.hints import SortedHint

from ..conftest import build_filter_mdf, build_nested_mdf


def branch_sequence(result):
    """The branch ids of executed stages, in execution order."""
    stages = result.events.filter("stage_completed")
    return [e.data["branch"] for e in stages if e.data["branch"] is not None]


class TestBASOrder:
    def test_branches_run_contiguously(self, small_cluster):
        """BAS executes one branch to completion before the next (DFS)."""
        mdf = build_nested_mdf(outer=(2, 3, 5), inner=(7, 11))
        result = run_mdf(mdf, small_cluster, scheduler="bas")
        seq = branch_sequence(result)
        # each branch id must appear as one contiguous run
        seen = set()
        last = None
        for branch in seq:
            if branch != last:
                assert branch not in seen, f"branch {branch} interleaved: {seq}"
                seen.add(branch)
            last = branch

    def test_sorted_hint_domain_order(self, small_cluster):
        mdf = build_filter_mdf(thresholds=(10, 100, 500))
        result = run_mdf(mdf, small_cluster, scheduler="bas")
        seq = [b for b in branch_sequence(result)]
        # sorted hint: branch 0, 1, 2 in grid order
        indices = [int(b.split("#")[1]) for b in seq]
        assert indices == sorted(indices)

    def test_inner_scope_completes_before_outer_moves(self, small_cluster):
        """Nested explores: all inner branches of outer#0 run before outer#1."""
        mdf = build_nested_mdf(outer=(2, 3), inner=(5, 7))
        result = run_mdf(mdf, small_cluster, scheduler="bas")
        seq = branch_sequence(result)
        # find the first stage of outer branch 1
        outer1_first = next(
            i for i, b in enumerate(seq) if b.startswith("outer#1")
        )
        inner0_stages = [i for i, b in enumerate(seq) if b.startswith("inner-2#")]
        assert all(i < outer1_first for i in inner0_stages)


class TestBFSOrder:
    def test_level_order(self, small_cluster):
        """BFS runs all branch heads before any branch finishes deep work."""
        mdf = build_nested_mdf(outer=(2, 3), inner=(5, 7))
        result = run_mdf(mdf, small_cluster, scheduler="bfs")
        seq = branch_sequence(result)
        # outer branch heads (mul1 stages) come before all inner stages
        outer_positions = [
            i for i, b in enumerate(seq) if b.startswith("outer#")
        ]
        inner_positions = [
            i for i, b in enumerate(seq) if b.startswith("inner-")
        ]
        assert min(inner_positions) > min(outer_positions)

    def test_same_results_as_bas(self, filter_mdf):
        bas = run_mdf(filter_mdf, Cluster(4, 1 * GB), scheduler="bas")
        bfs = run_mdf(filter_mdf, Cluster(4, 1 * GB), scheduler="bfs")
        assert bas.output == bfs.output
        assert bas.decisions.keys() == bfs.decisions.keys()
        for name in bas.decisions:
            assert bas.decisions[name].kept == bfs.decisions[name].kept


class TestPeakDatasets:
    def test_bas_maintains_no_more_than_bfs(self):
        """Engine-level Theorem 4.3: peak stored datasets, BAS <= BFS."""
        mdf = build_nested_mdf(outer=(2, 3, 5, 7), inner=(2, 3, 5))
        config = EngineConfig(incremental_choose=False)
        bas = run_mdf(mdf, Cluster(4, 1 * GB), scheduler="bas", config=config)
        mdf2 = build_nested_mdf(outer=(2, 3, 5, 7), inner=(2, 3, 5))
        bfs = run_mdf(mdf2, Cluster(4, 1 * GB), scheduler="bfs", config=config)
        assert (
            bas.metrics.peak_datasets_stored <= bfs.metrics.peak_datasets_stored
        )

    def test_incremental_lowers_bas_peak(self):
        mdf = build_nested_mdf(outer=(2, 3, 5, 7), inner=(2, 3, 5))
        on = run_mdf(
            mdf, Cluster(4, 1 * GB), scheduler="bas",
            config=EngineConfig(incremental_choose=True),
        )
        mdf2 = build_nested_mdf(outer=(2, 3, 5, 7), inner=(2, 3, 5))
        off = run_mdf(
            mdf2, Cluster(4, 1 * GB), scheduler="bas",
            config=EngineConfig(incremental_choose=False),
        )
        assert on.metrics.peak_datasets_stored <= off.metrics.peak_datasets_stored
