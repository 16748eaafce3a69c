"""Tests for worker-side stage execution: loading, compute, stores, walls."""

import pytest

from repro import Cluster, GB, MB, MDFBuilder
from repro.core.stages import StageGraph
from repro.engine import EngineConfig
from repro.engine.executor import StageExecutor


def simple_mdf(nominal=64 * MB):
    b = MDFBuilder()
    (
        b.read_data(list(range(100)), name="src", nominal_bytes=nominal)
        .transform(lambda xs: [x * 2 for x in xs], name="dbl", cost_factor=2.0)
        .write(name="out")
    )
    return b.build()


def wide_mdf(nominal=64 * MB):
    b = MDFBuilder()
    (
        b.read_data(list(range(100)), name="src", nominal_bytes=nominal)
        .aggregate(lambda xs: [sum(xs)], name="agg", selectivity=0.01)
        .write(name="out")
    )
    return b.build()


class TestSourceStage:
    def test_source_reads_from_disk(self):
        cluster = Cluster(4, 1 * GB)
        mdf = simple_mdf()
        sg = StageGraph(mdf)
        executor = StageExecutor(cluster, EngineConfig())
        outcome = executor.execute(sg.stages[0], [])
        assert cluster.metrics.bytes_read_disk == 64 * MB
        assert outcome.times.io > 0

    def test_chain_applied(self):
        cluster = Cluster(4, 1 * GB)
        mdf = simple_mdf()
        sg = StageGraph(mdf)
        executor = StageExecutor(cluster, EngineConfig())
        outcome = executor.execute(sg.stages[0], [])
        payload = cluster.materialize(outcome.output_dataset_id).collect()
        assert payload == [x * 2 for x in range(100)]

    def test_partitions_per_worker(self):
        cluster = Cluster(4, 1 * GB)
        mdf = simple_mdf()
        sg = StageGraph(mdf)
        executor = StageExecutor(cluster, EngineConfig(partitions_per_worker=3))
        outcome = executor.execute(sg.stages[0], [])
        assert outcome.num_tasks == 12

    def test_compute_charged(self):
        cluster = Cluster(4, 1 * GB)
        mdf = simple_mdf()
        sg = StageGraph(mdf)
        executor = StageExecutor(cluster, EngineConfig())
        outcome = executor.execute(sg.stages[0], [])
        # 64 MB * cost_factor 2 / compute_rate 500 MB/s / 4 workers
        assert outcome.times.compute == pytest.approx(64 * 2 / 500 / 4, rel=0.01)


class TestWideStage:
    def test_shuffle_charged(self):
        cluster = Cluster(4, 1 * GB)
        mdf = wide_mdf()
        sg = StageGraph(mdf)
        executor = StageExecutor(cluster, EngineConfig())
        first = executor.execute(sg.stages[0], [])
        second = executor.execute(sg.stages[1], [first.output_dataset_id])
        assert second.times.network > 0

    def test_global_semantics(self):
        cluster = Cluster(4, 1 * GB)
        mdf = wide_mdf()
        sg = StageGraph(mdf)
        executor = StageExecutor(cluster, EngineConfig())
        first = executor.execute(sg.stages[0], [])
        second = executor.execute(sg.stages[1], [first.output_dataset_id])
        payload = cluster.materialize(second.output_dataset_id).collect()
        assert payload == [sum(range(100))]


class TestDeferredStore:
    def test_pending_not_registered(self):
        cluster = Cluster(4, 1 * GB)
        mdf = simple_mdf()
        sg = StageGraph(mdf)
        executor = StageExecutor(cluster, EngineConfig())
        src_outcome = executor.execute(sg.stages[0], [])
        # re-run the source stage chain's output through a deferred store
        # by executing a narrow stage manually is covered in master tests;
        # here: commit_store registers and charges
        from repro.core.datasets import Dataset

        ds = Dataset.from_data([1, 2], dataset_id="pending", nominal_bytes=8 * MB,
                               producer="x")
        times = executor.commit_store(ds)
        assert cluster.has_dataset("pending")
        assert times.io > 0


class TestTaskOverhead:
    def test_overhead_scales_with_tasks(self):
        cluster = Cluster(8, 1 * GB)
        mdf = simple_mdf()
        sg = StageGraph(mdf)
        executor = StageExecutor(cluster, EngineConfig(task_overhead=0.01))
        outcome = executor.execute(sg.stages[0], [])
        assert outcome.times.overhead == pytest.approx(0.01 * 8)
