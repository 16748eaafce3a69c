"""Edge-case coverage for the engine: plain dataflows, config variants,
multiple sinks, operator failures, tiny clusters, custom cost models."""

import pytest

from repro import (
    CallableEvaluator,
    Cluster,
    CostModel,
    GB,
    MB,
    MDFBuilder,
    Min,
    TopK,
    validate_trace,
)
from repro.core.errors import ExecutionError
from repro.engine import EngineConfig, RandomHint, run_mdf
from repro.lab.workloads import get_workload
from repro.obs.bridge import diff_registries, registry_from_trace

from ..conftest import build_filter_mdf


class TestPlainDataflows:
    """MDFs without any explore still execute (ordinary dataflow jobs)."""

    def build(self):
        b = MDFBuilder("plain")
        (
            b.read_data(list(range(50)), name="src", nominal_bytes=8 * MB)
            .transform(lambda xs: [x + 1 for x in xs], name="inc")
            .aggregate(lambda xs: [sum(xs)], name="total", selectivity=0.01)
            .write(name="out")
        )
        return b.build()

    def test_runs_on_both_schedulers(self):
        for scheduler in ("bas", "bfs"):
            result = run_mdf(self.build(), Cluster(2, 1 * GB), scheduler=scheduler)
            assert result.output == [sum(range(1, 51))]

    def test_no_decisions(self):
        result = run_mdf(self.build(), Cluster(2, 1 * GB))
        assert result.decisions == {}


class TestMultipleSinks:
    def test_both_outputs_captured(self):
        b = MDFBuilder("two-sinks")
        src = b.read_data([1, 2, 3], name="src", nominal_bytes=MB)
        mid = src.transform(lambda xs: [x * 2 for x in xs], name="dbl")
        mid.write(name="out-a")
        mid.transform(lambda xs: [x + 1 for x in xs], name="inc").write(name="out-b")
        mdf = b.build()
        result = run_mdf(mdf, Cluster(2, 1 * GB))
        assert result.outputs["out-a"] == [2, 4, 6]
        assert result.outputs["out-b"] == [3, 5, 7]


class TestOperatorFailures:
    def test_execution_error_propagates(self):
        b = MDFBuilder("boom")
        b.read_data([1], name="src").transform(
            lambda xs: 1 / 0, name="boom"
        ).write(name="out")
        with pytest.raises(ExecutionError, match="boom"):
            run_mdf(b.build(), Cluster(2, 1 * GB))

    def test_evaluator_error_propagates(self):
        mdf_builder = MDFBuilder("bad-eval")
        src = mdf_builder.read_data([1, 2], name="src")
        src.explore(
            {"t": [1, 2]}, lambda pipe, p: pipe.identity(name=f"i{p['t']}")
        ).choose(
            CallableEvaluator(lambda xs: xs.undefined, name="bad"), Min()
        ).write()
        with pytest.raises(Exception):
            run_mdf(mdf_builder.build(), Cluster(2, 1 * GB))


class TestConfigVariants:
    def test_evaluator_on_master_charges_network(self):
        mdf = build_filter_mdf()
        split = run_mdf(
            build_filter_mdf(),
            Cluster(4, 1 * GB),
            config=EngineConfig(incremental_choose=False, evaluator_on_master=False),
        )
        at_master = run_mdf(
            mdf,
            Cluster(4, 1 * GB),
            config=EngineConfig(incremental_choose=False, evaluator_on_master=True),
        )
        assert at_master.wall_network > split.wall_network
        assert at_master.completion_time >= split.completion_time

    def test_evaluator_on_master_applies_to_pipelined_evaluation(self):
        """The flag means the same under the default incremental choose:
        the in-flight branch result is shipped to the master too (it was
        honoured only when the evaluator read a stored dataset)."""
        workload = get_workload("filter_min")  # names its explore: ids compare
        runs = {}
        for on_master in (False, True):
            cluster = workload.make_cluster()
            result = run_mdf(
                workload.make_mdf(),
                cluster,
                memory="amm",
                config=EngineConfig(evaluator_on_master=on_master),
            )
            assert validate_trace(result.events) == []
            # shipping launches no task, so the trace still replays to the
            # live registry
            assert diff_registries(cluster.obs, registry_from_trace(result.events)) == []
            runs[on_master] = result
        split, at_master = runs[False], runs[True]
        assert split.wall_network == 0.0
        assert at_master.wall_network > 0.0
        assert at_master.completion_time > split.completion_time
        assert at_master.outputs == split.outputs
        assert at_master.decisions == split.decisions

    def test_single_worker_cluster(self):
        result = run_mdf(build_filter_mdf(), Cluster(1, 1 * GB))
        assert result.output == list(range(10))

    def test_many_partitions_per_worker(self):
        result = run_mdf(
            build_filter_mdf(),
            Cluster(2, 1 * GB),
            config=EngineConfig(partitions_per_worker=5),
        )
        assert result.output == list(range(10))

    def test_random_hint_changes_order_not_result(self):
        base = run_mdf(build_filter_mdf(), Cluster(4, 1 * GB))
        randomised = run_mdf(
            build_filter_mdf(),
            Cluster(4, 1 * GB),
            config=EngineConfig(hint=RandomHint(seed=3)),
        )
        assert randomised.output == base.output

    def test_custom_cost_model_slower_disk(self):
        slow_disk = CostModel(disk_read_bw=10 * MB, disk_write_bw=5 * MB)
        mdf = build_filter_mdf()
        fast = run_mdf(build_filter_mdf(), Cluster(4, 16 * MB))
        slow = run_mdf(mdf, Cluster(4, 16 * MB, cost_model=slow_disk))
        assert slow.completion_time > fast.completion_time

    def test_alpha_bound_to_policy(self):
        from repro.cluster.memory import AMMPolicy

        cm = CostModel(disk_write_bw=50 * MB, disk_read_bw=200 * MB)
        cluster = Cluster(4, 1 * GB, cost_model=cm, policy=AMMPolicy())
        run_mdf(build_filter_mdf(), cluster, memory=None)
        assert cluster.policy._alpha == pytest.approx(cm.alpha)


class TestChooseKeepsEverything:
    def test_topk_larger_than_branch_count(self):
        b = MDFBuilder("keep-all")
        src = b.read_data(list(range(30)), name="src", nominal_bytes=4 * MB)
        src.explore(
            {"m": [2, 3]},
            lambda pipe, p: pipe.transform(
                lambda xs, m=p["m"]: [x * m for x in xs], name=f"mul{p['m']}"
            ),
            name="exp",
        ).choose(CallableEvaluator(len, name="n"), TopK(10), name="ch").write()
        result = run_mdf(b.build(), Cluster(2, 1 * GB))
        assert len(result.decision_for("ch").kept) == 2
        assert len(result.output) == 60  # composite of both branches
