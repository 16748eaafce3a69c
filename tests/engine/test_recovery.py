"""Tests for master-driven lineage recovery (§5: failures cost real time).

The tentpole claims under test:

* a failure advances the simulated clock by *exactly* the seconds charged
  into the ``recovery_seconds`` histogram;
* choose decisions never recompute — re-executed branch tails reuse the
  master's banked scores;
* an empty injector is byte-identical to no injector at all;
* transient task failures are retried with backoff within a bounded
  budget; exhausting it decommissions the node;
* the ``recovery_sound`` validator holds on every failure run.
"""

import pytest

from repro import (
    Cluster,
    FailureInjector,
    GB,
    validate_trace,
)
from repro.cluster.fault import CheckpointConfig
from repro.core.errors import FaultError
from repro.engine import EngineConfig, run_mdf
from repro.engine.job import outputs_digest
from repro.lab.workloads import _filter_min_mdf

from ..conftest import build_filter_mdf


def fresh_cluster():
    return Cluster(num_workers=4, mem_per_worker=1 * GB)


def failure_at(stage_index, node="worker-0", **kw):
    return EngineConfig(
        failures=FailureInjector.at_stages([(stage_index, node)]), **kw
    )


class TestExactCharging:
    def test_clock_advances_by_exactly_recovery_seconds(self):
        """§5 exactness: with ample memory, the failed run finishes later
        than the clean run by precisely the charged recovery seconds —
        nothing about the failure is free, and nothing extra is charged."""
        clean = run_mdf(build_filter_mdf(), fresh_cluster())
        cluster = fresh_cluster()
        failed = run_mdf(build_filter_mdf(), cluster, config=failure_at(2))
        charged = cluster.obs.value("recovery_seconds")
        assert charged > 0
        assert failed.completion_time == pytest.approx(
            clean.completion_time + charged
        )

    def test_recovery_histogram_labeled_by_node(self):
        cluster = fresh_cluster()
        run_mdf(build_filter_mdf(), cluster, config=failure_at(2, "worker-1"))
        assert cluster.obs.value("recovery_seconds", node="worker-1") > 0
        assert cluster.obs.value("recovery_seconds", node="worker-0") == 0

    def test_same_output_despite_failure(self, small_cluster):
        result = run_mdf(build_filter_mdf(), small_cluster, config=failure_at(3))
        assert result.output == list(range(10))


class TestEmptyInjectorIsIdentity:
    def test_byte_identical_trace(self):
        """``FailureInjector()`` with no scheduled events must not perturb
        the run at all — same bytes as no injector."""
        mdf = build_filter_mdf()
        without = run_mdf(mdf, fresh_cluster())
        with_empty = run_mdf(
            mdf,
            fresh_cluster(),
            config=EngineConfig(failures=FailureInjector()),
        )
        assert with_empty.events.to_jsonl() == without.events.to_jsonl()
        assert with_empty.completion_time == without.completion_time


class TestScoresSurvive:
    def test_no_branch_reevaluated_for_its_score(self):
        """AMM + incremental choose: a mid-explore failure re-runs branch
        tails for their *bytes*, never for their scores (§5)."""
        clean = run_mdf(build_filter_mdf(), fresh_cluster(), memory="amm")
        failed = run_mdf(
            build_filter_mdf(), fresh_cluster(), memory="amm", config=failure_at(4)
        )
        assert failed.metrics.choose_evaluations == clean.metrics.choose_evaluations
        assert failed.output == clean.output
        reexecutions = failed.events.filter("stage_reexecuted")
        assert reexecutions, "the failure must force at least one re-execution"
        tails = [e for e in reexecutions if e.data["branch"] is not None]
        assert tails and all(e.data["score_reused"] for e in tails)

    def test_decision_keeps_all_three_scores(self):
        result = run_mdf(
            build_filter_mdf(), fresh_cluster(), memory="amm", config=failure_at(4)
        )
        assert len(result.decision_for("choose-min").scores) == 3


class TestValidatorsHold:
    @pytest.mark.parametrize("memory", ["lru", "amm"])
    @pytest.mark.parametrize("stage_index", [1, 2, 3, 4])
    def test_recovery_runs_validate_cleanly(self, memory, stage_index):
        result = run_mdf(
            build_filter_mdf(),
            fresh_cluster(),
            memory=memory,
            config=failure_at(stage_index),
        )
        assert validate_trace(result.events) == []

    def test_multiple_failures_validate(self):
        config = EngineConfig(
            failures=FailureInjector.at_stages(
                [(1, "worker-0"), (3, "worker-1"), (4, "worker-2")]
            )
        )
        result = run_mdf(build_filter_mdf(), fresh_cluster(), config=config)
        assert result.output == list(range(10))
        assert validate_trace(result.events) == []


class TestCheckpointReload:
    def test_checkpointed_partitions_reload_not_recompute(self):
        config = EngineConfig(
            checkpointing=CheckpointConfig(1, overhead_fraction=0.1),
            failures=FailureInjector.at_stages([(3, "worker-0")]),
        )
        result = run_mdf(build_filter_mdf(), fresh_cluster(), config=config)
        (started,) = result.events.filter("recovery_started")
        assert started.data["reloaded"], "checkpoint copies must reload"
        assert started.data["recomputed"] == []
        assert result.metrics.recovery_reexecutions == 0
        assert result.metrics.recoveries > 0
        assert result.output == list(range(10))

    def test_checkpointing_shrinks_the_recovery_delta(self):
        """Late in the job the lost tail's lineage is deep (its input was
        already consumed): recomputing means transiently rebuilding the
        source, while a checkpoint reloads just the lost bytes."""

        def delta(config_extra):
            mdf = build_filter_mdf()
            clean = run_mdf(
                mdf, fresh_cluster(), config=EngineConfig(**config_extra)
            )
            failed_cfg = EngineConfig(
                failures=FailureInjector.at_stages([(5, "worker-0")]),
                **config_extra,
            )
            failed = run_mdf(mdf, fresh_cluster(), config=failed_cfg)
            return failed.completion_time - clean.completion_time

        without = delta({})
        with_ckpt = delta(
            {"checkpointing": CheckpointConfig(1, overhead_fraction=0.1)}
        )
        assert with_ckpt < without


class TestTaskRetries:
    def test_retries_charged_with_backoff(self):
        clean = run_mdf(build_filter_mdf(), fresh_cluster())
        config = EngineConfig(
            failures=FailureInjector.task_failures([(2, "worker-0", 2)])
        )
        result = run_mdf(build_filter_mdf(), fresh_cluster(), config=config)
        assert result.completion_time > clean.completion_time
        (retried,) = result.events.filter("task_retried")
        assert retried.data["attempts"] == 2
        assert retried.data["seconds"] > 0
        assert result.metrics.task_retries == 2
        assert result.output == clean.output

    def test_exhausted_retries_decommission_the_node(self):
        cluster = fresh_cluster()
        config = EngineConfig(
            failures=FailureInjector.task_failures([(2, "worker-0", 9)]),
            max_task_retries=3,
        )
        result = run_mdf(build_filter_mdf(), cluster, config=config)
        (exhausted,) = result.events.filter("task_retries_exhausted")
        assert exhausted.data["attempts"] == 9
        assert exhausted.data["max_retries"] == 3
        (decommissioned,) = result.events.filter("node_decommissioned")
        assert decommissioned.data["reason"] == "retries-exhausted"
        assert len(cluster.alive_nodes) == 3
        assert result.output == list(range(10))
        assert validate_trace(result.events) == []


class TestPermanentFailure:
    def test_survivors_absorb_the_dead_nodes_share(self):
        cluster = fresh_cluster()
        config = EngineConfig(
            failures=FailureInjector.at_stages([(2, "worker-0")], permanent=True)
        )
        result = run_mdf(build_filter_mdf(), cluster, config=config)
        assert len(cluster.alive_nodes) == 3
        (decommissioned,) = result.events.filter("node_decommissioned")
        assert decommissioned.data["node"] == "worker-0"
        assert result.output == list(range(10))
        assert validate_trace(result.events) == []
        # nothing lands on the dead node afterwards
        for event in result.events.filter("partition_stored"):
            if event.seq > decommissioned.seq:
                assert event.data["node"] != "worker-0"

    def test_checkpointed_partitions_relocate_to_a_survivor(self):
        """A permanent failure re-places the dead node's checkpointed
        partitions on survivors; reads resolve to the new home, and the
        job finishes by reload, never by recompute, with the clean output."""
        checkpointed = EngineConfig(checkpointing=CheckpointConfig(1))
        clean = run_mdf(_filter_min_mdf(), fresh_cluster(), config=checkpointed)
        cluster = fresh_cluster()
        fail_node, homes = cluster.fail_node, []

        def fail_and_locate(*args, **kwargs):
            report = fail_node(*args, **kwargs)
            for key in report.relocated:
                dataset_id, pos = cluster.key_available(key)
                home = cluster.record(dataset_id).partition_nodes[pos]
                homes.append((home, cluster.node(home).has(key)))
            return report

        cluster.fail_node = fail_and_locate
        failed = run_mdf(
            _filter_min_mdf(),
            cluster,
            config=EngineConfig(
                checkpointing=CheckpointConfig(1),
                failures=FailureInjector.at_stages([(3, "worker-0")], permanent=True),
            ),
        )
        assert homes, "the failure must relocate a checkpointed partition"
        for home, holds_key in homes:
            assert home != "worker-0" and holds_key
        assert outputs_digest(failed.outputs) == outputs_digest(clean.outputs)
        assert failed.metrics.recovery_reexecutions == 0
        assert validate_trace(failed.events) == []


class TestDeadDataDropsFree:
    def test_acc_zero_partitions_drop_without_charge(self):
        """R4 extended to recovery: losing data nothing will read again
        costs nothing — it is dropped, not recomputed or reloaded."""
        result = run_mdf(build_filter_mdf(), fresh_cluster(), config=failure_at(5))
        dropped = [
            e
            for e in result.events.filter("recovery")
            if e.data["action"] == "dropped"
        ]
        assert dropped, "the consumed source must be dropped dead, not rebuilt"
        assert all(e.data["dataset"] == "d:src" for e in dropped)
        assert result.output == list(range(10))
        assert validate_trace(result.events) == []


class TestUnfiredFailures:
    def test_unfired_event_traced_by_default(self):
        config = EngineConfig(
            failures=FailureInjector.at_stages([(99, "worker-0")])
        )
        result = run_mdf(build_filter_mdf(), fresh_cluster(), config=config)
        (unfired,) = result.events.filter("failure_unfired")
        assert unfired.data == {
            "failure_kind": "node",
            "node": "worker-0",
            "stage_index": 99,
        }

    def test_unfired_task_failure_traced(self):
        config = EngineConfig(
            failures=FailureInjector.task_failures([(99, "worker-1", 2)])
        )
        result = run_mdf(build_filter_mdf(), fresh_cluster(), config=config)
        (unfired,) = result.events.filter("failure_unfired")
        assert unfired.data["failure_kind"] == "task"

    def test_strict_failures_raise(self):
        config = EngineConfig(
            failures=FailureInjector.at_stages([(99, "worker-0")]),
            strict_failures=True,
        )
        with pytest.raises(FaultError, match="never fired"):
            run_mdf(build_filter_mdf(), fresh_cluster(), config=config)
