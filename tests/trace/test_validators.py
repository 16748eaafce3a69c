"""Tests for the paper-invariant validators (repro.trace.validate).

Two directions: every honest engine configuration must validate cleanly,
and deliberately-broken schedulers/evictors (test doubles) plus hand-built
malformed traces must be caught.
"""

import pytest

from repro import (
    AMMPolicy,
    CallableEvaluator,
    Cluster,
    GB,
    InvariantViolation,
    MB,
    MDFBuilder,
    Min,
    Validator,
    assert_valid,
    observing,
    run_mdf,
    validate_trace,
)
from repro.engine.scheduler import BranchAwareScheduler
from repro.trace import (
    Trace,
    check_amm_ranking,
    check_depth_first,
    check_no_use_after_discard,
    check_pruning_sound,
    check_recovery_sound,
)

from ..conftest import build_filter_mdf, build_nested_mdf


# --------------------------------------------------------------- honest runs


class TestHonestRunsValidate:
    @pytest.mark.parametrize("scheduler", ["bas", "bfs"])
    @pytest.mark.parametrize("memory", ["lru", "amm"])
    @pytest.mark.parametrize("mem_mb", [1024, 64])
    def test_all_checks_pass(self, scheduler, memory, mem_mb):
        for build in (build_filter_mdf, build_nested_mdf):
            cluster = Cluster(num_workers=4, mem_per_worker=mem_mb * MB)
            result = run_mdf(build(), cluster, scheduler=scheduler, memory=memory)
            assert validate_trace(result.events) == []

    def test_validators_accept_jsonl_roundtrip(self):
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        result = run_mdf(build_nested_mdf(), cluster, scheduler="bas", memory="amm")
        reloaded = Trace.from_jsonl(result.events.to_jsonl())
        assert validate_trace(reloaded) == []

    def test_monotone_pruning_run_validates(self):
        builder = MDFBuilder("prune-mdf")
        src = builder.read_data(list(range(1000)), name="src", nominal_bytes=64 * MB)
        evaluator = CallableEvaluator(len, name="count", monotone=True)
        result = src.explore(
            {"threshold": [10, 100, 200, 500, 900]},
            lambda pipe, p: pipe.transform(
                lambda xs, t=p["threshold"]: [x for x in xs if x < t],
                name=f"filter-{p['threshold']}",
            ),
            name="exp",
        ).choose(evaluator, Min(), name="ch")
        result.write(name="out")
        mdf = builder.build()
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        job = run_mdf(mdf, cluster)
        assert job.metrics.branches_pruned > 0
        assert len(job.events.filter("branch_pruned")) == job.metrics.branches_pruned
        assert validate_trace(job.events) == []


# ------------------------------------------------------------- broken doubles


class BrokenBAS(BranchAwareScheduler):
    """Claims to be branch-aware but schedules breadth-first (FIFO)."""

    def select(self, ready, last_executed, successors_of_last, context):
        self.last_rationale = "broken-fifo"
        return ready[0]


class BrokenAMM(AMMPolicy):
    """Claims AMM but evicts the *highest*-preference partition."""

    def eviction_key(self, slot):
        return (-self.preference(slot), slot.last_access, slot.key)


class TestBrokenDoublesAreCaught:
    def test_broken_scheduler_caught_by_depth_first(self):
        mdf = build_nested_mdf(outer=(2, 3, 5), inner=(7, 11))
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        result = run_mdf(mdf, cluster, scheduler=BrokenBAS())
        violations = check_depth_first(result.events)
        assert violations, "FIFO scheduling under the 'bas' name must be flagged"
        assert all(v.check == "depth_first" for v in violations)

    def test_honest_bas_on_same_workload_is_clean(self):
        mdf = build_nested_mdf(outer=(2, 3, 5), inner=(7, 11))
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        result = run_mdf(mdf, cluster, scheduler="bas")
        assert check_depth_first(result.events) == []

    def test_broken_evictor_caught_by_amm_ranking(self):
        mdf = build_nested_mdf(outer=(2, 3, 5), inner=(7, 11), nominal=128 * MB)
        cluster = Cluster(num_workers=2, mem_per_worker=64 * MB)
        result = run_mdf(mdf, cluster, scheduler="bas", memory=BrokenAMM())
        assert len(result.events.filter("partition_evicted")) > 0
        violations = check_amm_ranking(result.events)
        assert violations, "max-preference eviction under the 'amm' name must be flagged"
        assert all(v.check == "amm_ranking" for v in violations)

    def test_honest_amm_on_same_workload_is_clean(self):
        mdf = build_nested_mdf(outer=(2, 3, 5), inner=(7, 11), nominal=128 * MB)
        cluster = Cluster(num_workers=2, mem_per_worker=64 * MB)
        result = run_mdf(mdf, cluster, scheduler="bas", memory="amm")
        assert len(result.events.filter("partition_evicted")) > 0
        assert check_amm_ranking(result.events) == []


# --------------------------------------------------------- synthetic traces


def synthetic_prune_event(trace, **overrides):
    data = dict(
        choose="ch",
        branch="exp#1",
        reason="monotone-trend",
        stages=["stage-9"],
        plan={"discard_incrementally": True, "prune_superfluous": True},
        properties={
            "associative": True,
            "monotone": True,
            "convex": False,
            "non_exhaustive": False,
        },
    )
    data.update(overrides)
    trace.emit("branch_pruned", **data)


class TestPruningSoundSynthetic:
    def test_unjustified_properties_caught(self):
        trace = Trace()
        synthetic_prune_event(
            trace,
            properties={
                "associative": True,
                "monotone": False,
                "convex": False,
                "non_exhaustive": False,
            },
        )
        violations = check_pruning_sound(trace)
        assert len(violations) == 1
        assert "do not justify" in violations[0].message

    def test_non_associative_selection_caught(self):
        trace = Trace()
        synthetic_prune_event(
            trace,
            properties={
                "associative": False,
                "monotone": True,
                "convex": False,
                "non_exhaustive": False,
            },
        )
        assert len(check_pruning_sound(trace)) == 1

    def test_plan_forbidding_pruning_caught(self):
        trace = Trace()
        synthetic_prune_event(
            trace, plan={"discard_incrementally": True, "prune_superfluous": False}
        )
        violations = check_pruning_sound(trace)
        assert len(violations) == 1
        assert "plan forbids" in violations[0].message

    def test_activity_after_prune_caught(self):
        trace = Trace()
        synthetic_prune_event(trace, stages=["stage-9"])
        trace.emit(
            "stage_scheduled",
            stage="stage-9",
            branch="exp#1",
            scheduler="bas",
            rationale=None,
            ready=["stage-9"],
            ready_choose=[],
            successors_ready=["stage-9"],
        )
        trace.emit(
            "branch_evaluated", choose="ch", branch="exp#1", score=1.0, pipelined=False
        )
        messages = [v.message for v in check_pruning_sound(trace)]
        assert any("later stage_scheduled" in m for m in messages)
        assert any("later evaluated" in m for m in messages)

    def test_table1_override_caught(self):
        trace = Trace()
        synthetic_prune_event(trace)
        violations = check_pruning_sound(trace, table1={"ch": {"prune_superfluous": False}})
        assert any("must not prune" in v.message for v in violations)

    def test_justified_prune_passes(self):
        trace = Trace()
        synthetic_prune_event(trace)
        assert check_pruning_sound(trace) == []


class TestUseAfterDiscardSynthetic:
    def access(self, trace, dataset):
        trace.emit(
            "dataset_access",
            dataset=dataset,
            index=0,
            node="worker-0",
            hit=True,
            nbytes=1,
            seconds=0.0,
            reload=False,
        )

    def register(self, trace, dataset):
        trace.emit(
            "dataset_registered", dataset=dataset, producer="op", nbytes=1, partitions=1
        )

    def test_read_after_discard_caught(self):
        trace = Trace()
        self.register(trace, "d:a")
        trace.emit("dataset_discarded", dataset="d:a")
        self.access(trace, "d:a")
        violations = check_no_use_after_discard(trace)
        assert len(violations) == 1
        assert "discarded at event #1" in violations[0].message

    def test_read_of_unregistered_dataset_caught(self):
        trace = Trace()
        self.access(trace, "d:ghost")
        violations = check_no_use_after_discard(trace)
        assert len(violations) == 1
        assert "never registered" in violations[0].message

    def test_member_absorbed_into_composite_caught(self):
        trace = Trace()
        self.register(trace, "d:a")
        self.register(trace, "d:b")
        trace.emit(
            "composite_registered", dataset="d:ab", members=["d:a", "d:b"], producer="ch"
        )
        self.access(trace, "d:a")  # must go through the composite now
        assert len(check_no_use_after_discard(trace)) == 1

    def test_access_via_composite_passes(self):
        trace = Trace()
        self.register(trace, "d:a")
        trace.emit(
            "composite_registered", dataset="d:ab", members=["d:a"], producer="ch"
        )
        self.access(trace, "d:ab")
        assert check_no_use_after_discard(trace) == []


class TestAmmRankingSynthetic:
    def evict(self, trace, ranking, victim=("d:a", 0), spilled=True, alpha=2.0):
        trace.emit(
            "partition_evicted",
            node="worker-0",
            dataset=victim[0],
            index=victim[1],
            nbytes=1,
            spilled=spilled,
            policy="amm",
            alpha=alpha,
            ranking=ranking,
        )

    def entry(self, dataset, index=0, acc=1, nbytes=100, last_access=0.0, alpha=2.0, pre=None):
        return {
            "dataset": dataset,
            "index": index,
            "acc": acc,
            "nbytes": nbytes,
            "last_access": last_access,
            "pre": acc * nbytes * alpha if pre is None else pre,
        }

    def test_inconsistent_pre_caught(self):
        trace = Trace()
        self.evict(trace, [self.entry("d:a", pre=999.0)])
        assert any("does not match" in v.message for v in check_amm_ranking(trace))

    def test_wrong_victim_caught(self):
        trace = Trace()
        ranking = [self.entry("d:a", acc=5), self.entry("d:b", acc=1)]
        self.evict(trace, ranking, victim=("d:a", 0))
        assert any("lower preference" in v.message for v in check_amm_ranking(trace))

    def test_dead_data_spilled_caught(self):
        """R4: acc=0 partitions must be dropped free of charge."""
        trace = Trace()
        self.evict(trace, [self.entry("d:a", acc=0)], spilled=True)
        assert any("must drop free" in v.message for v in check_amm_ranking(trace))

    def test_live_data_dropped_caught(self):
        trace = Trace()
        self.evict(trace, [self.entry("d:a", acc=3)], spilled=False)
        assert any("must spill" in v.message for v in check_amm_ranking(trace))

    def test_missing_ranking_caught(self):
        trace = Trace()
        self.evict(trace, [{"dataset": "d:a", "index": 0, "nbytes": 1, "last_access": 0.0}])
        assert any("no pre(d) ranking" in v.message for v in check_amm_ranking(trace))

    def test_alpha_override_checks_against_expected_cost_model(self):
        trace = Trace()
        self.evict(trace, [self.entry("d:a", alpha=2.0)], alpha=2.0)
        assert check_amm_ranking(trace) == []
        assert any(
            "does not match" in v.message for v in check_amm_ranking(trace, alpha=8.0)
        )

    def test_lru_evictions_unconstrained(self):
        trace = Trace()
        trace.emit(
            "partition_evicted",
            node="worker-0",
            dataset="d:a",
            index=0,
            nbytes=1,
            spilled=True,
            policy="lru",
            alpha=None,
            ranking=[{"dataset": "d:a", "index": 0, "nbytes": 1, "last_access": 0.0}],
        )
        assert check_amm_ranking(trace) == []


class TestRecoverySoundSynthetic:
    def start_recovery(self, trace, recomputed, reloaded=(), dropped=()):
        trace.emit(
            "recovery_started",
            node="worker-0",
            stage_index=2,
            permanent=False,
            reloaded=[list(k) for k in reloaded],
            recomputed=[list(k) for k in recomputed],
            dropped=[list(k) for k in dropped],
        )

    def store(self, trace, dataset, index):
        trace.emit(
            "partition_stored",
            dataset=dataset,
            index=index,
            node="worker-1",
            nbytes=1,
            tier="memory",
        )

    def access(self, trace, dataset):
        trace.emit(
            "dataset_access",
            dataset=dataset,
            index=0,
            node="worker-1",
            hit=True,
            nbytes=1,
            seconds=0.0,
            reload=False,
        )

    def test_read_before_recompute_caught(self):
        trace = Trace()
        self.start_recovery(trace, [("d:a", 0)])
        self.access(trace, "d:a")
        violations = check_recovery_sound(trace)
        assert any("still pending recompute" in v.message for v in violations)

    def test_read_after_store_passes(self):
        trace = Trace()
        self.start_recovery(trace, [("d:a", 0)])
        self.store(trace, "d:a", 0)
        self.access(trace, "d:a")
        assert check_recovery_sound(trace) == []

    def test_reregistration_settles_pending(self):
        trace = Trace()
        self.start_recovery(trace, [("d:a", 0), ("d:a", 1)])
        trace.emit(
            "dataset_registered", dataset="d:a", producer="op", nbytes=1, partitions=2
        )
        self.access(trace, "d:a")
        assert check_recovery_sound(trace) == []

    def test_discard_settles_pending(self):
        trace = Trace()
        self.start_recovery(trace, [("d:a", 0)])
        trace.emit("dataset_discarded", dataset="d:a")
        assert check_recovery_sound(trace) == []

    def test_access_through_composite_member_caught(self):
        trace = Trace()
        trace.emit(
            "composite_registered", dataset="d:ab", members=["d:a", "d:b"], producer="ch"
        )
        self.start_recovery(trace, [("d:a", 0)])
        self.access(trace, "d:ab")
        self.store(trace, "d:a", 0)
        violations = check_recovery_sound(trace)
        assert len(violations) == 1
        assert "'d:a'" in violations[0].message

    def test_never_rebuilt_caught(self):
        trace = Trace()
        self.start_recovery(trace, [("d:a", 1)])
        violations = check_recovery_sound(trace)
        assert any("never rebuilt or discarded" in v.message for v in violations)

    def test_reloads_and_drops_unconstrained(self):
        trace = Trace()
        self.start_recovery(trace, [], reloaded=[("d:a", 0)], dropped=[("d:b", 0)])
        self.access(trace, "d:a")
        assert check_recovery_sound(trace) == []


# ----------------------------------------------------------- assert plumbing


class TestAssertAndAutoValidate:
    def test_validate_none_trace_is_empty(self):
        assert validate_trace(None) == []
        assert_valid(None)  # no raise

    def test_assert_valid_raises_with_every_violation(self):
        trace = Trace()
        synthetic_prune_event(
            trace, plan={"discard_incrementally": False, "prune_superfluous": False}
        )
        with pytest.raises(InvariantViolation) as excinfo:
            assert_valid(trace)
        assert "plan forbids" in str(excinfo.value)
        assert excinfo.value.violations

    def test_run_mdf_validate_flag_passes_honest_run(self):
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        result = run_mdf(build_filter_mdf(), cluster, observers=[Validator()])
        assert result.output == list(range(10))

    def test_run_mdf_validate_flag_catches_broken_scheduler(self):
        mdf = build_nested_mdf(outer=(2, 3, 5), inner=(7, 11))
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        with pytest.raises(InvariantViolation):
            run_mdf(mdf, cluster, scheduler=BrokenBAS(), observers=[Validator()])

    def test_auto_validate_flag_routes_through_run_mdf(self):
        mdf = build_nested_mdf(outer=(2, 3, 5), inner=(7, 11))
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        with observing(Validator()):
            with pytest.raises(InvariantViolation):
                run_mdf(mdf, cluster, scheduler=BrokenBAS())
        run_mdf(mdf, cluster, scheduler=BrokenBAS())  # off again outside
