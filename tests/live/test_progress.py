"""Online progress/ETA estimator: exact convergence and monotone tightening.

The two acceptance properties from the live-telemetry issue:

* on every golden workload, the ETA at the final event equals the job's
  completion time to 1e-9 (the pending set is empty, ``now`` has caught
  up to the last ``finished`` timestamp);
* across a ``branch_pruned`` or ``choose_finalized`` event the ETA never
  grows — pruning removes modelled work without advancing the clock —
  and the estimate never references a pruned branch again.
"""

from __future__ import annotations

import pytest

from repro import Cluster, GB, MB, observing
from repro.live import LiveMonitor, LivePlan, ProgressEstimator
from repro.live.hook import LiveHook
from repro.trace import Trace

from ..conftest import build_filter_mdf
from ..golden.regenerate import (
    GOLDEN_FILES,
    RECORDERS,
    build_explore_choose_mdf,
)


@pytest.fixture
def live_hook():
    hook = LiveHook()
    with observing(hook):
        yield hook


def explore_choose_plan():
    """The LivePlan matching the explore_choose golden recording."""
    cluster = Cluster(num_workers=2, mem_per_worker=48 * MB)
    return LivePlan.from_mdf(
        build_explore_choose_mdf(), workers=2, cost_model=cluster.cost_model
    )


@pytest.mark.parametrize("name", sorted(RECORDERS))
class TestExactConvergence:
    def test_eta_equals_completion_time_at_final_event(self, name, live_hook):
        """Every golden workload, run under the live hook: the monitor's
        final ETA is the completion time, exactly."""
        result = RECORDERS[name]()
        monitor = result.live
        assert monitor is not None, "hooked run must carry its monitor"
        snap = monitor.snapshot()
        assert snap.eta is not None
        assert abs(snap.eta - result.completion_time) <= 1e-9
        assert snap.remaining_seconds == 0.0
        assert snap.critical_path_seconds == 0.0
        assert snap.fraction == 1.0
        # and the hooked stream stayed byte-identical to the export
        assert live_hook.all_byte_identical


class TestMonotoneTightening:
    def fold_with_trajectory(self):
        """Replay the explore_choose golden through a planned estimator,
        recording the ETA before/after every prune/finalize event."""
        plan = explore_choose_plan()
        estimator = ProgressEstimator(plan=plan)
        trace = Trace.load_jsonl(GOLDEN_FILES["explore_choose"])
        transitions = []
        for event in trace.events:
            if event.kind in ("branch_pruned", "choose_finalized"):
                before = estimator.eta
                estimator.on_event(event)
                transitions.append((event.kind, before, estimator.eta))
            else:
                estimator.on_event(event)
        return plan, estimator, trace, transitions

    def test_eta_shrinks_across_prunes_and_finalize(self):
        plan, estimator, trace, transitions = self.fold_with_trajectory()
        assert any(kind == "branch_pruned" for kind, _, _ in transitions)
        assert any(kind == "choose_finalized" for kind, _, _ in transitions)
        for kind, before, after in transitions:
            assert after <= before + 1e-9, (
                f"{kind} grew the ETA: {before} -> {after}"
            )

    def test_replayed_eta_matches_engine_completion_time(self):
        """Golden-file replay (events only, no engine state): the final
        ETA equals the completion time the engine itself reports."""
        plan, estimator, trace, _ = self.fold_with_trajectory()
        completion = RECORDERS["explore_choose"]().completion_time
        assert estimator.eta is not None
        assert abs(estimator.eta - completion) <= 1e-9
        assert estimator.remaining_seconds == 0.0

    def test_pruned_branches_never_referenced_again(self):
        plan = explore_choose_plan()
        estimator = ProgressEstimator(plan=plan)
        trace = Trace.load_jsonl(GOLDEN_FILES["explore_choose"])
        pruned = set()
        for event in trace.events:
            estimator.on_event(event)
            if event.kind == "branch_pruned":
                pruned.add(event.data["branch"])
            for branch in pruned:
                assert branch not in estimator.remaining_by_branch()
                assert estimator.branch_status[branch] == "pruned"
        assert pruned, "golden trace must contain prunes"
        # the stages of pruned branches left the pending universe for good
        pruned_stage_ids = set().union(
            *(plan.branch_stages[b] for b in pruned)
        )
        assert not pruned_stage_ids & set(estimator.pending_stage_ids())

    def test_pruned_stages_counted_but_not_completed(self):
        plan, estimator, trace, _ = self.fold_with_trajectory()
        assert estimator.pruned_stages
        assert not estimator.pruned_stages & estimator.completed
        snap = estimator.snapshot()
        assert snap.stages_total == len(plan.real_stage_ids)
        assert (
            snap.stages_completed
            == snap.stages_total - snap.stages_pruned
        )


class TestTraceOnlyMode:
    def test_no_plan_still_tracks_progress_without_eta(self):
        estimator = ProgressEstimator()  # what the CLI uses
        trace = Trace.load_jsonl(GOLDEN_FILES["explore_choose"])
        for event in trace.events:
            estimator.on_event(event)
        snap = estimator.snapshot()
        assert snap.eta is None
        assert snap.remaining_seconds is None
        assert snap.stages_total is None
        assert snap.fraction is None
        assert snap.stages_completed > 0
        assert snap.now > 0.0
        # branch lifecycle is learned from the events themselves
        counts = snap.branch_counts()
        assert counts["pruned"] > 0
        assert counts["kept"] == 1
        assert estimator.remaining_by_branch() == {}

    def test_mark_finished(self):
        estimator = ProgressEstimator()
        assert not estimator.snapshot().finished
        estimator.mark_finished()
        assert estimator.snapshot().finished


class TestCalibration:
    def test_calibration_reflects_observed_over_modelled(self):
        """After a monitored run the calibration is positive and the
        estimator saw walls for every estimated stage."""
        from repro import run_mdf

        mdf = build_filter_mdf()
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        result = run_mdf(mdf, cluster, observers=[LiveMonitor()])
        progress = result.live.progress
        assert 0.0 < progress.calibration
        # observed clean-run walls land at or under the pessimistic model
        assert progress.calibration <= 1.0 + 1e-9

    def test_recovery_reruns_do_not_double_count(self):
        estimator = ProgressEstimator()
        event = Trace.from_jsonl(
            '{"data":{"branch":null,"ops":[],"overhead":0.0,'
            '"per_node_compute":{},"per_node_io":{},"per_node_tasks":{},'
            '"speculative_tasks":0,"stage":"stage-1",'
            '"started":0.0,"finished":1.0},"kind":"stage_completed",'
            '"seq":0,"t":0.0}\n'
        ).events[0]
        estimator.on_event(event)
        estimator.on_event(event)
        assert estimator.snapshot().stages_completed == 1
