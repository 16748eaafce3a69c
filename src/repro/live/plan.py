"""The live layer's static view of a job: :class:`LivePlan`.

The online estimator (:mod:`repro.live.progress`) needs three things the
trace alone cannot provide — the full stage inventory before anything has
run, a modelled cost per stage, and the branch → stage-ids map that turns
a ``branch_pruned`` event into "these stages will never run".  All three
are derivable *statically* from the MDF, which is exactly what the
pre-run planner (:func:`repro.engine.estimate.estimate_mdf`) and the
scheduler context (:class:`repro.engine.scheduler.SchedulerContext`)
already compute.  :class:`LivePlan` bundles them into one read-only
object built once per run.

Stage ids are deterministic per derivation of the same dataflow
(``StageGraph`` renumbers per graph), so a plan built here from the MDF
names exactly the stages the master's own graph emits into the trace.

The plan also carries a :class:`SchedulerContext` wired with the stage
graph and the pessimistic per-stage costs, so the live dashboard reuses
the *memoised* HEFT upward ranks — ``critical_path_remaining`` is the
longest modelled downstream chain from any pending stage, a lower bound
companion to the serial-sum ETA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..cluster.costmodel import CostModel
from ..core.mdf import MDF
from ..core.stages import StageGraph
from ..engine.scheduler import SchedulerContext


@dataclass
class LivePlan:
    """Static per-stage costs + branch structure for one MDF run."""

    #: stage id -> modelled pessimistic wall seconds (real stages only;
    #: explore/choose metadata stages carry no entry and cost 0)
    stage_costs: Dict[str, float]
    #: stage id -> modelled optimistic wall seconds (same key set)
    optimistic_costs: Dict[str, float]
    #: every stage id in the graph, topological order
    all_stage_ids: List[str]
    #: stage ids that emit ``stage_completed`` when run — every non-choose
    #: stage (explore forwarders complete too, with overhead-only walls;
    #: choose stages finalize via ``choose_finalized`` instead).  This is
    #: the estimator's pending/total universe.
    real_stage_ids: List[str]
    #: branch id ("explore#index") -> stage ids inside that branch
    branch_stages: Dict[str, Set[str]]
    #: stage id -> innermost branch id (None outside any scope)
    stage_branch: Dict[str, Optional[str]]
    #: explore name -> branch ids, in grid order
    scope_branches: Dict[str, List[str]]
    #: scheduler context with memoised upward ranks over the same costs
    context: SchedulerContext = field(repr=False, default_factory=SchedulerContext)
    #: whole-job modelled bounds (no-pruning assumption)
    optimistic_total: float = 0.0
    pessimistic_total: float = 0.0

    @classmethod
    def from_mdf(
        cls,
        mdf: MDF,
        workers: int,
        cost_model: Optional[CostModel] = None,
        task_overhead: float = 0.0005,
        partitions_per_worker: int = 1,
    ) -> "LivePlan":
        """Derive the plan the estimator folds events against.

        Pass the same ``workers``/``task_overhead``/``partitions_per_worker``
        the run uses so the modelled costs line up with what the master's
        own cost-aware schedulers would see.
        """
        from ..engine.estimate import estimate_mdf

        mdf.validate()
        stage_graph = StageGraph(mdf)
        estimate = estimate_mdf(
            mdf,
            workers,
            cost_model=cost_model,
            task_overhead=task_overhead,
            partitions_per_worker=partitions_per_worker,
        )
        stage_costs = {e.stage_id: e.pessimistic_seconds for e in estimate.stages}
        optimistic = {e.stage_id: e.optimistic_seconds for e in estimate.stages}

        branch_stages: Dict[str, Set[str]] = {}
        scope_branches: Dict[str, List[str]] = {}
        for explore_name, scope in mdf.scopes.items():
            scope_branches[explore_name] = [b.id for b in scope.branches]
            for branch in scope.branches:
                branch_stages[branch.id] = stage_graph.branch_stage_ids(branch)

        order = stage_graph.topological_stages()
        context = SchedulerContext()
        context.stage_graph = stage_graph
        context.stage_costs = dict(stage_costs)
        context.num_workers = workers

        return cls(
            stage_costs=stage_costs,
            optimistic_costs=optimistic,
            all_stage_ids=[s.id for s in order],
            real_stage_ids=[s.id for s in order if not s.is_choose],
            branch_stages=branch_stages,
            stage_branch={s.id: s.branch_id for s in order},
            scope_branches=scope_branches,
            context=context,
            optimistic_total=estimate.optimistic_seconds,
            pessimistic_total=estimate.pessimistic_seconds,
        )

    # ------------------------------------------------------------- queries
    def cost_of(self, stage_id: str) -> float:
        """Modelled pessimistic seconds of one stage (0 for metadata)."""
        return self.stage_costs.get(stage_id, 0.0)

    def remaining_seconds(self, pending: Iterable[str]) -> float:
        """Serial remaining work: Σ modelled cost over pending stage ids.

        The master executes stages one at a time (stage scheduling, §4.1),
        so the serial sum — not the parallel critical path — is the right
        completion model; the per-stage costs already divide work across
        the cluster's workers.
        """
        return sum(self.stage_costs.get(sid, 0.0) for sid in pending)

    def critical_path_remaining(self, pending: Iterable[str]) -> float:
        """Longest modelled downstream chain from any pending stage.

        Reuses the scheduler context's memoised HEFT upward ranks
        (:meth:`~repro.engine.scheduler.SchedulerContext.upward_rank`):
        computed once over the stage DAG on first use, cached for the
        plan's lifetime.  A lower bound on remaining time under unlimited
        stage-level parallelism — shown on the dashboard next to the
        serial ETA.
        """
        graph = self.context.stage_graph
        if graph is None:
            return 0.0
        by_id = {s.id: s for s in graph.stages}
        return max(
            (
                self.context.upward_rank(by_id[sid])
                for sid in pending
                if sid in by_id
            ),
            default=0.0,
        )
