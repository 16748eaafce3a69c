"""Stage schedulers: breadth-first baseline and branch-aware (Algorithm 1).

The master executes stages one at a time (stage scheduling, §4.1); the
scheduler decides which ready stage runs next.

* :class:`BFSScheduler` — the strategy of existing dataflow systems: stages
  execute in the order they become ready (a FIFO frontier), so all branches
  of an explore advance level by level and every branch completes before
  the choose can decide anything.
* :class:`BranchAwareScheduler` — Algorithm 1: depth-first traversal
  between an explore and its choose.  After executing a stage, its ready
  successors are the next candidates (``T_cand``); only when none are ready
  does the scheduler fall back to the pool of previously ready stages
  (``T_open``, the paper's *pending branch queue*).  Choose stages are
  taken as early as possible, and scheduling hints order sibling branches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.stages import Stage
from .hints import SchedulingHint, SortedHint


class SchedulerContext:
    """What a scheduler may inspect when ranking candidate stages.

    Provided by the master: branch metadata per stage, the scores observed
    so far per explore scope (for model-based hints), static per-stage
    cost estimates (for cost-aware policies) and the stage graph's
    successor structure (for list-scheduling ranks).

    The context is strictly *read-only* for schedulers: a policy may
    change **when** a stage runs, never **what** the job computes (the
    byte-identity contract checked by ``repro.lab``'s differential
    matrix).  Anything the context exposes is derived from the MDF
    structure or already-recorded observations, so reading it cannot
    perturb the job.
    """

    def __init__(self):
        #: stage id -> (explore_name, branch_index, branch_params)
        self.stage_branch: Dict[str, Tuple[str, int, dict]] = {}
        #: explore_name -> list of (params, score) observed so far
        self.observed_scores: Dict[str, List[Tuple[dict, float]]] = {}
        #: explore_name -> nesting depth (deeper scopes scheduled first)
        self.scope_depth: Dict[str, int] = {}
        #: the job's :class:`~repro.core.stages.StageGraph` (set by the
        #: master); lets list schedulers walk successor chains
        self.stage_graph = None
        #: stage id -> modelled pessimistic wall seconds (set by the master
        #: when the scheduler declares ``needs_estimates``); explore/choose
        #: stages are metadata-only and carry no entry (treated as 0)
        self.stage_costs: Dict[str, float] = {}
        #: number of cluster workers (virtual lanes for work stealing)
        self.num_workers: int = 1
        self._upward_ranks: Optional[Dict[str, float]] = None

    def branch_info(self, stage: Stage) -> Optional[Tuple[str, int, dict]]:
        return self.stage_branch.get(stage.id)

    def stage_cost(self, stage: Stage) -> float:
        """Modelled wall seconds of one stage (0 for metadata stages)."""
        return self.stage_costs.get(stage.id, 0.0)

    def upward_rank(self, stage: Stage) -> float:
        """HEFT's upward rank: stage cost + longest downstream cost chain.

        Computed once over the whole stage graph on first use and cached
        for the job's lifetime (the graph and the static estimates never
        change mid-run — pruning only removes stages, which can only
        shorten true ranks, so the static rank stays an admissible
        priority).
        """
        if self._upward_ranks is None:
            self._upward_ranks = self._compute_upward_ranks()
        return self._upward_ranks.get(stage.id, 0.0)

    def _compute_upward_ranks(self) -> Dict[str, float]:
        if self.stage_graph is None:
            return {}
        ranks: Dict[str, float] = {}
        # reverse-topological accumulation over the stage DAG
        for stage in reversed(self.stage_graph.topological_stages()):
            succ_rank = max(
                (ranks.get(s.id, 0.0) for s in self.stage_graph.post(stage)),
                default=0.0,
            )
            ranks[stage.id] = self.stage_cost(stage) + succ_rank
        return ranks


class Scheduler:
    """Picks the next stage to execute from the ready set.

    The contract every policy must honour (documented in
    ``docs/scheduling.md`` and enforced by the master, the trace
    validators and ``repro.lab``'s twin check, ``LabReport.mismatches``):

    * ``select`` returns a member of ``ready`` — nothing else is
      executable, and the master raises on any other pick;
    * the context is read-only — a scheduler observes, it never mutates
      job state;
    * policies are single-job objects — ``make_scheduler`` builds a fresh
      instance per run, so stateful policies (speculation, lane loads)
      need no reset logic.
    """

    name = "base"
    #: why the last ``select`` picked its stage — recorded into the
    #: ``stage_scheduled`` trace event (and, from there, the ``policy``
    #: label of the ``scheduler_selections`` counter)
    last_rationale: Optional[str] = None
    #: set True on policies that rank by modelled stage cost: the master
    #: then runs the static estimator once and fills
    #: ``SchedulerContext.stage_costs`` before the first ``select``
    needs_estimates: bool = False

    def select(
        self,
        ready: Sequence[Stage],
        last_executed: Optional[Stage],
        successors_of_last: Sequence[Stage],
        context: SchedulerContext,
    ) -> Stage:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class BFSScheduler(Scheduler):
    """Breadth-first: run stages in the order they became ready."""

    name = "bfs"

    def select(self, ready, last_executed, successors_of_last, context) -> Stage:
        # `ready` is maintained in became-ready order by the master.
        self.last_rationale = "fifo"
        return ready[0]


class BranchAwareScheduler(Scheduler):
    """Branch-aware scheduling (Algorithm 1) with scheduling hints."""

    name = "bas"

    def __init__(self, hint: Optional[SchedulingHint] = None):
        self.hint = hint or SortedHint()

    def select(self, ready, last_executed, successors_of_last, context) -> Stage:
        ready_ids = {s.id for s in ready}
        candidates = [s for s in successors_of_last if s.id in ready_ids]
        fell_back = not candidates
        if fell_back:
            candidates = list(ready)  # fall back to T_open
        # Choose stages run as early as possible (finalise scopes, free data).
        chooses = [s for s in candidates if s.is_choose]
        if chooses:
            self.last_rationale = "choose-first"
            return chooses[0]
        self.last_rationale = "open-queue" if fell_back else "dfs-successor"
        return self._hinted(candidates, context)

    def _hinted(self, candidates: List[Stage], context: SchedulerContext) -> Stage:
        """Rank candidates: deepest scope first (finish inner explores
        before changing outer choices), then hint order within a scope."""
        by_scope: Dict[Optional[str], List[Tuple[int, Stage, dict]]] = {}
        scope_free: List[Stage] = []
        for stage in candidates:
            info = context.branch_info(stage)
            if info is None:
                scope_free.append(stage)
            else:
                explore_name, branch_index, params = info
                by_scope.setdefault(explore_name, []).append((branch_index, stage, params))
        if scope_free:
            # Stages outside any scope (pre-explore / post-choose) always
            # make global progress; run them first.
            return scope_free[0]
        # Deepest scope first: its choose closes earliest.
        deepest = max(by_scope, key=lambda name: context.scope_depth.get(name, 0))
        entries = by_scope[deepest]
        branch_candidates = [(index, params) for index, _, params in entries]
        observed = context.observed_scores.get(deepest, [])
        order = self.hint.order(branch_candidates, observed)
        rank = {index: pos for pos, index in enumerate(order)}
        entries.sort(key=lambda e: (rank.get(e[0], len(rank)), e[0]))
        return entries[0][1]
