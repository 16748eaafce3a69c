"""Pluggable stage-scheduling policies and the string→policy registry.

The engine's scheduling seam is :meth:`~repro.engine.scheduler.Scheduler.
select`; this module populates it with the contender policies the
workflow-scheduling literature catalogues, next to the paper's own
:class:`~repro.engine.scheduler.BranchAwareScheduler` (Algorithm 1) and
the :class:`~repro.engine.scheduler.BFSScheduler` baseline:

* :class:`ListScheduler` (``"heft"``) — HEFT-style list scheduling: ready
  stages are ranked by *upward rank* (the stage's modelled cost plus its
  longest downstream cost chain, from the static estimator), so the
  critical path drains first;
* :class:`SpeculativeScheduler` (``"speculative"``) — depth-first like
  Algorithm 1, but sibling branches are *speculative*: a not-yet-started
  sibling is dispatched only when no already-started branch has ready
  work (idle-resource speculation, as in speculative task execution);
* :class:`WorkStealingScheduler` (``"wsteal"``) — cost-aware work
  stealing: virtual per-worker lanes each take the largest ready stage
  (longest-processing-time-first), the classic steal-biggest-item
  heuristic;
* :class:`RandomScheduler` (``"random"``) — seeded uniform choice over
  the ready set, the control policy of the scheduler lab.

Every policy records its pick's rationale in ``last_rationale`` (flowing
into the ``stage_scheduled`` trace event) and must honour the lab's
differential contract: a policy changes **when** stages run, never
**what** the job computes (``repro.lab.LabReport.mismatches``).

Register a custom policy with :func:`register_scheduler`; resolve names
through :func:`make_scheduler` (used by ``run_mdf``, the bench harness,
the lab and the CLI).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.stages import Stage
from .scheduler import BFSScheduler, BranchAwareScheduler, Scheduler, SchedulerContext


def _choose_candidates(candidates: List[Stage]) -> List[Stage]:
    """Ready choose stages among ``candidates`` (run them ASAP: a choose
    finalises its scope at metadata cost and frees losing datasets)."""
    return [s for s in candidates if s.is_choose]


class ListScheduler(Scheduler):
    """HEFT-style list scheduling over static upward ranks.

    The classic heterogeneous-earliest-finish-time heuristic degenerates,
    on a homogeneous simulated cluster with a serial master, to ordering
    the ready list by upward rank: pick the ready stage whose downstream
    cost chain is longest, so the critical path is never starved.  Ranks
    come from the static estimator's pessimistic per-stage seconds
    (``SchedulerContext.stage_costs``).
    """

    name = "heft"
    needs_estimates = True

    def select(self, ready, last_executed, successors_of_last, context) -> Stage:
        chooses = _choose_candidates(ready)
        if chooses:
            self.last_rationale = "choose-first"
            return min(chooses, key=lambda s: s.index)
        best = max(ready, key=lambda s: (context.upward_rank(s), -s.index))
        self.last_rationale = "max-upward-rank"
        return best


class SpeculativeScheduler(Scheduler):
    """Speculative branch execution: siblings start only when lanes idle.

    Depth-first on the last stage's ready successors (like Algorithm 1).
    On fallback, stages of branches that already started — or stages
    outside any explore scope — are *committed work* and run first; a
    fresh sibling branch is only *speculated* on when no committed work
    is ready.  Deeper scopes win ties (finish inner explores first), and
    within a scope siblings start in domain order.
    """

    name = "speculative"

    def __init__(self):
        self._started: set = set()  # branch ids with at least one stage run

    def _pick(self, stage: Stage) -> Stage:
        if stage.branch_id is not None:
            self._started.add(stage.branch_id)
        return stage

    def _depth(self, context: SchedulerContext, stage: Stage) -> int:
        info = context.branch_info(stage)
        if info is None:
            return 0
        return context.scope_depth.get(info[0], 0)

    def select(self, ready, last_executed, successors_of_last, context) -> Stage:
        ready_ids = {s.id for s in ready}
        candidates = [s for s in successors_of_last if s.id in ready_ids]
        fell_back = not candidates
        if fell_back:
            candidates = list(ready)
        chooses = _choose_candidates(candidates)
        if chooses:
            self.last_rationale = "choose-first"
            return self._pick(chooses[0])
        if not fell_back:
            self.last_rationale = "dfs-successor"
            return self._pick(candidates[0])
        committed = [
            s
            for s in candidates
            if s.branch_id is None or s.branch_id in self._started
        ]
        if committed:
            self.last_rationale = "continue-branch"
            pool = committed
        else:
            self.last_rationale = "speculate-sibling"
            pool = candidates
        best = max(pool, key=lambda s: (self._depth(context, s), -s.index))
        return self._pick(best)


class WorkStealingScheduler(Scheduler):
    """Cost-aware work stealing over virtual per-worker lanes.

    Models the cluster's workers as lanes accumulating modelled stage
    seconds.  Each ``select`` the least-loaded lane steals the *largest*
    ready stage (longest-processing-time-first) — the greedy balance
    heuristic work-stealing deques approximate — so big branch bodies
    spread across lanes before small tails pile onto one.  Lane loads are
    bookkeeping only: the master still executes one stage at a time on
    the simulated cluster.
    """

    name = "wsteal"
    needs_estimates = True

    def __init__(self):
        self._lane_load: Optional[List[float]] = None

    def select(self, ready, last_executed, successors_of_last, context) -> Stage:
        if self._lane_load is None:
            self._lane_load = [0.0] * max(1, context.num_workers)
        chooses = _choose_candidates(ready)
        if chooses:
            self.last_rationale = "choose-first"
            stage = min(chooses, key=lambda s: s.index)
        else:
            stage = max(ready, key=lambda s: (context.stage_cost(s), -s.index))
            self.last_rationale = "steal-largest"
        lane = min(range(len(self._lane_load)), key=lambda i: (self._lane_load[i], i))
        self._lane_load[lane] += context.stage_cost(stage)
        return stage


class RandomScheduler(Scheduler):
    """Uniform random choice over the ready set (seeded, deterministic).

    The lab's control policy: any contender worth keeping must beat it.
    A fixed seed keeps runs reproducible (golden traces pin its order).
    """

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def select(self, ready, last_executed, successors_of_last, context) -> Stage:
        self.last_rationale = "uniform-random"
        return ready[int(self.rng.integers(len(ready)))]


# ------------------------------------------------------------------ registry

#: name -> factory(config) -> Scheduler.  Factories take the job's
#: :class:`~repro.engine.job.EngineConfig` (or None) so policies that read
#: engine knobs (BAS takes the scheduling hint) can; most ignore it.
SCHEDULERS: Dict[str, Callable[[Optional[object]], Scheduler]] = {}


def register_scheduler(
    name: str, factory: Callable[[Optional[object]], Scheduler]
) -> None:
    """Register a scheduler under ``name`` for string resolution.

    ``factory(config)`` must return a *fresh* policy object per call —
    schedulers are single-job (they may keep per-run state).
    """
    if name in SCHEDULERS:
        raise ValueError(f"scheduler {name!r} already registered")
    SCHEDULERS[name] = factory


def available_schedulers() -> List[str]:
    """Registered scheduler names, sorted."""
    return sorted(SCHEDULERS)


def make_scheduler(name: str, config=None) -> Scheduler:
    """Resolve a scheduler name to a fresh policy instance."""
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r} (registered: {available_schedulers()})"
        ) from None
    return factory(config)


register_scheduler("bfs", lambda config: BFSScheduler())
register_scheduler(
    "bas",
    lambda config: BranchAwareScheduler(
        config.hint if config is not None else None
    ),
)
register_scheduler("heft", lambda config: ListScheduler())
register_scheduler("speculative", lambda config: SpeculativeScheduler())
register_scheduler("wsteal", lambda config: WorkStealingScheduler())
register_scheduler("random", lambda config: RandomScheduler())
