"""The master: drives MDF execution (Algorithm 1 + §5 implementation).

The master owns the schedule loop, the dataset lifecycle (reference counts
over *effective* consumers, which is what frees datasets early — R3), the
choose protocol (worker-side evaluator, master-side selection, incremental
evaluation and superfluous-branch pruning), and the binding of AMM's
future-access counter (Algorithm 2's ``acc(d)``).

Dynamic topology changes (§5) are realised by pruning: the stages of a
pruned branch are removed from the schedule, their datasets discarded, and
the matching choose's readiness updated — the schedule is rewritten at the
master exactly as in the SEEP implementation.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..cache import choose_fingerprint, operator_fingerprints, stage_fingerprint
from ..cluster.cluster import Cluster
from ..cluster.fault import ChooseScoreStore
from ..core.choose import ChooseOperator
from ..core.datasets import Dataset, Partition
from ..core.errors import FaultError, SchedulingError
from ..core.explore import Branch
from ..core.mdf import MDF, Scope
from ..core.operators import Operator, Sink
from ..core.optimizations import make_pruner, plan_optimizations
from ..core.stages import Stage, StageGraph
from .executor import StageExecutor, StageTimes
from .job import EngineConfig, JobResult
from .recovery import RecoveryManager
from .scheduler import BFSScheduler, Scheduler, SchedulerContext

#: master-side cost per selection-function invocation (§5 reports the
#: master sustaining 2M invocations/s on low-end hardware)
MASTER_SELECTION_COST = 5e-7

#: runs in progress in this process (nested or on other threads), and
#: whether the collector was on when the first of them began
_paused_runs = 0
_collector_was_enabled = False
_pause_lock = threading.Lock()


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off while any run is in progress.

    What a run keeps, it keeps until it returns (the trace holds its
    events, the cluster its payloads); what it drops, reference counting
    frees, because a run makes no reference cycle.  So a collection inside
    a run frees nothing, and only walks what the run keeps.  The first
    run to begin records whether the collector was on, the last to end
    puts that back: nested runs, overlapping runs on threads and a run
    that raises all leave the state they found.
    """
    global _paused_runs, _collector_was_enabled
    with _pause_lock:
        if _paused_runs == 0:
            _collector_was_enabled = gc.isenabled()
            gc.disable()
        _paused_runs += 1
    try:
        yield
    finally:
        with _pause_lock:
            _paused_runs -= 1
            if _paused_runs == 0 and _collector_was_enabled:
                gc.enable()


class _ScopeRuntime:
    """Execution-time state of one explore/choose scope."""

    def __init__(self, scope: Scope, config: EngineConfig):
        self.scope = scope
        self.choose = scope.choose
        self.plan = plan_optimizations(self.choose.evaluator, self.choose.selection)
        self.selector = self.choose.selection.incremental()
        self.pruner = (
            make_pruner(self.choose.evaluator, self.choose.selection)
            if (config.pruning and self.plan.prune_superfluous)
            else None
        )
        self.scores: Dict[str, float] = {}
        self.alive: Set[str] = set()  # evaluated, not discarded
        self.discarded: Set[str] = set()
        self.pruned: Set[str] = set()
        self.tail_dataset: Dict[str, str] = {}
        self.finalized = False
        # The monotone/convex trend pruners (Table 1) reason over scores
        # observed *in the explorable's domain order* — their soundness
        # precondition.  BAS (sorted hint) and BFS evaluate branches in
        # domain order; a pluggable policy need not.  Track whether every
        # evaluation so far extended the ordered prefix 0,1,...,i and
        # consult the trend pruner only while that holds, so any
        # scheduler stays prune-sound (it merely loses the shortcut).
        self._next_ordered_index = 0
        self._in_domain_order = True

    def note_evaluation_order(self, branch_index: int) -> bool:
        """Record one evaluation; True while evaluations form the ordered
        prefix of the domain (the trend pruners' soundness precondition)."""
        if self._in_domain_order and branch_index == self._next_ordered_index:
            self._next_ordered_index += 1
        else:
            self._in_domain_order = False
        return self._in_domain_order

    @property
    def branches(self) -> List[Branch]:
        return self.scope.branches

    def settled(self) -> bool:
        """True when every branch is evaluated or pruned (both hold only
        ids of this scope's branches)."""
        return len(self.pruned.union(self.scores)) == len(self.scope.branches)

    def unexecuted_branches(self) -> List[Branch]:
        return [
            b
            for b in self.branches
            if b.id not in self.scores and b.id not in self.pruned
        ]


class Master:
    """Schedules and executes one MDF job on a cluster."""

    def __init__(
        self,
        mdf: MDF,
        cluster: Cluster,
        scheduler: Optional[Scheduler] = None,
        config: Optional[EngineConfig] = None,
    ):
        mdf.validate()
        self.mdf = mdf
        self.cluster = cluster
        self.scheduler = scheduler or BFSScheduler()
        self.config = config or EngineConfig()
        self.executor = StageExecutor(cluster, self.config)
        self.stage_graph = StageGraph(mdf)
        self.score_store = ChooseScoreStore()
        #: ``seq`` of this run's first event: a warm continuation emits
        #: into the trace the run before it left
        self._first_seq = len(cluster.trace)
        self._outputs: Dict[str, Any] = {}  # sink name -> finalized output

        # --- schedule state
        self._executed: Set[str] = set()
        self._pruned_stages: Set[str] = set()
        self._remaining_preds: Dict[str, int] = {}
        self._ready: Dict[str, Stage] = {}  # stage id -> stage, in arrival order
        self._offered: Set[str] = set()  # stage ids offered to the backend
        self._stage_by_id: Dict[str, Stage] = {s.id: s for s in self.stage_graph.stages}
        self._last_executed: Optional[Stage] = None
        self._stages_since_checkpoint = 0

        # --- data state
        self._output_of: Dict[str, str] = {}  # operator name -> dataset id
        self._consumers: Dict[str, Set[str]] = {}  # dataset id -> op names
        self._producer_op: Dict[str, str] = {}  # dataset id -> producing op
        #: base dataset id -> composite dataset id that absorbed it (AMM's
        #: acc(d) must resolve a node slot's dataset to its live composite)
        self._composite_of: Dict[str, str] = {}
        #: dataset id -> lineage fingerprint of its content (result cache);
        #: None or absent = uncacheable.  Written where outputs are
        #: registered (:meth:`_register_output`) and rebuilt per run —
        #: entries in the shared :class:`~repro.cache.ResultCache` are what
        #: survives across runs.
        self._fp_of: Dict[str, Optional[str]] = {}
        #: operator name -> its fingerprint (None = unfingerprintable), taken
        #: here in one pass: before any operator has run, so none of them
        #: can write into a sibling's identity, and with every shared array
        #: hashed once.  Explore and choose stages are never fingerprinted.
        stages = self.stage_graph.stages if self.config.cache is not None else ()
        self._op_fps: Dict[str, Optional[str]] = operator_fingerprints(
            op
            for stage in stages
            if stage.kind not in ("explore", "choose")
            for op in stage.ops
        )

        # --- scope state
        self._scopes: Dict[str, _ScopeRuntime] = {}
        self._live_branches = 0  # sum of len(rt.alive) over the scopes
        #: a handle, fetched once: every registry access folds the trace
        #: events appended since the last one (fold on read)
        self._live_branches_gauge = cluster.obs.gauge("live_branches")
        self._context = SchedulerContext()
        self._context.stage_graph = self.stage_graph
        self._context.num_workers = cluster.num_workers
        if getattr(self.scheduler, "needs_estimates", False):
            # cost-aware policies rank by the static estimator's modelled
            # per-stage seconds; computed once, before the first select
            from .estimate import estimate_mdf

            estimate = estimate_mdf(
                mdf,
                cluster.num_workers,
                cost_model=cluster.cost_model,
                task_overhead=self.config.task_overhead,
                partitions_per_worker=self.config.partitions_per_worker,
            )
            self._context.stage_costs = {
                e.stage_id: e.pessimistic_seconds for e in estimate.stages
            }
        self._prepare_scopes()
        self._prepare_schedule()
        self._bind_policy()
        # hand every operator of the run to the data-plane backend up
        # front: process-pool backends make them reachable from workers
        # via fork inheritance (operators are closures, not picklables)
        self.executor.backend.prepare(
            op for stage in self.stage_graph.stages for op in stage.ops
        )

    # ------------------------------------------------------------- set-up
    def _prepare_scopes(self) -> None:
        for explore_name, scope in self.mdf.scopes.items():
            runtime = _ScopeRuntime(scope, self.config)
            self._scopes[explore_name] = runtime
            depth = self.mdf.nesting_depth(scope.explore) + 1
            self._context.scope_depth[explore_name] = depth
        # hints reason over the *innermost* branch of every stage
        for stage in self.stage_graph.stages:
            if stage.branch_id is None:
                continue
            explore_name, index_str = stage.branch_id.split("#", 1)
            branch = self._scopes[explore_name].scope.branches[int(index_str)]
            self._context.stage_branch[stage.id] = (
                explore_name,
                branch.index,
                branch.params,
            )

    def _prepare_schedule(self) -> None:
        for stage in self.stage_graph.stages:
            preds = self.stage_graph.pre(stage)
            self._remaining_preds[stage.id] = len(preds)
            if not preds:
                self._ready[stage.id] = stage

    def _bind_policy(self) -> None:
        policy = self.cluster.policy
        policy.bind(self._future_accesses, self.cluster.cost_model.alpha)

    def _future_accesses(self, dataset_id: str) -> int:
        """Alg. 2's ``acc(d)``: future readers of a dataset per the MDF."""
        seen = set()
        while dataset_id in self._composite_of and dataset_id not in seen:
            seen.add(dataset_id)
            dataset_id = self._composite_of[dataset_id]
        return len(self._consumers.get(dataset_id, ()))

    # -------------------------------------------------------- ready queue
    def _mark_done(self, stage: Stage, pruned: bool = False) -> None:
        """Record a stage as executed (or pruned) and update readiness."""
        if stage.id in self._executed or stage.id in self._pruned_stages:
            return
        if pruned:
            self._pruned_stages.add(stage.id)
        else:
            self._executed.add(stage.id)
        self._ready.pop(stage.id, None)
        for succ in sorted(self.stage_graph.post(stage), key=lambda s: s.index):
            if succ.id in self._executed or succ.id in self._pruned_stages:
                continue
            self._remaining_preds[succ.id] -= 1
            if self._remaining_preds[succ.id] == 0:
                self._ready.setdefault(succ.id, succ)

    # ------------------------------------------------------------- lifecycle
    def _register_output(
        self, tail: Operator, dataset_id: str, fingerprint: Optional[str]
    ) -> None:
        """Publish a stored dataset as ``tail``'s output, with its lineage."""
        self._output_of[tail.name] = dataset_id
        self._producer_op[dataset_id] = tail.name
        self._fp_of[dataset_id] = fingerprint
        existing = self._consumers.get(dataset_id, set())
        self._consumers[dataset_id] = existing | self.mdf.effective_consumers(tail)
        if tail.name in self.config.pin_producers:
            self.cluster.pin_dataset(dataset_id)  # Spark cache() emulation

    def _consume(self, dataset_id: str, consumer: Operator) -> None:
        """One consumer has read the dataset; free it when none remain.

        Without ``eager_release`` the dataset is left in place (acc drops
        to 0, so AMM evicts it first, at zero spill cost); with it the
        dataset is discarded immediately.
        """
        consumers = self._consumers.get(dataset_id)
        if consumers is None:
            return
        consumers.discard(consumer.name)
        if not consumers and self.config.eager_release:
            self._release(dataset_id)

    def _release(self, dataset_id: str) -> None:
        self._consumers.pop(dataset_id, None)
        cache = self.config.cache
        if cache is not None:
            # eager invalidation: entries admitted under this dataset lose
            # their backing the moment the discard lands
            cache.invalidate_dataset(
                dataset_id, self.cluster, reason="dataset-discarded"
            )
        self.cluster.discard_dataset(dataset_id)

    # --------------------------------------------------------- result cache
    def _stage_fingerprint(self, stage: Stage, input_ids: List[str]) -> Optional[str]:
        """Lineage fingerprint of a stage's output, or ``None`` (uncacheable).

        Combines the stage kind, the canonical identity of every operator
        in its chain, the fingerprints of its input datasets (lineage) and
        the partitioning layout the output depends on.  Any hole — an
        operator without a canonical identity, an input produced by an
        unfingerprintable chain — makes the stage conservatively
        uncacheable, recorded as a ``cache_miss`` with reason
        ``"unfingerprintable"``.
        """
        if self.config.cache is None:
            return None
        input_fps = [self._fp_of.get(input_id) for input_id in input_ids]
        op_fps = [self._op_fps[op.name] for op in stage.ops]
        if None in input_fps or None in op_fps:
            self.config.cache.note_miss(
                None, self.cluster, stage.id, "unfingerprintable"
            )
            return None
        if stage.kind == "source":
            layout = self.cluster.num_workers * self.config.partitions_per_worker
        elif stage.kind == "narrow":
            # narrow stages inherit their input's partitioning untouched
            layout = None
        else:
            layout = self.cluster.num_workers
        return stage_fingerprint(stage.kind, op_fps, input_fps, layout)

    def _choose_fingerprint(
        self, kept_ids: List[str], runtime: "_ScopeRuntime"
    ) -> Optional[str]:
        """Derive a choose output's fingerprint from its kept members.

        The choose itself moves no data (Definition 3.3), so its output's
        lineage is exactly the set of kept member lineages.  Any member
        without a fingerprint — or an empty selection, whose partition
        layout depends on the cluster rather than on lineage — makes the
        output uncacheable downstream.
        """
        member_fps = [
            self._fp_of.get(runtime.tail_dataset[branch_id]) for branch_id in kept_ids
        ]
        if not member_fps or None in member_fps:
            return None
        return choose_fingerprint(member_fps)

    # ------------------------------------------------------------ main loop
    def run(self) -> JobResult:
        """Execute the MDF to completion and return the job result.

        The policy is unbound when the run ends, so a finished run leaves
        no reference cycle (cluster -> policy -> master -> cluster): its
        cluster, trace and payloads die with their last reference.  A run
        makes no cycle either, so the cyclic collector sits it out
        (:func:`_collector_paused`): its passes over the run's live trace
        events would free nothing.
        """
        with _collector_paused():
            try:
                return self._run()
            finally:
                self.executor.close()
                self.cluster.policy.bind(None, self.cluster.cost_model.alpha)

    def _run(self) -> JobResult:
        stage_index = 0
        while self._ready:
            self._maybe_fail(stage_index)
            ready = list(self._ready.values())
            successors = (
                sorted(
                    self.stage_graph.post(self._last_executed),
                    key=lambda s: s.index,
                )
                if self._last_executed is not None
                else []
            )
            stage = self.scheduler.select(ready, self._last_executed, successors, self._context)
            if stage.id not in self._ready:  # pragma: no cover - guard
                raise SchedulingError(f"scheduler picked non-ready stage {stage.id}")
            self.cluster.trace.emit(
                "stage_scheduled",
                stage=stage.id,
                branch=stage.branch_id,
                scheduler=self.scheduler.name,
                rationale=getattr(self.scheduler, "last_rationale", None),
                ready=[s.id for s in ready],
                ready_choose=[s.id for s in ready if s.is_choose],
                successors_ready=[s.id for s in successors if s.id in self._ready],
            )
            self._prefetch_siblings(stage, ready)
            # Everything the stage causes — loads, stores, evictions, the
            # deferred choose evaluation — is attributed to it: the trace
            # fold files events after a stage_scheduled under that stage.
            if stage.is_choose:
                self._execute_choose_stage(stage)
            else:
                self._execute_stage(stage)
            self._last_executed = stage
            stage_index += 1
        if any(
            s.id not in self._executed and s.id not in self._pruned_stages
            for s in self.stage_graph.stages
        ):
            unfinished = [
                s.id
                for s in self.stage_graph.stages
                if s.id not in self._executed and s.id not in self._pruned_stages
            ]
            raise SchedulingError(f"schedule stalled with pending stages: {unfinished}")
        self._surface_unfired_failures()
        trace = self.cluster.trace
        return JobResult(
            completion_time=self.cluster.clock.now,
            metrics=self.cluster.metrics,
            outputs=self._outputs,
            events=trace,
            seqs=range(self._first_seq, len(trace)),
        )

    def _prefetch_siblings(self, chosen: Stage, ready: List[Stage]) -> None:
        """Offer ready sibling stages to the backend ahead of their turn.

        Branch-level real parallelism: while the chosen stage executes
        in-process, a parallel backend can already run ``run_stage`` for
        the other ready stages (independent explore branches).  Strictly
        invisible to the simulation — no accounting, no trace events, and
        results are only taken by the very execution path that would
        have computed them.  A stage is offered once a run, so a step does
        not re-peek the inputs of every sibling still waiting.  Disabled
        under failure injection (recovery re-executes stages, so
        speculative payloads could go stale).
        """
        backend = self.executor.backend
        if not backend.supports_prefetch or self.config.failures is not None:
            return
        for stage in ready:
            if stage.id == chosen.id or stage.kind not in ("narrow", "wide"):
                continue
            if stage.id in self._offered:
                continue
            (input_id,) = self._stage_inputs(stage)
            if not self.cluster.has_dataset(input_id):
                continue
            self._offered.add(stage.id)
            payloads = self.cluster.peek_payloads(input_id)
            backend.prefetch_stage(stage.id, stage.kind, stage.ops, payloads)

    def _maybe_fail(self, stage_index: int) -> None:
        """Fire due injected failures and *pay* for them (§5).

        Transient task failures within the retry budget are handed to the
        executor, which charges each attempt plus backoff on the next
        executed stage; beyond ``max_task_retries`` the node is declared
        dead and decommissioned.  Whole-node failures go through the
        :class:`~repro.engine.recovery.RecoveryManager`, which reloads,
        recomputes or drops every lost partition and advances the clock by
        the full recovery cost.
        """
        injector = self.config.failures
        if injector is None:
            return
        for task_event in injector.due_task_failures(stage_index):
            if task_event.attempts > self.config.max_task_retries:
                self.cluster.trace.emit(
                    "task_retries_exhausted",
                    node=task_event.node_id,
                    attempts=task_event.attempts,
                    max_retries=self.config.max_task_retries,
                )
                report = self.cluster.fail_node(
                    task_event.node_id, permanent=True, reason="retries-exhausted"
                )
                RecoveryManager(self).handle_failure(report, stage_index)
            else:
                self.executor.inject_task_faults(
                    {task_event.node_id: task_event.attempts}
                )
        for report in injector.maybe_fail(self.cluster, stage_index):
            RecoveryManager(self).handle_failure(report, stage_index)

    def _surface_unfired_failures(self) -> None:
        """An injected failure scheduled past the schedule's end is a rotten
        benchmark config: trace it, or raise under ``strict_failures``."""
        injector = self.config.failures
        if injector is None:
            return
        unfired = injector.unfired()
        for kind, event in unfired:
            self.cluster.trace.emit(
                "failure_unfired",
                failure_kind=kind,
                node=event.node_id,
                stage_index=event.stage_index,
            )
        if unfired and self.config.strict_failures:
            detail = ", ".join(
                f"{kind} failure of {event.node_id!r} at stage index "
                f"{event.stage_index}"
                for kind, event in unfired
            )
            raise FaultError(f"injected failure(s) never fired: {detail}")

    # --------------------------------------------------------- stage kinds
    def _stage_inputs(self, stage: Stage) -> List[str]:
        """Dataset ids the stage's head reads, in operand order.

        ``[]`` for a source, ``[pred]`` for every single-input head
        (explore included) and ``[left, right]`` for a join.  The one place
        that knows where a stage's inputs come from: execution, prefetch,
        fingerprinting and recovery re-execution all ask here.
        """
        head = stage.head
        if stage.kind == "join":
            if len(head.input_names) != 2:
                raise SchedulingError(
                    f"join {head.name!r} was not wired through Pipe.join"
                )
            names = head.input_names
        else:
            names = [pred.name for pred in self.mdf.pre(head)]
            if len(names) > 1:
                raise SchedulingError(
                    f"non-choose operator {head.name!r} has multiple inputs"
                )
        try:
            return [self._output_of[name] for name in names]
        except KeyError as exc:
            raise SchedulingError(
                f"input {exc} of stage {stage.id} not yet produced"
            ) from None

    def _execute_stage(self, stage: Stage) -> None:
        started = self.cluster.clock.now
        head = stage.head
        input_ids = self._stage_inputs(stage)
        if stage.kind == "explore":
            # Definition 3.2: explore forwards its input dataset zero-copy.
            (self._output_of[head.name],) = input_ids
            self._advance(StageTimes(overhead=self.config.task_overhead), stage, started)
            self._mark_done(stage)
            return
        # A branch-tail stage under incremental choose defers its store:
        # the evaluator pipelines with the stage (§4.2) and losing results
        # are never materialised at all (R3).
        branch = self.stage_graph.branch_ending_at(stage)
        defer = (
            branch is not None
            and self.config.incremental_choose
            and bool(input_ids)
        )
        # AMM must see the future consumers of the output *while* it is
        # being stored, or the store itself would evict the fresh
        # partitions as acc = 0 data.
        self._consumers.setdefault(
            f"d:{stage.tail.name}", set()
        ).update(self.mdf.effective_consumers(stage.tail))
        fingerprint = self._stage_fingerprint(stage, input_ids)
        outcome = self.executor.execute(
            stage, input_ids, defer_store=defer, fingerprint=fingerprint
        )
        self.cluster.trace.emit(
            "task_dispatched", stage=stage.id, num_tasks=outcome.num_tasks
        )
        self._advance(outcome.times, stage, started)
        for input_id in input_ids:
            self._consume(input_id, head)
        self._mark_done(stage)
        if defer:
            self._score_branch(
                self._scopes[branch.explore_name], branch, outcome.pending, fingerprint
            )
            return
        self._register_output(stage.tail, outcome.output_dataset_id, fingerprint)
        self._maybe_checkpoint(outcome.output_dataset_id)
        self._collect_sink_outputs(stage, outcome.output_dataset_id)
        self._after_stage(stage, outcome.output_dataset_id)

    def _maybe_checkpoint(self, output_dataset_id: Optional[str]) -> None:
        """Charge the periodic checkpoint write of a stage output (§5)."""
        config = self.config.checkpointing
        if config is None or output_dataset_id is None:
            return
        self._stages_since_checkpoint += 1
        if self._stages_since_checkpoint < config.interval_stages:
            return
        self._stages_since_checkpoint = 0
        if not self.cluster.has_dataset(output_dataset_id):
            return
        record = self.cluster.record(output_dataset_id)
        seconds = (
            self.cluster.cost_model.disk_write_time(record.nbytes)
            * config.overhead_fraction
        )
        self.cluster.trace.emit(
            "checkpoint_written",
            dataset=output_dataset_id,
            nbytes=int(record.nbytes * config.overhead_fraction),
        )
        self.cluster.mark_checkpointed(output_dataset_id)
        self._advance(
            StageTimes(io=seconds), None, self.cluster.clock.now, activity="checkpoint"
        )

    def _collect_sink_outputs(
        self, stage: Stage, output_dataset_id: Optional[str]
    ) -> None:
        for op in stage.ops:
            if isinstance(op, Sink) and output_dataset_id is not None:
                dataset = self.cluster.materialize(output_dataset_id)
                self._outputs[op.name] = op.finalize(dataset)

    def _after_stage(self, stage: Stage, output_dataset_id: str) -> None:
        """Event hook: a stored dataset may be a branch's result.

        Branch tails whose dataset already exists on the cluster — a nested
        choose's aliased output, or any tail when the store was not
        deferred — are scored from the stored copy, now under incremental
        choose, else when the choose stage becomes ready.
        """
        branch = self.stage_graph.branch_ending_at(stage)
        if branch is None:
            return
        runtime = self._scopes[branch.explore_name]
        runtime.tail_dataset[branch.id] = output_dataset_id
        if self.config.incremental_choose:
            self._score_branch(runtime, branch)

    # -------------------------------------------------------------- choose
    def _execute_choose_stage(self, stage: Stage) -> None:
        """A choose stage became ready: every branch is executed or pruned."""
        (choose,) = stage.ops
        assert isinstance(choose, ChooseOperator)
        runtime = self._scopes[self.mdf.scope_of_choose(choose).explore.name]
        if runtime.finalized:
            self._mark_done(stage)
            return
        # Non-incremental path: score all branches now, in branch order
        # (each scoring may prune later ones, and the last one finalizes).
        for branch in runtime.branches:
            if branch.id not in runtime.scores and branch.id not in runtime.pruned:
                self._score_branch(runtime, branch)
        if not runtime.finalized:  # pragma: no cover - defensive
            raise SchedulingError(f"choose {choose.name!r} could not finalize")

    def _score_branch(
        self,
        runtime: _ScopeRuntime,
        branch: Branch,
        pending: Optional[Dataset] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        """The choose protocol for one branch result (§3.1, §4.2, Table 1).

        Worker-side evaluator, master-side incremental selection, discard
        of what the selection knocked out, pruning of what it made
        superfluous, and finalization once every branch is settled.  A
        ``pending`` result is scored in flight and stored (under
        ``fingerprint``) only if it survives — earlier losers are freed
        first, so the store never spills data about to be discarded, and a
        losing new result is never materialised at all (R3); without it
        the evaluator reads the branch's stored tail dataset.
        """
        choose = runtime.choose
        started = self.cluster.clock.now
        score, times = self.executor.evaluate(
            choose.evaluator,
            pending if pending is not None else runtime.tail_dataset[branch.id],
        )
        # master runs the selection function (§5): tiny but accounted
        times.overhead += MASTER_SELECTION_COST
        self._advance(
            times, None, started, activity="choose_evaluation", branch=branch.id
        )
        runtime.scores[branch.id] = score
        self.score_store.put(choose.name, branch.id, score)
        self.cluster.trace.emit(
            "branch_evaluated",
            choose=choose.name,
            branch=branch.id,
            score=score,
            pipelined=pending is not None,
        )
        self._context.observed_scores.setdefault(branch.explore_name, []).append(
            (branch.params, score)
        )
        decision = runtime.selector.offer(branch.id, score)
        for discarded_id in decision.discarded:
            self._discard_branch_dataset(runtime, discarded_id)
        if branch.id not in decision.discarded:
            self._live_branches += branch.id not in runtime.alive
            runtime.alive.add(branch.id)
            if pending is not None:
                store_started = self.cluster.clock.now
                store_times = self.executor.commit_store(pending, fingerprint)
                self._advance(
                    store_times,
                    None,
                    store_started,
                    activity="store_commit",
                    branch=branch.id,
                )
                runtime.tail_dataset[branch.id] = pending.id
                self._register_output(branch.ops[-1], pending.id, fingerprint)
                self._maybe_checkpoint(pending.id)
        elif pending is not None:
            # the consumer entry seeded for AMM before the stage ran would
            # otherwise leak and inflate acc(d) for any later dataset
            # reusing this id
            self._consumers.pop(pending.id, None)
        ordered = runtime.note_evaluation_order(branch.index)
        can_prune = self.config.pruning and runtime.plan.prune_superfluous
        if decision.done and can_prune:
            self._prune_remaining(runtime, reason="selection-done")
        elif (
            runtime.pruner is not None
            and can_prune
            and ordered
            and runtime.pruner.observe(score)
        ):
            self._prune_remaining(runtime, reason=self._pruner_reason(runtime))
        self._maybe_finalize(runtime)
        self._update_live_branches()

    def _update_live_branches(self) -> None:
        """Maintain the live-branch gauge the timeline sampler reads.

        A branch is *live* while its evaluated result is still materialised
        on the cluster (not yet discarded by its choose's selection).
        """
        self._live_branches_gauge.set(self._live_branches)

    def _discard_branch_dataset(self, runtime: _ScopeRuntime, branch_id: str) -> None:
        if branch_id in runtime.discarded:
            return
        runtime.discarded.add(branch_id)
        self._live_branches -= branch_id in runtime.alive
        runtime.alive.discard(branch_id)
        self._update_live_branches()
        dataset_id = runtime.tail_dataset.get(branch_id)
        self.cluster.trace.emit(
            "branch_discarded",
            choose=runtime.choose.name,
            branch=branch_id,
            dataset=dataset_id,
            materialized=dataset_id is not None,
        )
        if dataset_id is not None:
            self._release(dataset_id)

    def _pruner_reason(self, runtime: _ScopeRuntime) -> str:
        """Which Table 1 evaluator property the active pruner exploited."""
        if runtime.choose.evaluator.convex:
            return "convex-trend"
        return "monotone-trend"

    def _prune_justification(self, runtime: _ScopeRuntime) -> Tuple[Dict, Dict]:
        """The Table 1 row behind a prune: recorded plan + raw properties."""
        evaluator = runtime.choose.evaluator
        selection = runtime.choose.selection
        plan = {
            "discard_incrementally": runtime.plan.discard_incrementally,
            "prune_superfluous": runtime.plan.prune_superfluous,
        }
        properties = {
            "associative": selection.associative,
            "non_exhaustive": selection.non_exhaustive,
            "monotone": evaluator.monotone,
            "convex": evaluator.convex,
        }
        return plan, properties

    def _prune_remaining(self, runtime: _ScopeRuntime, reason: str) -> None:
        """Superfluous-branch pruning: dynamic topology rewrite (§5)."""
        for branch in runtime.unexecuted_branches():
            self._prune_branch(runtime, branch, reason)
        self._maybe_finalize(runtime)

    def _prune_branch(self, runtime: _ScopeRuntime, branch: Branch, reason: str) -> None:
        runtime.pruned.add(branch.id)
        pruned_ops: Set[str] = set()
        pruned_stage_ids: List[str] = []
        for stage_id in self.stage_graph.branch_stage_ids(branch):
            if stage_id in self._executed or stage_id in self._pruned_stages:
                continue
            stage = self._stage_by_id[stage_id]
            pruned_ops.update(op.name for op in stage.ops)
            pruned_stage_ids.append(stage_id)
            self.executor.backend.drop_prefetched(stage_id)
            self._mark_done(stage, pruned=True)
            # nested scopes inside the pruned branch will never finalize
            inner = self.stage_graph.branch_ending_at(stage)
            if inner is not None:
                self._scopes[inner.explore_name].pruned.add(inner.id)
        plan, properties = self._prune_justification(runtime)
        self.cluster.trace.emit(
            "branch_pruned",
            choose=runtime.choose.name,
            branch=branch.id,
            reason=reason,
            stages=sorted(pruned_stage_ids),
            plan=plan,
            properties=properties,
        )
        # datasets whose only remaining readers were pruned are freed now
        for dataset_id in list(self._consumers):
            consumers = self._consumers[dataset_id]
            if not consumers:
                continue  # terminal outputs (empty consumer sets) stay alive
            consumers -= pruned_ops
            if not consumers:
                self._release(dataset_id)
        # datasets produced by pruned operators are dead as well
        for dataset_id, producer in list(self._producer_op.items()):
            if producer in pruned_ops and self.cluster.has_dataset(dataset_id):
                self._release(dataset_id)

    def _maybe_finalize(self, runtime: _ScopeRuntime) -> None:
        if runtime.finalized or not runtime.settled():
            return
        choose = runtime.choose
        kept_ids = [b for b in runtime.selector.finalize() if b in runtime.alive]
        selection = choose.selection
        if not selection.ranked and not selection.non_exhaustive:
            # Unranked exhaustive selections (Threshold, Interval, Mode)
            # keep a plain *set*; present it in branch-domain order so the
            # choose output (and the ⊕ composite built from it) does not
            # depend on the evaluation order the scheduler picked.  Ranked
            # selections keep their score order; non-exhaustive first-k
            # keeps arrival order (which *is* its semantics, Fig. 8).
            domain_order = {b.id: b.index for b in runtime.branches}
            kept_ids.sort(key=lambda b: domain_order[b])
        # branches that were evaluated but not selected lose their datasets
        for branch in runtime.branches:
            if branch.id in runtime.scores and branch.id not in kept_ids:
                self._discard_branch_dataset(runtime, branch.id)
        output_id = self._build_choose_output(runtime, kept_ids)
        self._output_of[choose.name] = output_id
        runtime.finalized = True
        self.cluster.trace.emit(
            "choose_finalized",
            choose=choose.name,
            kept=list(kept_ids),
            discarded=sorted(runtime.discarded),
            pruned=sorted(runtime.pruned),
            scores=dict(runtime.scores),
        )
        stage = self.stage_graph.stage_of(choose)
        self._mark_done(stage)
        # a choose may itself be the tail of an enclosing branch: feed the
        # outer scope (nested explores, Definition 3.1); the aliased output
        # was not just produced, so the outer evaluator reads it
        self._after_stage(stage, output_id)

    def _build_choose_output(self, runtime: _ScopeRuntime, kept_ids: List[str]) -> str:
        """Concatenate the kept branch datasets (Definition 3.3's ``⊕``)."""
        choose = runtime.choose
        downstream = self.mdf.effective_consumers(choose)
        fingerprint = self._choose_fingerprint(kept_ids, runtime)
        if len(kept_ids) == 1:
            # single winner: alias the dataset, no copy — only its lineage
            # changes (downstream now reads it as the choose's output)
            dataset_id = runtime.tail_dataset[kept_ids[0]]
            self._fp_of[dataset_id] = fingerprint
            consumers = self._consumers.setdefault(dataset_id, set())
            consumers.discard(choose.name)
            consumers |= downstream
            self._producer_op[dataset_id] = choose.name
            if not consumers:
                self._release(dataset_id)
            return dataset_id
        if not kept_ids:
            empty = Dataset.from_data(
                [], num_partitions=self.cluster.num_workers, producer=choose.name
            )
            empty.partitions = [
                Partition(empty.id, p.index, p.data, 1) for p in empty.partitions
            ]
            self.cluster.register_dataset(empty)
            self._register_output(choose, empty.id, fingerprint)
            return empty.id
        # multiple winners: fuse the kept datasets into one zero-copy
        # composite — the selection function runs at the master and only
        # rewires references (Definition 3.3's ⊕ costs no data movement)
        comp_id = f"d:{choose.name}"
        member_ids = [runtime.tail_dataset[b] for b in kept_ids]
        base_ids: Set[str] = set()
        for member_id in member_ids:
            record = self.cluster.record(member_id)
            base_ids.update(key[0] for key in record.partition_keys)
        self.cluster.register_composite(comp_id, member_ids, producer=choose.name)
        for base in base_ids:
            self._composite_of[base] = comp_id
        for member_id in member_ids:
            self._consumers.pop(member_id, None)
        self._register_output(choose, comp_id, fingerprint)
        return comp_id

    # ------------------------------------------------------------- timing
    def _advance(
        self,
        times: StageTimes,
        stage: Optional[Stage],
        started: float,
        activity: Optional[str] = None,
        branch: Optional[str] = None,
    ) -> None:
        """Advance the simulated clock and record the advance as a span.

        This is the ONLY place the job's clock moves, and every advance
        emits either an extended ``stage_completed`` event (stage spans)
        or a ``span`` event tagged with ``activity`` (everything else:
        choose evaluation, deferred-tail stores, checkpoints, recovery
        reloads) — which is what lets ``repro.prof`` reconstruct a span
        timeline that tiles ``[0, completion_time]`` exactly
        (``check_profile_conserved``) and what the result's compute / IO /
        network walls add up.
        """
        self.cluster.clock.advance(times.total)
        finished = self.cluster.clock.now
        if stage is not None:
            self.cluster.trace.emit(
                "stage_completed",
                stage=stage.id,
                ops=[op.name for op in stage.ops],
                branch=stage.branch_id,
                started=started,
                finished=finished,
                io=times.io,
                compute=times.compute,
                network=times.network,
                overhead=times.overhead,
                per_node_io=dict(times.per_node_io),
                per_node_compute=dict(times.per_node_compute),
                per_node_tasks=dict(times.per_node_tasks),
                speculative_tasks=times.speculative_tasks,
            )
        else:
            self.cluster.trace.emit(
                "span",
                activity=activity,
                branch=branch,
                started=started,
                finished=finished,
                io=times.io,
                compute=times.compute,
                network=times.network,
                overhead=times.overhead,
                per_node_io=dict(times.per_node_io),
                per_node_compute=dict(times.per_node_compute),
                per_node_tasks=dict(times.per_node_tasks),
                speculative_tasks=times.speculative_tasks,
            )
