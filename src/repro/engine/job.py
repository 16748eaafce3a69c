"""Job results and execution configuration.

A :class:`JobResult` captures everything the benchmarks report: simulated
completion time (split into compute / IO / network walls), the cluster
metrics (hit ratios, evictions, pruning counts), choose decisions, and the
final sink outputs.  The walls and the decisions are read from the run's
trace events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..cluster.fault import CheckpointConfig, FailureInjector
from ..cluster.metrics import Metrics
from ..cluster.stragglers import SpeculationConfig, StragglerProfile
from ..trace import Trace, TraceEvent
from .hints import SchedulingHint, SortedHint


@dataclass
class EngineConfig:
    """Execution knobs for one MDF job.

    ``incremental_choose`` and ``pruning`` correspond to the paper's
    *incremental* evaluation (§3.1) and superfluous-branch pruning (Table 1);
    both default on, and both are automatically restricted to what the
    choose's evaluator/selection properties permit.
    """

    incremental_choose: bool = True
    pruning: bool = True
    hint: SchedulingHint = field(default_factory=SortedHint)
    partitions_per_worker: int = 1
    #: serial master overhead per task (drives sublinear worker scaling)
    task_overhead: float = 0.0005
    #: run the evaluator at the master instead of the workers (ablation of
    #: the §4.2 choose split; charges a network transfer of branch results,
    #: whether they are scored in flight or read back)
    evaluator_on_master: bool = False
    stragglers: Optional[StragglerProfile] = None
    speculation: SpeculationConfig = field(default_factory=SpeculationConfig)
    failures: Optional[FailureInjector] = None
    #: periodic checkpointing of stage outputs (None = rely on spills)
    checkpointing: Optional[CheckpointConfig] = None
    #: bounded retry for transiently failing tasks (§5): a task may fail
    #: and be retried this many times, each attempt charged in full, before
    #: its node is declared dead and decommissioned
    max_task_retries: int = 3
    #: raise instead of tracing ``failure_unfired`` when an injected
    #: failure is scheduled past the last stage index and never fires
    strict_failures: bool = False
    #: operator names whose output datasets are pinned in memory — the
    #: Spark ``cache()`` emulation used by the Spark (cache) baseline
    pin_producers: frozenset = frozenset()
    #: free intermediates the moment their last consumer ran.  Off by
    #: default: real dataflow systems keep consumed datasets around until
    #: evicted; the MDF's structural knowledge reaches the memory manager
    #: through AMM (dead data is dropped free of charge) and through the
    #: choose's explicit discards instead.
    eager_release: bool = False
    #: lineage-fingerprint result cache (:class:`repro.cache.ResultCache`).
    #: ``None`` (the default) disables caching entirely — a disabled run is
    #: byte-identical to one without the cache subsystem.  Pass the *same*
    #: instance across ``run_mdf`` calls (with ``reset=False`` for the
    #: cluster tier, or a ``SharedCacheStore`` for cross-reset persistence)
    #: to reuse results in warm exploratory re-runs.
    cache: Optional[Any] = None
    #: execution backend for the real operator work (the data plane): a
    #: registry name (``"serial"``, ``"mp"``) or an
    #: :class:`~repro.engine.backends.ExecutionBackend` instance.  Every
    #: backend is required to leave simulated times, traces and outputs
    #: byte-identical to ``"serial"`` — only real wall-clock changes.
    #: Instances are caller-owned (closed by the caller, reusable across
    #: runs); names are instantiated and closed by the engine per run.
    backend: Any = "serial"


@dataclass
class ChooseDecision:
    """Outcome of one choose operator."""

    choose_name: str
    scores: Dict[str, float] = field(default_factory=dict)
    kept: List[str] = field(default_factory=list)
    discarded: List[str] = field(default_factory=list)
    pruned: List[str] = field(default_factory=list)


@dataclass
class JobResult:
    """Everything observable about one executed job.

    The compute / IO / network walls and the choose decisions are views of
    the run's own events, not copies: ``events`` is the cluster's trace and
    ``seqs`` the sequence numbers this run emitted into it.  A warm
    continuation (``run_mdf(..., reset=False)``) emits into the trace of the
    run before it, so a view never reads past its own run's events.
    """

    #: the cluster's decision trace (``repro.trace``) the run emitted into;
    #: empty when tracing was disabled
    events: Trace
    #: ``seq`` of every event this run emitted into ``events``
    seqs: range
    completion_time: float = 0.0
    metrics: Metrics = field(default_factory=Metrics)
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: :class:`~repro.obs.telemetry.Telemetry` bundle (labeled registry +
    #: timeline samples + exporters); None unless a
    #: :class:`~repro.obs.timeline.TimelineSampler` observed the run
    telemetry: Optional[Any] = None
    #: the :class:`~repro.live.monitor.LiveMonitor` that observed the run
    #: (final progress snapshot, alerts, stream); None unless one was
    #: among the run's observers
    live: Optional[Any] = None

    def _own(self, *kinds: str) -> List[TraceEvent]:
        """This run's events of the given kinds, in emission order."""
        events = self.events.events[self.seqs.start : self.seqs.stop]
        return [event for event in events if event.kind in kinds]

    def _wall(self, part: str) -> float:
        """``part`` seconds of every clock advance (``stage_completed`` and
        ``span``), added one by one in order: not ``sum()``, which CPython
        3.12+ compensates, so the total is the same float on every version."""
        total = 0.0
        for event in self._own("stage_completed", "span"):
            total += event.data[part]
        return total

    @property
    def wall_compute(self) -> float:
        return self._wall("compute")

    @property
    def wall_io(self) -> float:
        return self._wall("io")

    @property
    def wall_network(self) -> float:
        return self._wall("network")

    @property
    def decisions(self) -> Dict[str, ChooseDecision]:
        """Choose name -> its decision, from the ``choose_finalized`` events."""
        return {
            data["choose"]: ChooseDecision(
                choose_name=data["choose"],
                scores=dict(data["scores"]),
                kept=list(data["kept"]),
                discarded=list(data["discarded"]),
                pruned=list(data["pruned"]),
            )
            for data in (event.data for event in self._own("choose_finalized"))
        }

    @property
    def output(self) -> Any:
        """The single sink output (convenience for one-sink jobs)."""
        if not self.outputs:
            return None
        return next(iter(self.outputs.values()))

    @property
    def memory_hit_ratio(self) -> float:
        return self.metrics.memory_hit_ratio

    def decision_for(self, choose_name: str) -> ChooseDecision:
        return self.decisions[choose_name]

    def summary(self) -> str:
        """A human-readable report of the job's execution."""
        m = self.metrics
        lines = [
            f"completion time   : {self.completion_time:.3f} s "
            f"(compute {self.wall_compute:.3f}, io {self.wall_io:.3f}, "
            f"network {self.wall_network:.3f})",
            f"stages / tasks    : {m.stages_executed} / {m.tasks_executed}",
            f"memory hit ratio  : {m.memory_hit_ratio:.3f} "
            f"(evictions {m.evictions}, peak datasets {m.peak_datasets_stored})",
            f"branches          : {m.branches_executed} executed, "
            f"{m.branches_pruned} pruned, {m.datasets_discarded} datasets discarded",
        ]
        for name, decision in self.decisions.items():
            lines.append(
                f"choose {name!r}: kept {decision.kept} "
                f"of {len(decision.scores)} scored "
                f"(+{len(decision.pruned)} pruned)"
            )
        return "\n".join(lines)
