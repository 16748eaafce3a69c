"""Counters are a fold of the trace: the one event→counter mapping.

The decision trace (:mod:`repro.trace`) and the metrics registry
(:mod:`repro.obs.registry`) observe the same execution at different
altitudes — one event per decision vs labeled aggregates.  Every counter
family the trace can express is *derived* from it by :class:`TraceFold`:
the cluster's registry folds its trace's events when it is read
(:meth:`~repro.obs.registry.MetricsRegistry.fold_from`: every event up to
the read, in order, each once), and :func:`registry_from_trace` replays a
recorded trace through the same fold — which is how the service rebuilds
a job's registry from its NDJSON stream.  Live == replay holds by
construction; the pinned ``tests/golden/*.registry.json`` files keep the
fold itself honest.

To add a counter, add an event field and a fold arm — not a call site.

Attribution follows the master's stage loop: every event belongs to the
most recent ``stage_scheduled`` (or ``stage_reexecuted``) event.  That rule
is written here and nowhere else: the engine emits and never counts.
Quantities the trace does not record (tenants, one latency histogram,
instantaneous gauges) are written with explicit labels where they arise;
:data:`CONSISTENCY_VIEWS` lists the instrument/granularity pairs pinned by
the golden registry files.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .registry import LABEL_NAMES, MetricsRegistry

#: (instrument, label dimensions) pairs on which a replayed registry equals
#: the live registry of the run that recorded the trace.
CONSISTENCY_VIEWS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("evictions", ("node", "branch", "stage", "dataset", "policy")),
    ("evictions_free", ("node", "branch", "stage", "dataset", "policy")),
    ("bytes_read_memory", ("node", "branch", "stage", "dataset")),
    ("bytes_read_disk", ("node", "branch", "stage", "dataset")),
    ("bytes_written_memory", ("node", "branch", "stage", "dataset")),
    ("bytes_written_disk", ("node", "branch", "stage", "dataset")),
    ("partition_hits", ("node", "branch", "stage", "dataset")),
    ("partition_misses", ("node", "branch", "stage", "dataset")),
    ("tasks_executed", ("branch", "stage")),
    ("stages_executed", ("branch", "stage")),
    ("branches_executed", ("branch",)),
    ("branches_pruned", ("branch",)),
    ("datasets_discarded", ("dataset",)),
    ("choose_evaluations", ("branch", "stage", "dataset")),
    ("scheduler_selections", ("branch", "stage", "policy")),
    ("recoveries", ("node",)),
    ("recovery_reexecutions", ("node",)),
    ("stages_reexecuted", ("branch", "stage")),
    ("task_retries", ("node", "branch", "stage")),
    ("cache_hits", ("branch", "stage", "dataset", "policy")),
    ("cache_misses", ("branch", "stage")),
    ("cache_bytes_saved", ("branch", "stage", "dataset", "policy")),
    ("cache_compute_seconds_saved", ("branch", "stage", "dataset", "policy")),
    ("cache_admissions", ("branch", "stage", "dataset", "policy")),
    ("cache_invalidations", ("dataset",)),
    # profiler category totals (repro.prof), folded from the extended
    # stage_completed / span events ("reload" is a profiler-only
    # refinement of "io", so it has no counter here)
    ("profile_compute_seconds", ("branch", "stage")),
    ("profile_io_seconds", ("branch", "stage")),
    ("profile_network_seconds", ("branch", "stage")),
    ("profile_overhead_seconds", ("branch", "stage")),
    ("profile_evaluator_seconds", ("branch", "stage")),
    ("profile_recovery_seconds", ("branch", "stage")),
)


def registry_categories(
    io: float,
    compute: float,
    network: float,
    overhead: float,
    activity: Optional[str] = None,
    recovery: bool = False,
) -> Dict[str, float]:
    """Map one span's components to the coarse registry categories.

    The single source of truth shared by the fold's profile counters and
    the profiler: recovery time (a re-executed stage or a checkpoint
    reload) is charged whole to ``recovery``, choose evaluation +
    selection whole to ``evaluator``, and everything else splits by
    component.  The finer io/reload split (which needs per-access reload
    annotations) happens only in :mod:`repro.prof.attribution`.
    """
    total = io + compute + network + overhead
    if recovery or activity == "recovery_reload":
        return {"recovery": total} if total else {}
    if activity == "choose_evaluation":
        return {"evaluator": total} if total else {}
    out: Dict[str, float] = {}
    if compute:
        out["compute"] = compute
    if io:
        out["io"] = io
    if network:
        out["network"] = network
    if overhead:
        out["overhead"] = overhead
    return out


class TraceFold:
    """The counters as a resumable fold of the decision trace.

    ``fold(events, registry)`` dispatches each event, in order, on its kind
    to its arm, the method ``_on_<kind>``: the one description of which
    counter cells that kind moves.  A cluster's registry calls it with the
    events appended since it was last read (the live write path);
    :func:`registry_from_trace` calls it once over a recorded trace — the
    same arms either way.  Between calls the fold keeps only its own state
    (the current stage and branch, the live datasets, pending
    re-executions), never the registry: ``TraceFold(registry)`` checks the
    registry's dimensions and keeps no reference to it.

    Attribution: every event belongs to the most recent ``stage_scheduled``
    / ``stage_reexecuted`` event — the master's stage loop in event form.
    An arm builds its exact label tuple ``(node, branch, stage, dataset,
    policy)`` once and adds to the family's cell table in place
    (:meth:`MetricsRegistry.cells`); an amount read from the event is
    checked ``>= 0``, as ``Counter.inc`` checks it (a strict trace already
    refused it at emit; a loaded one did not).
    """

    def __init__(self, registry: MetricsRegistry):
        if registry.label_names != LABEL_NAMES:
            raise ValueError(
                f"the trace fold writes the engine dimensions {LABEL_NAMES}, "
                f"not {registry.label_names}"
            )
        self.stage = ""
        self.branch = ""
        self.live: set = set()
        #: stage id -> outstanding stage_reexecuted announcements: the next
        #: stage_completed of that stage is recovery work (same pairing the
        #: profiler uses — inputs are secured before the announcement)
        self.reexec_pending: Dict[str, int] = {}

    def fold(self, events: Iterable, registry: MetricsRegistry) -> None:
        """Fold ``events`` into ``registry``'s cells, in order."""
        arms = _ARMS
        for event in events:
            kind = event.kind
            if kind in arms:
                arms[kind](self, event.data, registry)

    def _add(
        self, registry: MetricsRegistry, name: str, node: str, dataset: str, policy: str,
        amount: float = 1.0,
    ) -> None:
        """Add to the cell of ``name`` at the fold's stage and branch."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        cells = registry.cells(name)
        labels = (node, self.branch, self.stage, dataset, policy)
        cells[labels] = cells.get(labels, 0.0) + amount

    # ------------------------------------------------------------ data plane
    def _on_dataset_access(self, data: Dict, registry: MetricsRegistry) -> None:
        nbytes = data["nbytes"]
        if nbytes < 0:
            raise ValueError(f"counter increments must be >= 0, got {nbytes}")
        cells = registry.cells
        if data["hit"]:
            count, read = cells("partition_hits"), cells("bytes_read_memory")
        else:
            count, read = cells("partition_misses"), cells("bytes_read_disk")
        labels = (data["node"], self.branch, self.stage, data["dataset"], "")
        count[labels] = count.get(labels, 0.0) + 1.0
        read[labels] = read.get(labels, 0.0) + nbytes

    def _on_partition_stored(self, data: Dict, registry: MetricsRegistry) -> None:
        name = f"bytes_written_{data['tier']}"
        self._add(registry, name, data["node"], data["dataset"], "", data["nbytes"])

    def _on_source_read(self, data: Dict, registry: MetricsRegistry) -> None:
        self._add(registry, "bytes_read_disk", data["node"], data["dataset"], "", data["nbytes"])

    def _on_partition_evicted(self, data: Dict, registry: MetricsRegistry) -> None:
        node, dataset, policy = data["node"], data["dataset"], data["policy"]
        self._add(registry, "evictions", node, dataset, policy)
        if data["spilled"]:
            self._add(registry, "bytes_written_disk", node, dataset, "", data["nbytes"])
        else:
            self._add(registry, "evictions_free", node, dataset, policy)

    def _on_checkpoint_written(self, data: Dict, registry: MetricsRegistry) -> None:
        self._add(registry, "bytes_written_disk", "", data["dataset"], "", data["nbytes"])

    def _on_dataset_registered(self, data: Dict, registry: MetricsRegistry) -> None:
        self.live.add(data["dataset"])
        self.live.difference_update(data.get("members", ()))  # of a composite
        registry.gauge("peak_datasets_stored").set_max(len(self.live))

    _on_composite_registered = _on_dataset_registered

    def _on_dataset_discarded(self, data: Dict, registry: MetricsRegistry) -> None:
        self.live.discard(data["dataset"])
        self._add(registry, "datasets_discarded", "", data["dataset"], "")

    # ----------------------------------------------------------- stage loop
    def _on_stage_scheduled(self, data: Dict, registry: MetricsRegistry) -> None:
        self.stage = data["stage"]
        self.branch = data["branch"] or ""
        self._add(registry, "scheduler_selections", "", "", data["rationale"] or "")

    def _on_task_dispatched(self, data: Dict, registry: MetricsRegistry) -> None:
        cells = registry.cells("stages_executed")
        labels = ("", self.branch, data["stage"], "", "")
        cells[labels] = cells.get(labels, 0.0) + 1.0

    def _on_stage_completed(self, data: Dict, registry: MetricsRegistry) -> None:
        recovery = self.reexec_pending.get(data["stage"], 0) > 0
        if recovery:
            self.reexec_pending[data["stage"]] -= 1
        self._on_span(data, registry, recovery)

    def _on_span(self, data: Dict, registry: MetricsRegistry, recovery: bool = False) -> None:
        """One clock advance: its category split into the profile counters,
        and the per-node seconds and tasks that paid for it."""
        add = self._add
        for category, seconds in registry_categories(
            data["io"],
            data["compute"],
            data["network"],
            data["overhead"],
            activity=data.get("activity"),
            recovery=recovery,
        ).items():
            add(registry, f"profile_{category}_seconds", "", "", "", seconds)
        self._per_node(registry, "time_io", data["per_node_io"])
        self._per_node(registry, "time_compute", data["per_node_compute"])
        if data["network"]:
            add(registry, "time_network", "", "", "", data["network"])
        for node, count in data["per_node_tasks"].items():
            if count:
                add(registry, "tasks_executed", node, "", "", count)
        if data["speculative_tasks"]:
            add(registry, "speculative_tasks", "", "", "", data["speculative_tasks"])

    def _per_node(self, registry: MetricsRegistry, name: str, seconds: Dict[str, float]) -> None:
        """``seconds[node]`` onto each node's cell of ``name``."""
        if not seconds:
            return
        cells, branch, stage = registry.cells(name), self.branch, self.stage
        for node, amount in seconds.items():
            if amount < 0:
                raise ValueError(f"counter increments must be >= 0, got {amount}")
            labels = (node, branch, stage, "", "")
            cells[labels] = cells.get(labels, 0.0) + amount

    def _on_choose_evaluation(self, data: Dict, registry: MetricsRegistry) -> None:
        self._add(registry, "choose_evaluations", "", data["dataset"], "")

    def _on_branch_evaluated(
        self, data: Dict, registry: MetricsRegistry, name: str = "branches_executed"
    ) -> None:
        cells = registry.cells(name)
        labels = ("", data["branch"] or self.branch, self.stage, "", "")
        cells[labels] = cells.get(labels, 0.0) + 1.0

    def _on_branch_pruned(self, data: Dict, registry: MetricsRegistry) -> None:
        self._on_branch_evaluated(data, registry, "branches_pruned")

    # ------------------------------------------------------------- recovery
    def _on_node_failed(self, data: Dict, registry: MetricsRegistry) -> None:
        # recovery work before the first re-executed stage (reloads, free
        # drops) belongs to no stage
        self.stage = self.branch = ""

    _on_recovery_started = _on_node_failed

    def _on_stage_reexecuted(self, data: Dict, registry: MetricsRegistry) -> None:
        stage = self.stage = data["stage"]
        self.branch = data["branch"] or ""
        self.reexec_pending[stage] = self.reexec_pending.get(stage, 0) + 1
        self._add(registry, "stages_reexecuted", "", "", "")

    def _on_recovery(self, data: Dict, registry: MetricsRegistry) -> None:
        action = data["action"]
        if action in ("reload", "recompute"):
            self._add(registry, "recoveries", data["node"], "", "")
        if action == "recompute":
            self._add(registry, "recovery_reexecutions", data["node"], "", "")
        elif action == "reload":
            self._on_source_read(data, registry)

    def _on_task_retried(self, data: Dict, registry: MetricsRegistry) -> None:
        self._add(registry, "task_retries", data["node"], "", "", data["attempts"])

    # ---------------------------------------------------------------- cache
    def _on_cache_hit(self, data: Dict, registry: MetricsRegistry) -> None:
        dataset, tier = data["dataset"], data["tier"]
        self._add(registry, "cache_hits", "", dataset, tier)
        self._add(registry, "cache_bytes_saved", "", dataset, tier, data["nbytes"])
        self._add(
            registry, "cache_compute_seconds_saved", "", dataset, tier, data["saved_seconds"]
        )

    def _on_cache_miss(self, data: Dict, registry: MetricsRegistry) -> None:
        self._add(registry, "cache_misses", "", "", "")

    def _on_cache_admit(self, data: Dict, registry: MetricsRegistry) -> None:
        self._add(registry, "cache_admissions", "", data["dataset"], data["tier"])

    def _on_cache_invalidate(self, data: Dict, registry: MetricsRegistry) -> None:
        self._add(registry, "cache_invalidations", "", data["dataset"], "")


#: event kind -> its arm, the :class:`TraceFold` method ``_on_<kind>``
_ARMS = {name[4:]: arm for name, arm in vars(TraceFold).items() if name.startswith("_on_")}


def registry_from_trace(trace) -> MetricsRegistry:
    """Replay a :class:`~repro.trace.events.Trace` into a fresh registry.

    Accepts a live trace or one rebuilt from JSONL
    (:meth:`~repro.trace.events.Trace.load_jsonl`).
    """
    registry = MetricsRegistry()
    TraceFold(registry).fold(trace, registry)
    return registry


def diff_registries(
    live: MetricsRegistry,
    rebuilt: MetricsRegistry,
    views: Tuple[Tuple[str, Tuple[str, ...]], ...] = CONSISTENCY_VIEWS,
) -> List[str]:
    """Differences between two registries over the guaranteed views.

    Returns human-readable mismatch descriptions (empty = consistent).
    Used by the telemetry↔trace regression tests.
    """
    problems: List[str] = []
    for name, dims in views:
        a = live.aggregate(name, dims)
        b = rebuilt.aggregate(name, dims)
        for key in sorted(set(a) | set(b)):
            va, vb = a.get(key, 0.0), b.get(key, 0.0)
            if abs(va - vb) > 1e-9:
                labels = dict(zip(dims, key)) if dims else "(total)"
                problems.append(
                    f"{name}{labels}: live={va} rebuilt-from-trace={vb}"
                )
    return problems


__all__ = [
    "CONSISTENCY_VIEWS",
    "TraceFold",
    "diff_registries",
    "registry_categories",
    "registry_from_trace",
]
