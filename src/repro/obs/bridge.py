"""Counters are a fold of the trace: the one event→counter mapping.

The decision trace (:mod:`repro.trace`) and the metrics registry
(:mod:`repro.obs.registry`) observe the same execution at different
altitudes — one event per decision vs labeled aggregates.  Every counter
family the trace can express is *derived* from it by :class:`TraceFold`:
the cluster's trace applies the fold to each committed event (so the live
registry moves exactly when the trace does), and
:func:`registry_from_trace` replays a recorded trace through the same
fold — which is how the service rebuilds a job's registry from its NDJSON
stream.  Live == replay holds by construction; the pinned
``tests/golden/*.registry.json`` files keep the fold itself honest.

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

from typing import Dict, List, Optional, Tuple

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
    """The counters as a streaming fold of the decision trace.

    ``apply(event)`` is the one description of which event moves which
    counter.  A cluster's :class:`~repro.trace.events.Trace` calls it on
    every committed event (the live write path); :func:`registry_from_trace`
    loops it over a recorded trace — the same arms either way.

    Attribution: every event belongs to the most recent ``stage_scheduled``
    / ``stage_reexecuted`` event — the master's stage loop in event form.
    The fold writes exact label tuples.
    """

    def __init__(self, registry: MetricsRegistry):
        if registry.label_names != LABEL_NAMES:
            raise ValueError(
                f"the trace fold writes the engine dimensions {LABEL_NAMES}, "
                f"not {registry.label_names}"
            )
        self.registry = registry
        self.stage: Optional[str] = None
        self.branch: Optional[str] = None
        self.live: set = set()
        #: stage id -> outstanding stage_reexecuted announcements: the next
        #: stage_completed of that stage is recovery work (same pairing the
        #: profiler uses — inputs are secured before the announcement)
        self.reexec_pending: Dict[str, int] = {}

    def _inc(
        self,
        name: str,
        amount: float = 1.0,
        node: str = "",
        dataset: str = "",
        policy: Optional[str] = None,
        stage: Optional[str] = None,
        branch: Optional[str] = None,
    ) -> None:
        """Add to one counter child; stage/branch default to the fold's."""
        labels = (
            node,
            branch or self.branch or "",
            stage or self.stage or "",
            dataset,
            policy or "",
        )
        self.registry.counter_child(name, labels).inc(amount)

    def _span(
        self, data: Dict, activity: Optional[str] = None, recovery: bool = False
    ) -> None:
        """One clock advance: its category split into the profile counters,
        and the per-node seconds and tasks that paid for it."""
        for category, seconds in registry_categories(
            data["io"],
            data["compute"],
            data["network"],
            data["overhead"],
            activity=activity,
            recovery=recovery,
        ).items():
            self._inc(f"profile_{category}_seconds", seconds)
        if "per_node_tasks" not in data:
            return  # recorded before the trace carried the task counts
        for node, seconds in data["per_node_io"].items():
            self._inc("time_io", seconds, node=node)
        for node, seconds in data["per_node_compute"].items():
            self._inc("time_compute", seconds, node=node)
        if data["network"]:
            self._inc("time_network", data["network"])
        for node, count in data["per_node_tasks"].items():
            if count:
                self._inc("tasks_executed", count, node=node)
        if data["speculative_tasks"]:
            self._inc("speculative_tasks", data["speculative_tasks"])

    def apply(self, event) -> None:
        data = event.data
        kind = event.kind
        if kind == "dataset_access":
            node, dataset, nbytes = data["node"], data["dataset"], data["nbytes"]
            if data["hit"]:
                self._inc("partition_hits", node=node, dataset=dataset)
                self._inc("bytes_read_memory", nbytes, node=node, dataset=dataset)
            else:
                self._inc("partition_misses", node=node, dataset=dataset)
                self._inc("bytes_read_disk", nbytes, node=node, dataset=dataset)
        elif kind == "partition_stored":
            self._inc(
                f"bytes_written_{data['tier']}",
                data["nbytes"],
                node=data["node"],
                dataset=data["dataset"],
            )
        elif kind == "stage_scheduled":
            self.stage = data["stage"]
            self.branch = data.get("branch")
            self._inc("scheduler_selections", policy=data.get("rationale"))
        elif kind == "task_dispatched":
            self._inc("stages_executed", stage=data["stage"])
        elif kind == "stage_completed":
            if "io" in data and "per_node_io" in data:
                recovery = self.reexec_pending.get(data["stage"], 0) > 0
                if recovery:
                    self.reexec_pending[data["stage"]] -= 1
                self._span(data, recovery=recovery)
        elif kind == "span":
            self._span(data, activity=data["activity"])
        elif kind == "source_read":
            self._inc(
                "bytes_read_disk", data["nbytes"], node=data["node"], dataset=data["dataset"]
            )
        elif kind == "partition_evicted":
            node, dataset, policy = data["node"], data["dataset"], data["policy"]
            self._inc("evictions", node=node, dataset=dataset, policy=policy)
            if data["spilled"]:
                self._inc("bytes_written_disk", data["nbytes"], node=node, dataset=dataset)
            else:
                self._inc("evictions_free", node=node, dataset=dataset, policy=policy)
        elif kind == "checkpoint_written":
            self._inc("bytes_written_disk", data["nbytes"], dataset=data["dataset"])
        elif kind == "dataset_registered" or kind == "composite_registered":
            self.live.add(data["dataset"])
            if kind == "composite_registered":
                self.live.difference_update(data["members"])
            self.registry.gauge("peak_datasets_stored").set_max(len(self.live))
        elif kind == "dataset_discarded":
            self.live.discard(data["dataset"])
            self._inc("datasets_discarded", dataset=data["dataset"])
        elif kind == "choose_evaluation":
            self._inc("choose_evaluations", dataset=data["dataset"])
        elif kind == "branch_evaluated":
            self._inc("branches_executed", branch=data["branch"])
        elif kind == "branch_pruned":
            self._inc("branches_pruned", branch=data["branch"])
        elif kind in ("node_failed", "recovery_started"):
            # recovery work before the first re-executed stage (reloads,
            # free drops) belongs to no stage
            self.stage = None
            self.branch = None
        elif kind == "stage_reexecuted":
            stage = self.stage = data["stage"]
            self.branch = data["branch"]
            self.reexec_pending[stage] = self.reexec_pending.get(stage, 0) + 1
            self._inc("stages_reexecuted")
        elif kind == "recovery":
            action = data["action"]
            if action in ("reload", "recompute"):
                self._inc("recoveries", node=data["node"])
            if action == "recompute":
                self._inc("recovery_reexecutions", node=data["node"])
            elif action == "reload":
                self._inc(
                    "bytes_read_disk",
                    data["nbytes"],
                    node=data["node"],
                    dataset=data["dataset"],
                )
        elif kind == "task_retried":
            self._inc("task_retries", data["attempts"], node=data["node"])
        elif kind == "cache_hit":
            dataset, tier = data["dataset"], data["tier"]
            self._inc("cache_hits", dataset=dataset, policy=tier)
            self._inc("cache_bytes_saved", data["nbytes"], dataset=dataset, policy=tier)
            self._inc(
                "cache_compute_seconds_saved",
                data["saved_seconds"],
                dataset=dataset,
                policy=tier,
            )
        elif kind == "cache_miss":
            self._inc("cache_misses")
        elif kind == "cache_admit":
            self._inc("cache_admissions", dataset=data["dataset"], policy=data["tier"])
        elif kind == "cache_invalidate":
            self._inc("cache_invalidations", dataset=data["dataset"])


def registry_from_trace(trace) -> MetricsRegistry:
    """Replay a :class:`~repro.trace.events.Trace` into a fresh registry.

    Accepts a live trace or one rebuilt from JSONL
    (:meth:`~repro.trace.events.Trace.load_jsonl`).
    """
    fold = TraceFold(MetricsRegistry())
    for event in trace:
        fold.apply(event)
    return fold.registry


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
