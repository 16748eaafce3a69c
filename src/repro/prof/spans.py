"""Span reconstruction: turn a decision trace back into a timeline.

The engine advances its simulated clock in exactly one place
(``Master._advance``), and every advance is recorded on the trace — stage
executions as ``stage_completed`` events carrying their wall-time component
breakdown, everything else (choose evaluation + selection, deferred-tail
stores, checkpoint writes, §5 checkpoint reloads) as ``span`` events with
an activity tag.  This module replays those events into a list of
:class:`Span` objects that *tile* the interval ``[start, completion_time]``
with no gaps and no overlaps — the property ``check_profile_conserved``
(:mod:`repro.trace.validate`) enforces — so every simulated second of the
makespan is attributable to exactly one span.

A trace without a completed stage or span reconstructs to an empty
profile (``has_spans`` is False) and every downstream consumer passes
vacuously; the strict schema guarantees every such event carries the fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..trace.events import Trace

#: exclusive time categories every simulated second lands in (the per-node
#: tables add "idle" for the remainder up to the makespan)
CATEGORIES = (
    "compute",
    "io",
    "reload",
    "network",
    "overhead",
    "evaluator",
    "recovery",
)


@dataclass
class Span:
    """One clock advance: a half-open slice ``[started, finished)``."""

    seq: int
    kind: str  # "stage" | "activity"
    name: str  # stage id, or the activity tag
    branch: Optional[str]
    started: float
    finished: float
    io: float
    compute: float
    network: float
    overhead: float
    per_node_io: Dict[str, float] = field(default_factory=dict)
    per_node_compute: Dict[str, float] = field(default_factory=dict)
    #: per-node seconds of this span's io that streamed eviction-spilled
    #: partitions back from disk (from ``dataset_access`` reload flags)
    reload_io: Dict[str, float] = field(default_factory=dict)
    #: the span is recovery work (§5): a re-executed stage or a reload
    recovery: bool = False
    ops: List[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.finished - self.started

    @property
    def label(self) -> str:
        if self.kind == "stage":
            suffix = f" [{self.branch}]" if self.branch else ""
            return f"{self.name}{suffix}"
        return self.name

    def gating_io_node(self) -> Optional[str]:
        """The node whose io wall gates this span (ties: lowest id)."""
        if not self.per_node_io:
            return None
        return sorted(self.per_node_io.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]

    def gating_compute_node(self) -> Optional[str]:
        if not self.per_node_compute:
            return None
        return sorted(
            self.per_node_compute.items(), key=lambda kv: (-kv[1], kv[0])
        )[0][0]


@dataclass
class SpanProfile:
    """The reconstructed span timeline of one job execution."""

    spans: List[Span]
    #: branch id -> "kept" | "discarded" | "pruned" (from choose_finalized)
    branch_fates: Dict[str, str]
    nodes: List[str]

    @property
    def has_spans(self) -> bool:
        return bool(self.spans)

    @property
    def start(self) -> float:
        return self.spans[0].started if self.spans else 0.0

    @property
    def completion_time(self) -> float:
        return self.spans[-1].finished if self.spans else 0.0

    @property
    def makespan(self) -> float:
        return self.completion_time - self.start


def build_profile(trace: Trace) -> SpanProfile:
    """Reconstruct the span timeline from a trace (live or from JSONL)."""
    spans: List[Span] = []
    fates: Dict[str, str] = {}
    nodes: set = set()
    #: node -> reload seconds accumulated since the last span boundary;
    #: dataset_access events are emitted while the clock still sits at the
    #: covering span's start, so they belong to the *next* span closed
    pending_reload: Dict[str, float] = {}
    #: stage id -> outstanding stage_reexecuted announcements; inputs are
    #: secured before the announcement, so re-executions of the same stage
    #: pair with completions in LIFO-safe counting order
    reexec_pending: Dict[str, int] = {}
    for event in trace:
        data = event.data
        kind = event.kind
        if kind == "dataset_access":
            if data.get("reload"):
                node = data["node"]
                pending_reload[node] = pending_reload.get(node, 0.0) + data.get(
                    "seconds", 0.0
                )
        elif kind == "stage_reexecuted":
            reexec_pending[data["stage"]] = reexec_pending.get(data["stage"], 0) + 1
        elif kind in ("stage_completed", "span"):
            staged = kind == "stage_completed"
            recovery = not staged and data["activity"] == "recovery_reload"
            if staged and reexec_pending.get(data["stage"], 0) > 0:
                reexec_pending[data["stage"]] -= 1
                recovery = True
            spans.append(
                Span(
                    seq=event.seq,
                    kind="stage" if staged else "activity",
                    name=data["stage"] if staged else data["activity"],
                    branch=data.get("branch"),
                    started=data["started"],
                    finished=data["finished"],
                    io=data["io"],
                    compute=data["compute"],
                    network=data["network"],
                    overhead=data["overhead"],
                    per_node_io=dict(data["per_node_io"]),
                    per_node_compute=dict(data["per_node_compute"]),
                    reload_io=pending_reload,
                    recovery=recovery,
                    ops=list(data.get("ops", [])),
                )
            )
            pending_reload = {}
        elif kind == "choose_finalized":
            for branch_id in data["kept"]:
                fates[branch_id] = "kept"
            for branch_id in data["discarded"]:
                fates.setdefault(branch_id, "discarded")
            for branch_id in data["pruned"]:
                fates.setdefault(branch_id, "pruned")
    for span in spans:
        nodes.update(span.per_node_io)
        nodes.update(span.per_node_compute)
    return SpanProfile(spans=spans, branch_fates=fates, nodes=sorted(nodes))


def profile_from_result(result) -> SpanProfile:
    """Convenience: build the profile straight off a ``JobResult``."""
    return build_profile(result.events)


__all__ = [
    "CATEGORIES",
    "Span",
    "SpanProfile",
    "build_profile",
    "profile_from_result",
]
