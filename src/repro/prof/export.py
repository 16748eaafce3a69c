"""Profile exporters: speedscope flamegraph, Chrome spans, text tables.

The speedscope export is an *evented* profile (open at
https://www.speedscope.app or in the VS Code extension): each span opens a
frame named after its stage/activity, and inside it the attribution
categories open nested frames — frame widths are simulated seconds, so
the flamegraph literally is the makespan attribution.  The Chrome export
renders the same spans as complete events (one row per branch) with the
category split in ``args``.  The text renderers produce the plain
attribution/critical-path/branch tables the CLI and ``--profile`` print.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .attribution import (
    attribution,
    branch_attribution,
    exploration_cost,
    per_node_attribution,
    span_attribution,
)
from .critical import Segment, top_segments
from .spans import CATEGORIES, SpanProfile

# --------------------------------------------------------------- speedscope


def to_speedscope(profile: SpanProfile, name: str = "repro.prof") -> Dict[str, Any]:
    """The speedscope JSON file object for one profile."""
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}

    def frame(label: str) -> int:
        if label not in frame_index:
            frame_index[label] = len(frames)
            frames.append({"name": label})
        return frame_index[label]

    events: List[Dict[str, Any]] = []
    for span in profile.spans:
        outer = frame(span.label)
        events.append({"type": "O", "frame": outer, "at": span.started})
        at = span.started
        for category in CATEGORIES:
            seconds = span_attribution(span).get(category, 0.0)
            if seconds <= 0.0:
                continue
            inner = frame(category)
            events.append({"type": "O", "frame": inner, "at": at})
            at += seconds
            events.append({"type": "C", "frame": inner, "at": at})
        events.append({"type": "C", "frame": outer, "at": span.finished})
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "evented",
                "name": name,
                "unit": "seconds",
                "startValue": profile.start,
                "endValue": profile.completion_time,
                "events": events,
            }
        ],
        "exporter": "repro.prof",
    }


def save_speedscope(profile: SpanProfile, path, name: str = "repro.prof") -> None:
    with open(path, "w") as fh:
        json.dump(to_speedscope(profile, name=name), fh)


# ------------------------------------------------------------------- chrome


def to_chrome_spans(profile: SpanProfile) -> Dict[str, Any]:
    """Chrome ``trace_event`` JSON: spans as complete events per branch."""
    tids: Dict[str, int] = {}

    def tid_of(branch: Optional[str]) -> int:
        key = branch or "main"
        if key not in tids:
            tids[key] = len(tids) + 1
        return tids[key]

    out: List[Dict[str, Any]] = []
    for span in profile.spans:
        out.append(
            {
                "name": span.label,
                "cat": span.kind,
                "ph": "X",
                "ts": span.started * 1e6,
                "dur": max(span.duration, 0.0) * 1e6,
                "pid": 0,
                "tid": tid_of(span.branch),
                "args": {k: v for k, v in span_attribution(span).items()},
            }
        )
    meta = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": name}}
        for name, tid in sorted(tids.items(), key=lambda kv: kv[1])
    ]
    return {"traceEvents": meta + out, "displayTimeUnit": "ms"}


def save_chrome_spans(profile: SpanProfile, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_chrome_spans(profile), fh)


# --------------------------------------------------------------------- text


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _secs(value: float) -> str:
    return f"{value:.6f}"


def _pct(value: float, whole: float) -> str:
    return f"{100.0 * value / whole:5.1f}%" if whole else "  0.0%"


def render_attribution(profile: SpanProfile) -> str:
    """The makespan attribution table (conserved category totals)."""
    if not profile.has_spans:
        return "no profile spans recorded (trace predates repro.prof)"
    totals = attribution(profile)
    makespan = profile.makespan
    rows = [
        [category, _secs(seconds), _pct(seconds, makespan)]
        for category, seconds in totals.items()
        if seconds > 0.0
    ]
    rows.append(["total", _secs(sum(totals.values())), _pct(makespan, makespan)])
    header = f"makespan attribution ({_secs(makespan)} simulated seconds)"
    return header + "\n" + _table(["category", "seconds", "share"], rows)


def render_per_node(profile: SpanProfile) -> str:
    """Per-node busy/idle table (each row sums to the makespan)."""
    if not profile.has_spans:
        return ""
    per_node = per_node_attribution(profile)
    columns = [c for c in CATEGORIES if any(v[c] > 0 for v in per_node.values())]
    rows = []
    for node in sorted(per_node):
        slots = per_node[node]
        rows.append(
            [node]
            + [_secs(slots[c]) for c in columns]
            + [_secs(slots["idle"]), _pct(slots["idle"], profile.makespan)]
        )
    return _table(["node"] + columns + ["idle", "idle%"], rows)


def render_branches(profile: SpanProfile) -> str:
    """Per-branch cost-of-exploration table."""
    if not profile.has_spans:
        return ""
    costs = branch_attribution(profile)
    makespan = profile.makespan
    rows = [
        [cost.branch, cost.fate, _secs(cost.seconds), _pct(cost.seconds, makespan)]
        for cost in costs
    ]
    explo = exploration_cost(profile)
    out = _table(["branch", "fate", "seconds", "share"], rows)
    out += (
        f"\nexploration cost: {_secs(explo.sunk_seconds)} s sunk into "
        f"discarded branches ({100.0 * explo.sunk_share:.1f}% of the makespan); "
        f"{explo.pruned_branches} branch(es) pruned before costing anything"
    )
    return out


def render_critical_path(segments: List[Segment], makespan: float) -> str:
    """The ten longest critical-path segments, plus the exact total."""
    if not segments:
        return "no profile spans recorded (trace predates repro.prof)"
    total = sum(s.seconds for s in segments)
    rows = [
        [
            _secs(segment.started),
            _secs(segment.seconds),
            _pct(segment.seconds, makespan),
            segment.description,
        ]
        for segment in top_segments(segments, 10)
    ]
    out = _table(["t", "seconds", "share", "segment"], rows)
    out += (
        f"\ncritical-path length: {_secs(total)} s over {len(segments)} "
        f"segments (== completion time)"
    )
    return out


__all__ = [
    "render_attribution",
    "render_branches",
    "render_critical_path",
    "render_per_node",
    "save_chrome_spans",
    "save_speedscope",
    "to_chrome_spans",
    "to_speedscope",
]
