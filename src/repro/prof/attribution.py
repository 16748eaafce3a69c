"""Exclusive time attribution over a reconstructed span timeline.

Every simulated second of the makespan lands in exactly one category
(:data:`~repro.prof.spans.CATEGORIES`): operator compute, disk/memory io,
eviction-induced reload, network, scheduling overhead, choose evaluation
and §5 recovery.  The split is *conserving* — the category totals sum to
the makespan to 1e-9, which :func:`attribution` asserts and the trace
validator ``check_profile_conserved`` independently enforces span by span.

The io/reload refinement uses the span's gating node (the node whose io
wall the span's io component *is*): the reload seconds that node spent
streaming eviction-spilled partitions are carved out of the span's io,
clamped so conservation survives stragglers stretching the walls.

Per-branch attribution powers the "cost of exploration" breakdown: time
sunk into branches a choose later discarded (executed, evaluated, lost) is
the price of exploring; pruned branches cost nothing — which is exactly
the Table 1 / Fig. 8 win the paper claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..obs.bridge import registry_categories
from .spans import CATEGORIES, Span, SpanProfile

CONSERVATION_TOL = 1e-9


def span_attribution(span: Span) -> Dict[str, float]:
    """One span's seconds split over the exclusive categories."""
    base = registry_categories(
        span.io,
        span.compute,
        span.network,
        span.overhead,
        activity=span.name if span.kind == "activity" else None,
        recovery=span.recovery,
    )
    io = base.get("io", 0.0)
    if io > 0.0 and span.reload_io:
        gating = span.gating_io_node()
        reload = min(span.reload_io.get(gating, 0.0), io) if gating else 0.0
        if reload > 0.0:
            base["io"] = io - reload
            base["reload"] = reload
    return base


def attribution(profile: SpanProfile) -> Dict[str, float]:
    """Makespan split over the categories; asserts conservation to 1e-9."""
    totals = {category: 0.0 for category in CATEGORIES}
    for span in profile.spans:
        for category, seconds in span_attribution(span).items():
            totals[category] += seconds
    if profile.has_spans:
        gap = abs(sum(totals.values()) - profile.makespan)
        if gap > CONSERVATION_TOL * max(1.0, profile.makespan):
            raise AssertionError(
                f"attribution lost {gap} simulated seconds "
                f"(categories sum to {sum(totals.values())}, "
                f"makespan is {profile.makespan})"
            )
    return totals


def per_node_attribution(profile: SpanProfile) -> Dict[str, Dict[str, float]]:
    """Per-node busy seconds by category, plus the idle remainder.

    A node's busy time inside a span is its io + compute share; evaluator
    and recovery spans charge that share to their own category.  ``idle``
    is the makespan minus the node's busy total — non-negative because a
    node's share never exceeds the span's wall (the wall is the maximum
    share, plus network/overhead the node does not carry).
    """
    out: Dict[str, Dict[str, float]] = {
        node: {category: 0.0 for category in CATEGORIES} for node in profile.nodes
    }
    for span in profile.spans:
        whole = (
            "recovery"
            if span.recovery
            else ("evaluator" if span.kind == "activity" and span.name == "choose_evaluation" else None)
        )
        for node in set(span.per_node_io) | set(span.per_node_compute):
            slots = out.setdefault(
                node, {category: 0.0 for category in CATEGORIES}
            )
            io_n = span.per_node_io.get(node, 0.0)
            compute_n = span.per_node_compute.get(node, 0.0)
            if whole is not None:
                slots[whole] += io_n + compute_n
                continue
            reload_n = min(span.reload_io.get(node, 0.0), io_n)
            slots["io"] += io_n - reload_n
            slots["reload"] += reload_n
            slots["compute"] += compute_n
    makespan = profile.makespan
    for node, slots in out.items():
        slots["idle"] = max(0.0, makespan - sum(slots.values()))
    return out


@dataclass
class BranchCost:
    """Simulated seconds one branch consumed, and what became of it."""

    branch: str
    seconds: float
    fate: str  # "kept" | "discarded" | "pruned" | "main"


def branch_attribution(profile: SpanProfile) -> List[BranchCost]:
    """Span time grouped by branch, main-line work under ``(main)``."""
    seconds: Dict[Optional[str], float] = {}
    for span in profile.spans:
        seconds[span.branch] = seconds.get(span.branch, 0.0) + span.duration
    for branch_id, fate in profile.branch_fates.items():
        if fate == "pruned":
            seconds.setdefault(branch_id, 0.0)
    out: List[BranchCost] = []
    for branch_id in sorted(seconds, key=lambda b: (b is not None, b or "")):
        if branch_id is None:
            out.append(BranchCost("(main)", seconds[branch_id], "main"))
        else:
            fate = profile.branch_fates.get(branch_id, "kept")
            out.append(BranchCost(branch_id, seconds[branch_id], fate))
    return out


@dataclass
class ExplorationCost:
    """The price of exploring: time sunk into branches not kept."""

    sunk_seconds: float  # discarded branches (executed, evaluated, lost)
    kept_seconds: float
    pruned_branches: int  # never executed: their cost is ~zero (the win)
    makespan: float

    @property
    def sunk_share(self) -> float:
        return self.sunk_seconds / self.makespan if self.makespan else 0.0


def exploration_cost(profile: SpanProfile) -> ExplorationCost:
    sunk = kept = 0.0
    pruned = 0
    for cost in branch_attribution(profile):
        if cost.fate == "discarded":
            sunk += cost.seconds
        elif cost.fate == "kept":
            kept += cost.seconds
        elif cost.fate == "pruned":
            pruned += 1
    return ExplorationCost(
        sunk_seconds=sunk,
        kept_seconds=kept,
        pruned_branches=pruned,
        makespan=profile.makespan,
    )


__all__ = [
    "BranchCost",
    "CONSERVATION_TOL",
    "ExplorationCost",
    "attribution",
    "branch_attribution",
    "exploration_cost",
    "per_node_attribution",
    "span_attribution",
]
