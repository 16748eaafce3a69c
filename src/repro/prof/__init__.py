"""repro.prof — critical-path profiler over the canonical decision trace.

Reconstructs a per-node span timeline from a recorded trace
(:mod:`~repro.prof.spans`), attributes every simulated second of the
makespan to exclusive categories with an exact conservation invariant
(:mod:`~repro.prof.attribution`), extracts the critical path and its
gating nodes (:mod:`~repro.prof.critical`), re-costs recorded runs under
scaled resource speeds (:mod:`~repro.prof.whatif`), and exports
speedscope / Chrome-trace / plain-text views (:mod:`~repro.prof.export`).

CLI::

    python -m repro prof trace.jsonl --critical-path --by-branch
    python -m repro prof trace.jsonl --what-if compute=0.5x,alpha=2x
    python -m repro gate benchmarks/baselines.json

The CI perf-regression gate lives in :mod:`repro.prof.gate`; it imports
the engine, so it is intentionally not re-exported here (the rest of the
package works on recorded traces alone).  The span → category mapping
(``registry_categories``) lives beside the counters' trace fold in
:mod:`repro.obs.bridge` and is re-exported here.
"""

from ..obs.bridge import registry_categories
from .attribution import (
    BranchCost,
    CONSERVATION_TOL,
    ExplorationCost,
    attribution,
    branch_attribution,
    exploration_cost,
    per_node_attribution,
    span_attribution,
)
from .collect import ProfileCollector
from .critical import Segment, critical_path, critical_path_length, top_segments
from .export import (
    render_attribution,
    render_branches,
    render_critical_path,
    render_per_node,
    save_chrome_spans,
    save_speedscope,
    to_chrome_spans,
    to_speedscope,
)
from .spans import (
    CATEGORIES,
    Span,
    SpanProfile,
    build_profile,
    profile_from_result,
)
from .whatif import WhatIf, parse_factors, render_whatif, reprice

__all__ = [
    "BranchCost",
    "CATEGORIES",
    "CONSERVATION_TOL",
    "ExplorationCost",
    "ProfileCollector",
    "Segment",
    "Span",
    "SpanProfile",
    "WhatIf",
    "attribution",
    "branch_attribution",
    "build_profile",
    "critical_path",
    "critical_path_length",
    "exploration_cost",
    "parse_factors",
    "per_node_attribution",
    "profile_from_result",
    "registry_categories",
    "render_attribution",
    "render_branches",
    "render_critical_path",
    "render_per_node",
    "render_whatif",
    "reprice",
    "save_chrome_spans",
    "save_speedscope",
    "span_attribution",
    "to_chrome_spans",
    "to_speedscope",
    "top_segments",
]
