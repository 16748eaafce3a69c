"""The job-level telemetry bundle a :class:`~repro.obs.timeline.TimelineSampler`
observer hangs on ``result.telemetry``.

One :class:`Telemetry` object packages the run's labeled metrics registry
and the simulated-clock timeline into every export the benchmarks need:
Prometheus text, JSON, and the per-branch / per-node breakdown tables
(rendered by :mod:`repro.bench.report`, imported lazily to keep
``repro.obs`` free of a bench dependency at import time).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .export import prometheus_text, registry_json, registry_to_dict
from .registry import MetricsRegistry

if TYPE_CHECKING:  # the sampler builds the bundle, so it imports this module
    from .timeline import TimelineSampler


class Telemetry:
    """Everything observable about one run beyond the job-global metrics."""

    def __init__(
        self,
        registry: MetricsRegistry,
        timeline: Optional[TimelineSampler] = None,
        metrics=None,
    ):
        self.registry = registry
        self.timeline = timeline
        self.metrics = metrics

    # --------------------------------------------------------------- exports
    def to_prometheus(self, namespace: str = "repro") -> str:
        return prometheus_text(self.registry, namespace=namespace)

    def to_json(self, indent: int = 2) -> str:
        return registry_json(self.registry, indent=indent)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"registry": registry_to_dict(self.registry)}
        if self.timeline is not None:
            out["timeline"] = self.timeline.as_dicts()
        if self.metrics is not None:
            out["metrics"] = self.metrics.as_dict()
        return out

    def timeline_json(self, indent: int = 2) -> str:
        samples = self.timeline.as_dicts() if self.timeline is not None else []
        return json.dumps(samples, indent=indent, sort_keys=True)

    @property
    def samples(self) -> List:
        return self.timeline.samples if self.timeline is not None else []

    # ------------------------------------------------------------ breakdowns
    def branch_breakdown(self) -> str:
        """Per-branch attribution table (tasks, evictions, bytes, time)."""
        from ..bench.report import telemetry_breakdown

        return telemetry_breakdown(self.registry, "branch")

    def node_breakdown(self) -> str:
        """Per-node attribution table (tasks, evictions, bytes, time)."""
        from ..bench.report import telemetry_breakdown

        return telemetry_breakdown(self.registry, "node")

    def timeline_table(self, max_rows: int = 24) -> str:
        """The Fig 17-style memory-over-time series as a text table."""
        from ..bench.report import timeline_table

        samples = self.timeline.samples if self.timeline is not None else []
        return timeline_table(samples, max_rows=max_rows)

    def __repr__(self) -> str:  # pragma: no cover
        n = len(self.timeline) if self.timeline is not None else 0
        return f"Telemetry({self.registry!r}, timeline_samples={n})"


__all__ = ["Telemetry"]
