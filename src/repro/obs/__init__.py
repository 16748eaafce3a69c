"""``repro.obs``: labeled metrics, timeline sampling, and exporters.

The observability layer on top of the PR-1 decision trace:

* :mod:`repro.obs.registry` — Counter/Gauge/Histogram instruments labeled
  with ``{node, branch, stage, dataset, policy}``;
* :mod:`repro.obs.timeline` — the simulated-clock sampler behind the
  Fig 17 memory-over-time series;
* :mod:`repro.obs.export` — deterministic Prometheus-text and JSON exports;
* :mod:`repro.obs.bridge` — the counters as a fold of the decision trace
  (where per-stage, per-branch attribution is written), live and on replay;
* :mod:`repro.obs.telemetry` — the bundle a ``TimelineSampler`` observer
  attaches to :class:`~repro.engine.job.JobResult`.
"""

from .bridge import CONSISTENCY_VIEWS, diff_registries, registry_from_trace
from .export import (
    lint_prometheus_text,
    prometheus_text,
    registry_json,
    registry_to_dict,
)
from .registry import (
    DEFAULT_BUCKETS,
    LABEL_NAMES,
    Counter,
    ExactHistogram,
    Gauge,
    Histogram,
    MetricsRegistry,
    labels_dict,
)
from .telemetry import Telemetry
from .timeline import TimelineSample, TimelineSampler

__all__ = [
    "CONSISTENCY_VIEWS",
    "Counter",
    "DEFAULT_BUCKETS",
    "ExactHistogram",
    "Gauge",
    "Histogram",
    "LABEL_NAMES",
    "MetricsRegistry",
    "Telemetry",
    "TimelineSample",
    "TimelineSampler",
    "diff_registries",
    "labels_dict",
    "lint_prometheus_text",
    "prometheus_text",
    "registry_from_trace",
    "registry_json",
    "registry_to_dict",
]
