"""Simulated-clock timeline sampler (the Fig 17 memory-over-time series).

The paper's Fig 17 plots cluster memory in use over *job time* under LRU
vs AMM.  The simulator has no wall clock — time advances in discrete jumps
through :class:`~repro.cluster.clock.SimClock` — so the sampler subscribes
to clock advances and records one sample per crossed sampling interval.
Each sample is the cluster state *after* the advance that crossed the
boundary (execution state is piecewise-constant between advances, so this
is the exact value at every instant inside the jump).

Samples capture memory-in-use (total and per node), the cumulative memory
hit ratio, the live-branch count (a gauge the master maintains) and the
live-dataset/eviction counts — everything needed to reproduce the shape of
Fig 17 and the §6.2 hit-ratio series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from .telemetry import Telemetry


@dataclass
class TimelineSample:
    """Cluster state at one simulated instant."""

    t: float
    memory_in_use: int
    memory_capacity: int
    hit_ratio: float
    live_branches: int
    live_datasets: int
    evictions: int
    per_node_memory: Dict[str, int] = field(default_factory=dict)
    #: cumulative busy seconds per worker (io + compute walls charged to
    #: the node so far, from ``cluster.busy_seconds``)
    per_node_busy: Dict[str, float] = field(default_factory=dict)
    #: mean worker utilisation over the interval since the previous
    #: sample: Δbusy / (Δt · workers), clamped to [0, 1] (the Fig 17
    #: busy/idle overlay)
    utilisation: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "t": self.t,
            "memory_in_use": self.memory_in_use,
            "memory_capacity": self.memory_capacity,
            "hit_ratio": self.hit_ratio,
            "live_branches": self.live_branches,
            "live_datasets": self.live_datasets,
            "evictions": self.evictions,
            "per_node_memory": dict(self.per_node_memory),
            "per_node_busy": dict(self.per_node_busy),
            "utilisation": self.utilisation,
        }


class TimelineSampler:
    """Samples cluster state at a fixed simulated-time interval.

    A run observer: ``run_mdf(..., observers=[TimelineSampler()])`` hangs
    a :class:`~repro.obs.telemetry.Telemetry` bundle (labeled registry,
    this timeline, exporters) on ``result.telemetry``; ``samples`` holds
    the series.  ``interval`` is in simulated seconds.  When a run
    produces more than ``max_samples`` samples the sampler thins itself
    (drops every other sample and doubles the interval), so unexpectedly
    long jobs degrade resolution instead of memory.  The sampler reads
    the cluster's nodes, metrics view and the ``live_branches`` gauge
    from the cluster's registry — it never touches the clock itself, so
    observing cannot perturb execution.
    """

    def __init__(self, interval: float = 0.25, max_samples: int = 4096):
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        if max_samples < 2:
            raise ValueError("max_samples must be at least 2")
        self._requested_interval = float(interval)
        self.interval = self._requested_interval
        self.max_samples = int(max_samples)
        self.cluster = None
        self.samples: List[TimelineSample] = []
        self._next_t = 0.0

    # ------------------------------------------------------------- lifecycle
    def begin(self, mdf, cluster, config) -> None:
        self.cluster = cluster
        self.interval = self._requested_interval
        # the t=0 baseline (empty cluster / warm-cache starting point)
        self.samples = []
        self._record(cluster.clock.now)
        self._next_t = cluster.clock.now + self.interval
        cluster.clock.subscribe(self._on_advance)

    def end(self, result) -> None:
        cluster = self.cluster
        cluster.clock.unsubscribe(self._on_advance)
        # close the series with the job-end state
        now = cluster.clock.now
        if self.samples[-1].t < now:
            self._record(now)
        if result is not None:
            result.telemetry = Telemetry(cluster.obs, self, metrics=cluster.metrics)

    # -------------------------------------------------------------- sampling
    def _on_advance(self, now: float) -> None:
        while self._next_t <= now:
            self._record(self._next_t)
            self._next_t += self.interval
        if len(self.samples) > self.max_samples:
            self._thin()

    def _thin(self) -> None:
        """Halve resolution: drop every other sample, double the interval."""
        self.samples = self.samples[::2]
        self.interval *= 2.0
        last = self.samples[-1].t if self.samples else 0.0
        self._next_t = max(self._next_t, last + self.interval)
        # per-node busy is cumulative, so the interval utilisation of the
        # surviving samples can be recomputed exactly over the new spacing
        for i, sample in enumerate(self.samples):
            prev = self.samples[i - 1] if i else None
            sample.utilisation = self._utilisation(
                prev, sample.t, sample.per_node_busy
            )

    @staticmethod
    def _utilisation(prev, t: float, busy: Dict[str, float]) -> float:
        if prev is None or t <= prev.t or not busy:
            return 0.0
        delta = sum(busy.values()) - sum(
            prev.per_node_busy.get(node, 0.0) for node in busy
        )
        return min(1.0, max(0.0, delta / ((t - prev.t) * len(busy))))

    def _record(self, t: float) -> None:
        cluster = self.cluster
        metrics = cluster.metrics
        per_node = {node.id: node.mem_used for node in cluster.nodes}
        busy = {
            node.id: cluster.busy_seconds.get(node.id, 0.0)
            for node in cluster.nodes
        }
        prev = self.samples[-1] if self.samples else None
        self.samples.append(
            TimelineSample(
                t=t,
                memory_in_use=sum(per_node.values()),
                memory_capacity=sum(node.mem_capacity for node in cluster.nodes),
                hit_ratio=metrics.memory_hit_ratio,
                live_branches=int(cluster.obs.max_value("live_branches")),
                live_datasets=cluster.live_dataset_count(),
                evictions=metrics.evictions,
                per_node_memory=per_node,
                per_node_busy=busy,
                utilisation=self._utilisation(prev, t, busy),
            )
        )

    # --------------------------------------------------------------- exports
    def as_dicts(self) -> List[Dict[str, Any]]:
        return [sample.as_dict() for sample in self.samples]

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TimelineSampler(interval={self.interval}, samples={len(self.samples)})"
