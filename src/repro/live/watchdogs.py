"""Live watchdogs: trace subscribers that raise structured alerts.

Each watchdog folds the committed event stream into a small anomaly
detector and raises :class:`Alert` records when a run misbehaves:

* :class:`StragglerWatchdog` — a stage's observed wall exceeded ``k×``
  its cost-model (pessimistic) estimate, or one node's io+compute wall
  dwarfed the other nodes' on the same stage (the §6 straggler shape);
* :class:`MemoryPressureWatchdog` — spill-eviction rate over a sliding
  simulated-time window crossed a threshold (the AMM thrashing shape);
* :class:`RetryStormWatchdog` — a node accumulated too many task
  retries, or exhausted its retry budget outright;
* :class:`StallWatchdog` — the *wall* clock advanced past a threshold
  with no new event while the job was unfinished (a hung producer; only
  meaningful when tailing a live file, so it exposes ``poll()`` for the
  CLI loop rather than reacting to events alone).

Alerts are appended to the watchdog's ``alerts`` list and — when a
metrics registry is wired (``LiveMonitor.begin`` wires the cluster's) —
counted under ``live_alerts`` with the alert kind as the ``policy``
label, so post-run tooling and the trace→metrics bridge diff can see
exactly what fired.  Watchdogs are observers: they never mutate engine
state, and a clean run must raise nothing (asserted in CI's live-smoke
job and ``tests/live/test_watchdogs.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from ..trace.events import TraceEvent
from .plan import LivePlan

#: the alert kinds the live layer and the service plane can raise
ALERT_KINDS = (
    "straggler", "memory_pressure", "retry_storm", "stall",
    "fairness", "slo",
)


@dataclass(frozen=True)
class Alert:
    """One structured anomaly record raised by a watchdog."""

    kind: str  # one of ALERT_KINDS
    t: float  # simulated time when raised (wall time for stalls)
    subject: str  # the stage/node the alert is about
    message: str
    details: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.kind}] t={self.t:.3f} {self.subject}: {self.message}"


class Watchdog:
    """Base: alert storage + obs-registry accounting.

    ``counter_name`` is the registry family alerts are counted under —
    ``live_alerts`` for the per-job watchdogs here, ``service_alerts``
    for the service-plane auditors (:mod:`repro.service.obs`), which are
    called the same way with the service log's events.
    """

    kind = "base"
    counter_name = "live_alerts"

    def __init__(self, registry=None):
        self.registry = registry
        self.alerts: List[Alert] = []

    def __call__(self, event: TraceEvent) -> None:
        self.on_event(event)

    def on_event(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def _raise(
        self,
        t: float,
        subject: str,
        message: str,
        details: Optional[Dict[str, float]] = None,
        **labels: str,
    ) -> Alert:
        alert = Alert(self.kind, t, subject, message, details or {})
        self.alerts.append(alert)
        if self.registry is not None:
            self.registry.counter(
                self.counter_name, policy=self.kind, **labels
            ).inc()
        return alert


class StragglerWatchdog(Watchdog):
    """A stage ran far past its cost-model estimate (or one node did).

    Two detectors, both gated by ``min_seconds`` (micro-stages produce
    meaningless ratios):

    * **plan overrun** — observed wall > ``factor`` × the stage's
      *serialized* pessimistic estimate (per-stage pessimistic seconds ×
      worker count).  The per-stage estimate divides work evenly across
      workers, so worst-case data skew — every byte landing on one node
      — can stretch the wall to at most ~workers× the estimate while
      the modelled per-unit rates hold.  The serialized bound absorbs
      that whole skew range; exceeding even it by ``factor``× means the
      rates themselves degraded (an injected straggler, a hot node),
      not placement.  Needs a :class:`LivePlan`.
    * **node imbalance** — one node's ``io+compute`` wall exceeds
      ``node_factor`` × the *second-slowest* node's on the same stage.
      Data skew routinely concentrates work on one node, so this
      detector is off by default (``node_factor=None``); enable it when
      the workload is known to be balanced.
    """

    kind = "straggler"

    def __init__(
        self,
        plan: Optional[LivePlan] = None,
        registry=None,
        factor: float = 1.5,
        node_factor: Optional[float] = None,
        min_seconds: float = 0.005,
    ):
        super().__init__(registry)
        self.plan = plan
        self.factor = factor
        self.node_factor = node_factor
        self.min_seconds = min_seconds

    def on_event(self, event: TraceEvent) -> None:
        if event.kind != "stage_completed":
            return
        data = event.data
        stage_id = data["stage"]
        wall = float(data["finished"]) - float(data["started"])
        if wall < self.min_seconds:
            return
        if self.plan is not None:
            estimate = self.plan.stage_costs.get(stage_id)
            workers = max(1, self.plan.context.num_workers)
            if estimate:
                serialized = estimate * workers
                if wall > self.factor * serialized:
                    self._raise(
                        event.t,
                        stage_id,
                        f"wall {wall:.4f}s is {wall / serialized:.1f}x the "
                        f"skew-proof bound {serialized:.4f}s "
                        f"({workers}x the modelled {estimate:.4f}s; "
                        f"threshold {self.factor}x)",
                        {"wall": wall, "estimate": estimate,
                         "serialized": serialized},
                        stage=stage_id,
                    )
        if self.node_factor is not None:
            walls = {
                node: float(data["per_node_io"].get(node, 0.0))
                + float(data["per_node_compute"].get(node, 0.0))
                for node in set(data["per_node_io"]) | set(data["per_node_compute"])
            }
            busy = sorted(walls.items(), key=lambda kv: kv[1], reverse=True)
            if len(busy) >= 2 and busy[0][1] >= self.min_seconds:
                slowest, runner_up = busy[0], busy[1]
                if runner_up[1] > 0 and slowest[1] > self.node_factor * runner_up[1]:
                    self._raise(
                        event.t,
                        slowest[0],
                        f"node wall {slowest[1]:.4f}s on {stage_id} is "
                        f"{slowest[1] / runner_up[1]:.1f}x the next node's "
                        f"{runner_up[1]:.4f}s",
                        {"wall": slowest[1], "next": runner_up[1]},
                        stage=stage_id,
                        node=slowest[0],
                    )


class MemoryPressureWatchdog(Watchdog):
    """Spill-eviction rate over a sliding simulated-time window.

    Counts ``partition_evicted`` events with ``spilled=True`` (an
    in-memory eviction that keeps no disk copy frees memory without
    paying io — not pressure).  When ``threshold`` spills land within
    ``window`` simulated seconds, one alert fires and the watchdog backs
    off for ``cooldown`` simulated seconds so a sustained storm reads as
    a handful of alerts, not thousands.
    """

    kind = "memory_pressure"

    def __init__(
        self,
        registry=None,
        window: float = 0.5,
        threshold: int = 24,
        cooldown: float = 1.0,
    ):
        super().__init__(registry)
        self.window = window
        self.threshold = threshold
        self.cooldown = cooldown
        self._spill_times: Deque[float] = deque()
        self._muted_until = float("-inf")

    def on_event(self, event: TraceEvent) -> None:
        if event.kind != "partition_evicted" or not event.data.get("spilled"):
            return
        t = event.t
        self._spill_times.append(t)
        while self._spill_times and self._spill_times[0] < t - self.window:
            self._spill_times.popleft()
        if len(self._spill_times) >= self.threshold and t >= self._muted_until:
            self._muted_until = t + self.cooldown
            self._raise(
                t,
                event.data["node"],
                f"{len(self._spill_times)} spill evictions within "
                f"{self.window}s (threshold {self.threshold})",
                {"spills": float(len(self._spill_times)), "window": self.window},
                node=event.data["node"],
            )


class RetryStormWatchdog(Watchdog):
    """Task retries piling up on a node (§5 transient-failure storms).

    ``task_retried`` events carry the node and its cumulative attempt
    count; ``attempts`` reaching ``threshold`` raises once per node, and
    ``task_retries_exhausted`` (the run decommissioning a node after
    burning its whole retry budget) always raises.
    """

    kind = "retry_storm"

    def __init__(self, registry=None, threshold: int = 3):
        super().__init__(registry)
        self.threshold = threshold
        self._raised_for: Dict[str, bool] = {}

    def on_event(self, event: TraceEvent) -> None:
        if event.kind == "task_retried":
            node = event.data["node"]
            attempts = int(event.data["attempts"])
            if attempts >= self.threshold and not self._raised_for.get(node):
                self._raised_for[node] = True
                self._raise(
                    event.t,
                    node,
                    f"{attempts} task retries (threshold {self.threshold})",
                    {"attempts": float(attempts)},
                    node=node,
                )
        elif event.kind == "task_retries_exhausted":
            node = event.data["node"]
            self._raised_for[node] = True
            self._raise(
                event.t,
                node,
                f"retry budget exhausted after {event.data['attempts']} attempts",
                {"attempts": float(event.data["attempts"])},
                node=node,
            )


class StallWatchdog(Watchdog):
    """No new event for too long on the *wall* clock (hung producer).

    The simulated clock only moves when events are emitted, so a stall
    is invisible from inside the stream — it is the silence between
    events that matters.  The CLI's follow loop calls :meth:`poll`
    between file reads; ``clock`` is injectable (defaults to
    ``time.monotonic``) so tests can fake the passage of wall time.
    Fires at most once per silent period (a new event re-arms it).
    """

    kind = "stall"

    def __init__(
        self,
        registry=None,
        threshold_seconds: float = 10.0,
        clock: Optional[Callable[[], float]] = None,
    ):
        super().__init__(registry)
        import time

        self.threshold_seconds = threshold_seconds
        self.clock = clock or time.monotonic
        self._last_event_wall = self.clock()
        self._last_event_t = 0.0
        self._armed = True
        self._finished = False

    def on_event(self, event: TraceEvent) -> None:
        self._last_event_wall = self.clock()
        self._last_event_t = max(self._last_event_t, event.t)
        self._armed = True

    def mark_finished(self) -> None:
        """A finished stream can no longer stall."""
        self._finished = True

    def poll(self) -> Optional[Alert]:
        """Check for silence; call periodically from the follow loop."""
        if self._finished or not self._armed:
            return None
        silent = self.clock() - self._last_event_wall
        if silent >= self.threshold_seconds:
            self._armed = False  # one alert per silent period
            return self._raise(
                self._last_event_t,
                "stream",
                f"no event for {silent:.1f} wall seconds "
                f"(threshold {self.threshold_seconds}s)",
                {"silent_seconds": silent},
            )
        return None


def default_watchdogs(
    plan: Optional[LivePlan] = None,
    registry=None,
    node_factor: Optional[float] = None,
) -> List[Watchdog]:
    """The standard in-run watchdog set (stall excluded — it needs a
    wall-clock poll loop, which an in-process run does not have)."""
    return [
        StragglerWatchdog(plan=plan, registry=registry, node_factor=node_factor),
        MemoryPressureWatchdog(registry=registry),
        RetryStormWatchdog(registry=registry),
    ]
