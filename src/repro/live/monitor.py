""":class:`LiveMonitor` — the live consumers of one run, as one observer.

``run_mdf(..., observers=[LiveMonitor(...)])`` subscribes the monitor to
the cluster's trace for the duration of the run and leaves it on
``result.live``.  The monitor is one plain event callable: each
committed event goes to the
:class:`~repro.live.progress.ProgressEstimator`, then to the watchdogs —
which is also how ``python -m repro live`` feeds it from a file, without
a run.  The optional :class:`~repro.live.stream.StreamWriter` is begun
and ended with the monitor but subscribed on its own, ahead of it: the
file always reflects at least what the estimator has seen, and a
consumer that raises (the bus drops the monitor) does not truncate it.

Renderers live here too: :func:`progress_line` is the one-line summary
(quickstart, bench), :func:`render_dashboard` the multi-line terminal
view (``python -m repro live``).  Both are pure functions of a
:class:`~repro.live.progress.ProgressSnapshot` + alerts, shared by the
in-process and follow-mode paths.
"""

from __future__ import annotations

import io
import os
from typing import Dict, List, Optional, Union

from ..trace.events import Trace, TraceEvent
from .plan import LivePlan
from .progress import BRANCH_STATES, ProgressEstimator, ProgressSnapshot
from .stream import StreamWriter, catch_up
from .watchdogs import Alert, Watchdog, default_watchdogs


class LiveMonitor:
    """Stream, progress estimator and watchdogs for one run, as one unit."""

    def __init__(
        self,
        stream: Union[StreamWriter, str, "os.PathLike[str]", io.TextIOBase, None] = None,
        watchdogs: Optional[List[Watchdog]] = None,
        node_factor: Optional[float] = None,
    ):
        if stream is not None and not isinstance(stream, StreamWriter):
            stream = StreamWriter(stream)
        self.stream: Optional[StreamWriter] = stream
        self.plan: Optional[LivePlan] = None
        #: trace-only (no ETA) until ``begin`` has an MDF to plan from
        self.progress = ProgressEstimator()
        #: explicit watchdog list, or None to build the default set (which
        #: needs the plan, so it is deferred to ``begin``)
        self._watchdogs = watchdogs
        self._node_factor = node_factor
        self.watchdogs: List[Watchdog] = watchdogs or []
        self._trace: Optional[Trace] = None

    def __call__(self, event: TraceEvent) -> None:
        self.progress.on_event(event)
        for dog in self.watchdogs:
            dog.on_event(event)

    # ------------------------------------------------------------ lifecycle
    def begin(self, mdf, cluster, config) -> None:
        if self._trace is not None:
            raise RuntimeError("LiveMonitor is already observing a run")
        self.plan = LivePlan.from_mdf(
            mdf,
            cluster.num_workers,
            cost_model=cluster.cost_model,
            task_overhead=config.task_overhead,
            partitions_per_worker=config.partitions_per_worker,
        )
        self.progress = ProgressEstimator(plan=self.plan)
        if self._watchdogs is None:
            self.watchdogs = default_watchdogs(
                plan=self.plan,
                registry=cluster.obs,
                node_factor=self._node_factor,
            )
        else:
            for dog in self.watchdogs:
                if dog.registry is None:
                    dog.registry = cluster.obs
        if self.stream is not None:
            self.stream.begin(mdf, cluster, config)
        self._trace = cluster.trace
        catch_up(self._trace, self)

    def end(self, result) -> None:
        trace, self._trace = self._trace, None
        trace.unsubscribe(self)
        self.progress.mark_finished()
        if self.stream is not None:
            self.stream.end(result)
        if result is not None:
            result.live = self

    # -------------------------------------------------------------- results
    @property
    def alerts(self) -> List[Alert]:
        """All alerts raised so far, in (simulated time, kind) order."""
        out: List[Alert] = []
        for dog in self.watchdogs:
            out.extend(dog.alerts)
        out.sort(key=lambda a: (a.t, a.kind, a.subject))
        return out

    def alert_kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.kind] = counts.get(alert.kind, 0) + 1
        return counts

    def snapshot(self) -> ProgressSnapshot:
        snap = self.progress.snapshot()
        snap.alerts = len(self.alerts)
        return snap

    def progress_line(self) -> str:
        return progress_line(self.snapshot())

    def dashboard(self) -> str:
        return render_dashboard(self.snapshot(), self.alerts)


# ----------------------------------------------------------------- renderers


def _bar(fraction: Optional[float]) -> str:
    if fraction is None:
        return "·" * 20
    filled = int(round(fraction * 20))
    return "#" * filled + "." * (20 - filled)


def _fmt_eta(snap: ProgressSnapshot) -> str:
    if snap.eta is None:
        return "eta n/a"
    if snap.remaining_seconds == 0.0:
        return f"done @ {snap.now:.3f}s"
    return f"eta {snap.eta:.3f}s (+{snap.remaining_seconds:.3f}s)"


def progress_line(snap: ProgressSnapshot) -> str:
    """One-line live summary, e.g.
    ``[########............] 8/14 stages · t=0.412s · eta 0.733s (+0.321s) · branches: 2 running 1 kept 1 pruned · 0 alerts``
    """
    if snap.stages_total is not None:
        runnable = snap.stages_total - snap.stages_pruned
        stages = f"{snap.stages_completed}/{runnable} stages"
        if snap.stages_pruned:
            stages += f" ({snap.stages_pruned} pruned)"
    else:
        stages = f"{snap.stages_completed} stages"
    counts = snap.branch_counts()
    branch_bits = " ".join(
        f"{counts[state]} {state}" for state in BRANCH_STATES if counts.get(state)
    )
    parts = [
        f"[{_bar(snap.fraction)}]",
        stages,
        f"t={snap.now:.3f}s",
        _fmt_eta(snap),
    ]
    if branch_bits:
        parts.append(f"branches: {branch_bits}")
    parts.append(f"{snap.alerts} alert{'s' if snap.alerts != 1 else ''}")
    return " · ".join(parts)


_STATE_MARK = {
    "pending": " ",
    "running": ">",
    "kept": "+",
    "discarded": "-",
    "pruned": "x",
}


def render_dashboard(snap: ProgressSnapshot, alerts: List[Alert]) -> str:
    """The multi-line terminal view, 72 columns wide: header, branch tree,
    alerts."""
    lines = ["repro.live " + "─" * 61]
    lines.append(progress_line(snap))
    if snap.critical_path_seconds is not None and snap.remaining_seconds:
        lines.append(
            f"  critical path ≥ {snap.critical_path_seconds:.3f}s of the "
            f"+{snap.remaining_seconds:.3f}s remaining "
            f"(calibration ×{snap.calibration:.2f})"
        )
    # branch tree, grouped by explore scope (branch ids are "explore#i")
    scopes: Dict[str, List[str]] = {}
    for branch_id in snap.branch_status:
        scope = branch_id.split("#", 1)[0]
        scopes.setdefault(scope, []).append(branch_id)
    for scope in sorted(scopes):
        lines.append(f"  {scope}")
        members = sorted(
            scopes[scope],
            key=lambda b: int(b.split("#", 1)[1]) if "#" in b else 0,
        )
        for i, branch_id in enumerate(members):
            state = snap.branch_status[branch_id]
            joint = "└─" if i == len(members) - 1 else "├─"
            lines.append(
                f"  {joint}[{_STATE_MARK.get(state, '?')}] {branch_id}  {state}"
            )
    if alerts:
        lines.append(f"  alerts ({len(alerts)}):")
        for alert in alerts:
            lines.append(f"    ! {alert}")
    return "\n".join(lines)
