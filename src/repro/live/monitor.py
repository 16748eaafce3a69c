""":class:`LiveMonitor` — one attachable bundle of live subscribers.

``run_mdf(live=...)`` builds (or accepts) a monitor and attaches it to
the cluster's trace for the duration of the run: the optional
:class:`~repro.live.stream.StreamWriter` streams the NDJSON file, the
:class:`~repro.live.progress.ProgressEstimator` folds progress/ETA, and
the watchdogs scan for anomalies.  Attachment order is fixed — stream
first (the file always reflects at least what the estimator has seen),
then estimator, then watchdogs — and everything is detached in the
runner's ``finally``, so a monitor never outlives its run.

Renderers live here too: :func:`progress_line` is the one-line summary
(quickstart, bench), :func:`render_dashboard` the multi-line terminal
view (``python -m repro.live``).  Both are pure functions of a
:class:`~repro.live.progress.ProgressSnapshot` + alerts, shared by the
in-process and follow-mode paths.
"""

from __future__ import annotations

import io
import os
from typing import Dict, List, Optional, Union

from ..trace.events import Trace
from .plan import LivePlan
from .progress import BRANCH_STATES, ProgressEstimator, ProgressSnapshot
from .stream import StreamWriter
from .watchdogs import Alert, Watchdog, default_watchdogs


class LiveMonitor:
    """Streaming trace consumers for one run, attached as one unit."""

    def __init__(
        self,
        stream: Union[StreamWriter, str, "os.PathLike[str]", io.TextIOBase, None] = None,
        watchdogs: Optional[List[Watchdog]] = None,
        node_factor: Optional[float] = None,
    ):
        if stream is not None and not isinstance(stream, StreamWriter):
            stream = StreamWriter(stream)
        self.stream: Optional[StreamWriter] = stream
        self.progress: Optional[ProgressEstimator] = None
        self.plan: Optional[LivePlan] = None
        #: explicit watchdog list, or None to build the default set (which
        #: needs the plan, so it is deferred to ``attach``)
        self._watchdogs = watchdogs
        self._node_factor = node_factor
        self.watchdogs: List[Watchdog] = watchdogs or []
        self._trace: Optional[Trace] = None

    # ------------------------------------------------------------ lifecycle
    def attach(
        self,
        trace: Trace,
        plan: Optional[LivePlan] = None,
        registry=None,
    ) -> "LiveMonitor":
        """Subscribe all consumers to ``trace`` (stream → progress → dogs)."""
        if self._trace is not None:
            raise RuntimeError("LiveMonitor is already attached")
        self.plan = plan
        self.progress = ProgressEstimator(plan=plan)
        if self._watchdogs is None:
            self.watchdogs = default_watchdogs(
                plan=plan,
                registry=registry,
                node_factor=self._node_factor,
            )
        else:
            for dog in self.watchdogs:
                if dog.registry is None:
                    dog.registry = registry
        self._trace = trace
        subscribers = []
        if self.stream is not None:
            subscribers.append(self.stream)
        subscribers.append(self.progress)
        subscribers.extend(self.watchdogs)
        # Catch-up replay: a warm-continuation run (``reset=False``) joins
        # a trace that already holds committed events.  Delivering them
        # first keeps the bus contract — every subscriber sees exactly the
        # committed event sequence — so the streamed file stays
        # byte-identical to the full post-hoc export.
        for event in list(trace.events):
            for subscriber in subscribers:
                subscriber(event)
        for subscriber in subscribers:
            trace.subscribe(subscriber)
        return self

    def detach(self) -> None:
        """Unsubscribe everything and flush the stream (idempotent)."""
        trace = self._trace
        if trace is None:
            return
        self._trace = None
        if self.stream is not None:
            trace.unsubscribe(self.stream)
        if self.progress is not None:
            trace.unsubscribe(self.progress)
        for dog in self.watchdogs:
            trace.unsubscribe(dog)
        if self.progress is not None:
            self.progress.mark_finished()
        if self.stream is not None:
            self.stream.close()

    @property
    def attached(self) -> bool:
        return self._trace is not None

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
        if self.progress is None:
            raise RuntimeError("LiveMonitor was never attached")
        snap = self.progress.snapshot()
        snap.alerts = len(self.alerts)
        return snap

    def progress_line(self) -> str:
        return progress_line(self.snapshot())

    def dashboard(self, width: int = 72) -> str:
        return render_dashboard(self.snapshot(), self.alerts, width=width)


# ----------------------------------------------------------------- renderers


def _bar(fraction: Optional[float], width: int = 20) -> str:
    if fraction is None:
        return "·" * width
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


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


def render_dashboard(
    snap: ProgressSnapshot,
    alerts: List[Alert],
    width: int = 72,
    remaining_by_branch: Optional[Dict[str, float]] = None,
) -> str:
    """The multi-line terminal view: header, branch tree, alerts."""
    lines = ["repro.live " + "─" * max(0, width - 11)]
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
            extra = ""
            if remaining_by_branch and branch_id in remaining_by_branch:
                extra = f"  (+{remaining_by_branch[branch_id]:.3f}s pending)"
            lines.append(
                f"  {joint}[{_STATE_MARK.get(state, '?')}] {branch_id}"
                f"  {state}{extra}"
            )
    if alerts:
        lines.append(f"  alerts ({len(alerts)}):")
        for alert in alerts:
            lines.append(f"    ! {alert}")
    return "\n".join(lines)
