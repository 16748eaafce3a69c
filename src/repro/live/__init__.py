"""``repro.live`` — streaming observability for in-flight jobs.

Everything before this package observed a run *after* it finished
(trace export, metrics registry, profiler).  The live layer subscribes
to the trace bus (:meth:`repro.trace.events.Trace.subscribe`) and folds
each committed event as it is emitted:

* :class:`StreamWriter` — NDJSON sink, byte-identical to the post-hoc
  JSONL export at every prefix;
* :class:`ProgressEstimator` — stages completed/total, per-branch
  status, elapsed simulated seconds and a cost-model ETA that converges
  exactly to the completion time;
* watchdogs (:class:`StragglerWatchdog`, :class:`MemoryPressureWatchdog`,
  :class:`RetryStormWatchdog`, :class:`StallWatchdog`) raising
  structured :class:`Alert` records;
* :class:`LiveMonitor` — all of the above as one run observer
  (``run_mdf(..., observers=[LiveMonitor()])``);
* ``python -m repro.live <trace.ndjson>`` — the follow-mode dashboard.

See ``docs/live_monitoring.md`` for the bus contract, the estimator
math and a CLI walkthrough.
"""

from .monitor import LiveMonitor, progress_line, render_dashboard
from .plan import LivePlan
from .progress import BRANCH_STATES, ProgressEstimator, ProgressSnapshot
from .stream import StreamWriter, follow_events, read_events
from .watchdogs import (
    ALERT_KINDS,
    Alert,
    MemoryPressureWatchdog,
    RetryStormWatchdog,
    StallWatchdog,
    StragglerWatchdog,
    Watchdog,
    default_watchdogs,
)
from .hook import LiveHook

__all__ = [
    "ALERT_KINDS",
    "Alert",
    "BRANCH_STATES",
    "LiveHook",
    "LiveMonitor",
    "LivePlan",
    "MemoryPressureWatchdog",
    "ProgressEstimator",
    "ProgressSnapshot",
    "RetryStormWatchdog",
    "StallWatchdog",
    "StragglerWatchdog",
    "StreamWriter",
    "Watchdog",
    "default_watchdogs",
    "follow_events",
    "progress_line",
    "read_events",
    "render_dashboard",
]
