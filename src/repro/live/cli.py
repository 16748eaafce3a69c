"""``python -m repro live <trace.ndjson> [--follow]``, and the redraw loop
every following command shares.

Renders a terminal progress dashboard from a streamed NDJSON trace file
(the :class:`~repro.live.stream.StreamWriter` format — which is also
exactly the batch ``Trace.save_jsonl`` format, so post-hoc traces work
too).  Without ``--follow`` the file is read to EOF and the final
dashboard printed once; with ``--follow`` the file is tailed and the
dashboard redrawn as events land, until ``--idle-timeout`` wall seconds
pass without a new event.

The CLI is trace-only: it has the event stream but not the MDF, so the
ETA column (which needs the cost-model plan) reads ``n/a`` while
progress counts, per-branch status and the plan-free watchdogs
(memory-pressure, retry-storm, stall) stay fully live.  In-process runs
(``observers=[LiveMonitor()]``) have the plan and show the full estimate.
"""

from __future__ import annotations

import time
from typing import Callable, TextIO

from ..trace.events import read_events
from .monitor import LiveMonitor
from .watchdogs import MemoryPressureWatchdog, RetryStormWatchdog, StallWatchdog


def follow(
    poll: Callable[[], bool],
    frame: Callable[[], str],
    out: TextIO,
    interval: float,
    idle_timeout: float,
) -> None:
    """Redraw ``frame()`` after each ``poll()`` that saw something new.

    ``poll`` runs every ``interval`` wall seconds, so a frame is drawn at
    most that often; the loop ends once ``idle_timeout`` seconds pass
    with nothing new.  On a terminal each frame replaces the last (clear
    the screen, home the cursor); anywhere else a rule line separates
    them.
    """
    between = "\x1b[2J\x1b[H" if out.isatty() else "-" * 64 + "\n"
    drawn = False
    last_news = time.monotonic()
    try:
        while True:
            if poll():
                out.write((between if drawn else "") + frame())
                out.flush()
                drawn, last_news = True, time.monotonic()
            elif time.monotonic() - last_news >= idle_timeout:
                return
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass


def cmd_live(args, out: TextIO) -> int:
    stall = StallWatchdog()
    # never begun on a run: no plan, so ETA n/a and no straggler watchdog
    monitor = LiveMonitor(
        watchdogs=[MemoryPressureWatchdog(), RetryStormWatchdog(), stall]
    )
    try:
        fh = open(args.trace)
    except FileNotFoundError:
        out.write(f"no such trace file: {args.trace}\n")
        return 2
    tail = ""

    def poll() -> bool:
        """Fold the complete lines appended since the last poll; a torn
        last line waits for its newline."""
        nonlocal tail
        complete, _, tail = (tail + fh.read()).rpartition("\n")
        events = list(read_events(complete))
        for event in events:
            monitor(event)
        stall.poll()
        return bool(events)

    with fh:
        if args.follow:
            follow(poll, lambda: monitor.dashboard() + "\n", out, args.interval,
                   args.idle_timeout)
        else:
            poll()
    monitor.progress.mark_finished()
    stall.mark_finished()
    out.write(monitor.dashboard() + "\n")
    raised = monitor.alerts
    if raised:
        out.write(f"{len(raised)} alert(s) raised\n")
    return 1 if (args.fail_on_alert and raised) else 0
