"""Command-line entry: ``python -m repro.live <trace.ndjson> [--follow]``.

Renders a terminal progress dashboard from a streamed NDJSON trace file
(the :class:`~repro.live.stream.StreamWriter` format — which is also
exactly the batch ``Trace.save_jsonl`` format, so post-hoc traces work
too).  Without ``--follow`` the file is read to EOF and the final
dashboard printed once; with ``--follow`` the file is tailed and the
dashboard redrawn as events land, until ``--idle-timeout`` wall seconds
pass without growth.

The CLI is trace-only: it has the event stream but not the MDF, so the
ETA column (which needs the cost-model plan) reads ``n/a`` while
progress counts, per-branch status and the plan-free watchdogs
(memory-pressure, retry-storm, stall) stay fully live.  In-process runs
(``observers=[LiveMonitor()]``) have the plan and show the full estimate.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, TextIO

from .monitor import LiveMonitor
from .stream import follow_events
from .watchdogs import MemoryPressureWatchdog, RetryStormWatchdog, StallWatchdog


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live",
        usage="python -m repro.live <trace.ndjson> [options]",
        description="terminal progress dashboard over a streamed NDJSON trace",
        allow_abbrev=False,
    )
    parser.add_argument("trace", metavar="<trace.ndjson>", help="the trace file")
    parser.add_argument("--follow", "-f", action="store_true",
                        help="tail the file, redrawing as events arrive")
    parser.add_argument("--interval", type=float, default=0.2, metavar="SECONDS",
                        help="poll interval while following (default 0.2)")
    parser.add_argument("--idle-timeout", type=float, default=5.0, metavar="SECS",
                        help="stop following after this much silence (default 5.0)")
    parser.add_argument("--stall-seconds", type=float, default=10.0, metavar="SECS",
                        help="stall-watchdog threshold while following (default 10.0)")
    parser.add_argument("--refresh", type=int, default=25, metavar="N",
                        help="redraw every N events while following (default 25)")
    parser.add_argument("--plain", action="store_true",
                        help="append progress lines instead of redrawing")
    parser.add_argument("--fail-on-alert", action="store_true",
                        help="exit 1 if any alert was raised")
    return parser


def main(argv: Optional[List[str]] = None, out: TextIO = sys.stdout) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    if "--help" in argv or "-h" in argv or not argv:
        parser.print_help(out)
        return 0 if argv else 2
    # a malformed value exits 2 here, with one usage line on stderr
    args = parser.parse_args(argv)
    path = args.trace

    stall = StallWatchdog(threshold_seconds=args.stall_seconds)
    # never begun on a run: no plan, so ETA n/a and no straggler watchdog
    monitor = LiveMonitor(
        watchdogs=[MemoryPressureWatchdog(), RetryStormWatchdog(), stall]
    )

    def draw(final: bool = False) -> None:
        if final:
            out.write(monitor.dashboard() + "\n")
        elif args.plain:
            out.write(monitor.progress_line() + "\n")
        else:
            # redraw in place: clear screen, home cursor
            out.write("\x1b[2J\x1b[H" + monitor.dashboard() + "\n")
        out.flush()

    try:
        events = follow_events(
            path,
            follow=args.follow,
            poll_interval=args.interval,
            idle_timeout=args.idle_timeout,
        )
        since_draw = 0
        for event in events:
            monitor(event)
            stall.poll()
            since_draw += 1
            if args.follow and since_draw >= args.refresh:
                draw()
                since_draw = 0
    except FileNotFoundError:
        out.write(f"no such trace file: {path}\n")
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    monitor.progress.mark_finished()
    stall.mark_finished()
    draw(final=True)
    raised = monitor.alerts
    if raised:
        out.write(f"{len(raised)} alert(s) raised\n")
    return 1 if (args.fail_on_alert and raised) else 0


if __name__ == "__main__":
    sys.exit(main())
