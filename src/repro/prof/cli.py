"""``python -m repro prof TRACE`` profiles a recorded trace; ``python -m
repro gate BASELINES`` runs the CI perf-regression gate.  See
``docs/profiling.md`` for both."""

from __future__ import annotations

from typing import TextIO

from ..trace.events import Trace
from . import (
    build_profile,
    critical_path,
    render_attribution,
    render_branches,
    render_critical_path,
    render_per_node,
    render_whatif,
    reprice,
    save_chrome_spans,
    save_speedscope,
)


def cmd_gate(args, out: TextIO) -> int:
    from .gate import run_gate  # engine import: keep lazy

    report = run_gate(args.baselines, update=args.update, slowdown=args.inject_slowdown)
    if report.updated:
        print(f"baselines written to {args.baselines}", file=out)
        return 0
    print(report.render(), file=out)
    return 0 if report.ok else 1


def cmd_prof(args, out: TextIO) -> int:
    trace = Trace.load_jsonl(args.trace)
    profile = build_profile(trace)
    print(render_attribution(profile), file=out)
    if args.per_node:
        print(file=out)
        print(render_per_node(profile), file=out)
    if args.by_branch:
        print(file=out)
        print(render_branches(profile), file=out)
    if args.critical_path:
        print(file=out)
        print(render_critical_path(critical_path(profile), profile.makespan), file=out)
    if args.what_if:
        print(file=out)
        print(render_whatif(reprice(profile, args.what_if)), file=out)
    if args.speedscope:
        save_speedscope(profile, args.speedscope, name=args.trace)
        print(f"speedscope profile written to {args.speedscope}", file=out)
    if args.chrome:
        save_chrome_spans(profile, args.chrome)
        print(f"chrome trace written to {args.chrome}", file=out)
    return 0
