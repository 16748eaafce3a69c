"""Command-line entry: ``python -m repro.bench [--validate] [--telemetry]
[--profile] [--live] [figure ...]``.

Regenerates the requested tables/figures (all of them by default),
printing the paper-style rows and the shape-check verdicts.  With
``--validate``, every ``run_mdf`` call performed while building the
figures additionally runs the paper-invariant trace validators
(:mod:`repro.trace.validate`) and aborts on the first violation.  With
``--telemetry``, prints the observability demo report (Fig 17-style
timelines, per-branch/node attribution, Prometheus and JSON expositions)
— on its own it replaces the figure run.  With
``--profile``, every figure run is profiled (:mod:`repro.prof`): a
per-figure makespan-attribution table is printed after each figure and a
speedscope flamegraph of each figure's longest run is written to
``PROFILE_<figure>.speedscope.json``.  With ``--live``, every figure run
streams its trace through :mod:`repro.live` (progress/ETA estimator +
watchdogs): the stream/batch byte-identity verdict, final progress line
and alert summary are printed per figure and the longest run's NDJSON is
written to ``LIVE_<figure>.ndjson``; a byte-identity mismatch fails the
bench.  Everything here is on the simulated clock; wall-clock numbers
come from ``python benchmarks/wall/run.py``.
"""

from __future__ import annotations

import argparse
import sys

from ..engine.runner import observing
from ..live import LiveHook
from ..prof import ProfileCollector
from ..trace.validate import Validator
from .figures import ALL_FIGURES


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        usage="python -m repro.bench [--validate] [--telemetry] [--profile] "
        "[--live] [figure ...]",
        description="regenerate the paper's tables/figures on the simulated clock",
        allow_abbrev=False,
    )
    parser.add_argument("figures", nargs="*", metavar="figure",
                        help=f"figures to run (default: all of {', '.join(ALL_FIGURES)})")
    parser.add_argument("--validate", action="store_true",
                        help="check every run against the paper-invariant validators")
    parser.add_argument("--telemetry", action="store_true",
                        help="print the observability demo report (alone: replaces "
                        "the figure run)")
    parser.add_argument("--profile", action="store_true",
                        help="per-figure attribution tables + speedscope artifacts")
    parser.add_argument("--live", action="store_true",
                        help="stream every run through repro.live; NDJSON artifacts")
    return parser


def main(argv) -> int:
    args = make_parser().parse_intermixed_args(list(argv))
    validate, profile, live = args.validate, args.profile, args.live
    if args.telemetry:
        from .telemetry import telemetry_report

        print(telemetry_report())
        if not args.figures:
            return 0
    names = args.figures or list(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {unknown}")
        print(f"available: {', '.join(ALL_FIGURES)}")
        return 2
    if validate:
        print("trace validation: on (every run checked against the paper invariants)")
    if profile:
        print(
            "profiling: on (per-figure attribution tables + "
            "PROFILE_<figure>.speedscope.json artifacts)"
        )
    if live:
        print(
            "live monitoring: on (every run streams its trace through "
            "repro.live; LIVE_<figure>.ndjson artifacts)"
        )
    failed = []
    for name in names:
        # figures call run_mdf internally, so they are observed from out
        # here; the validator goes first so that it ends (raises) last
        collector = ProfileCollector() if profile else None
        hook = LiveHook() if live else None
        chosen = (Validator() if validate else None, collector, hook)
        with observing(*(o for o in chosen if o is not None)):
            result = ALL_FIGURES[name]()
        print(result.render())
        if collector is not None:
            _report_profile(name, collector)
        if hook is not None and not _report_live(name, hook):
            failed.append(f"{name} (live)")
        if not result.all_checks_pass:
            failed.append(name)
    if failed:
        print(f"shape-check failures: {failed}")
        return 1
    return 0


def _report_live(figure: str, hook) -> bool:
    """One figure's live verdicts: byte-identity, final progress, alerts.

    Returns False (a failure) when any run's streamed NDJSON differed
    from its post-hoc export — the live layer's core contract.  Alerts
    are reported but not failed here (fault-injection figures alert by
    design); CI's live-smoke job asserts "alerts: none" on a clean
    figure via the printed line.  The longest run's stream is written to
    ``LIVE_<figure>.ndjson`` as the artifact.
    """
    if not hook.runs:
        print(f"[live] {figure}: no monitored runs")
        return True
    identical = hook.all_byte_identical
    print(
        f"[live] {figure}: {len(hook.runs)} run(s), "
        f"stream/batch byte-identical: {'yes' if identical else 'NO'}"
    )
    print(f"[live] {figure}: final {hook.runs[-1].monitor.progress_line()}")
    counts = hook.alert_kinds()
    if counts:
        rendered = ", ".join(f"{k}x{n}" for k, n in sorted(counts.items()))
        print(f"[live] {figure}: alerts: {rendered}")
    else:
        print(f"[live] {figure}: alerts: none")
    longest = max(hook.runs, key=lambda r: len(r.streamed))
    path = f"LIVE_{figure}.ndjson"
    with open(path, "w") as fh:
        fh.write(longest.streamed)
    print(f"[live] wrote {path}")
    return identical


def _report_profile(figure: str, collector) -> None:
    """Aggregate one figure's profiles: attribution table + flamegraph.

    The attribution table sums the exclusive categories over every run the
    figure performed; the speedscope artifact captures the single longest
    run (the one whose critical path dominates the figure's wall time).
    """
    from ..prof import CATEGORIES, attribution, save_speedscope

    profiles = [p for p in collector.profiles if p.has_spans]
    if not profiles:
        print(f"[profile] {figure}: no profiled runs")
        return
    totals = {category: 0.0 for category in CATEGORIES}
    for prof in profiles:
        for category, seconds in attribution(prof).items():
            totals[category] += seconds
    makespan = sum(p.makespan for p in profiles)
    print(
        f"[profile] {figure}: {len(profiles)} run(s), "
        f"{makespan:.3f} simulated seconds total"
    )
    for category, seconds in totals.items():
        if seconds > 0.0:
            share = 100.0 * seconds / makespan if makespan else 0.0
            print(f"[profile]   {category:<9} {seconds:12.6f} s  ({share:5.1f}%)")
    longest = max(profiles, key=lambda p: p.makespan)
    path = f"PROFILE_{figure}.speedscope.json"
    save_speedscope(longest, path, name=f"{figure} (longest run)")
    print(f"[profile] wrote {path}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
