"""``python -m repro bench``: regenerate the paper's tables and figures.

Prints the paper-style rows and the shape-check verdicts of the named
figures (all of them by default), on the simulated clock; wall-clock
numbers come from ``python benchmarks/wall/run.py``.  ``--validate``,
``--profile`` and ``--live`` observe every ``run_mdf`` call a figure
makes (:mod:`repro.trace.validate`, :mod:`repro.prof`,
:mod:`repro.live`): the validators abort on the first violation, a
profile leaves ``PROFILE_<figure>.speedscope.json`` of the longest run,
and the live monitor leaves ``LIVE_<figure>.ndjson`` and fails the bench
when a stream differs from its batch export.  ``--telemetry`` prints
the observability demo report (alone, instead of the figures).
"""

from __future__ import annotations

from typing import TextIO

from ..engine.runner import observing
from ..live import LiveHook
from ..prof import CATEGORIES, ProfileCollector, attribution, save_speedscope
from ..trace.validate import Validator
from .figures import ALL_FIGURES


def cmd_bench(args, out: TextIO) -> int:
    if args.telemetry:
        from .telemetry import telemetry_report

        print(telemetry_report(), file=out)
        if not args.figures:
            return 0
    names = args.figures or list(ALL_FIGURES)
    if args.validate:
        print("trace validation: on (every run checked against the paper invariants)",
              file=out)
    if args.profile:
        print(
            "profiling: on (per-figure attribution tables + "
            "PROFILE_<figure>.speedscope.json artifacts)",
            file=out,
        )
    if args.live:
        print(
            "live monitoring: on (every run streams its trace through "
            "repro.live; LIVE_<figure>.ndjson artifacts)",
            file=out,
        )
    failed = []
    for name in names:
        # figures call run_mdf internally, so they are observed from out
        # here; the validator goes first so that it ends (raises) last
        collector = ProfileCollector() if args.profile else None
        hook = LiveHook() if args.live else None
        chosen = (Validator() if args.validate else None, collector, hook)
        with observing(*(o for o in chosen if o is not None)):
            result = ALL_FIGURES[name]()
        print(result.render(), file=out)
        if collector is not None:
            _report_profile(name, collector, out)
        if hook is not None and not _report_live(name, hook, out):
            failed.append(f"{name} (live)")
        if not result.all_checks_pass:
            failed.append(name)
    if failed:
        print(f"shape-check failures: {failed}", file=out)
        return 1
    return 0


def _report_live(figure: str, hook, out: TextIO) -> bool:
    """One figure's live verdicts: byte-identity, final progress, alerts.

    Returns False (a failure) when any run's streamed NDJSON differed
    from its post-hoc export — the live layer's core contract.  Alerts
    are reported but not failed here (fault-injection figures alert by
    design); CI's live-smoke job asserts "alerts: none" on a clean
    figure via the printed line.  The longest run's stream is written to
    ``LIVE_<figure>.ndjson`` as the artifact.
    """
    if not hook.runs:
        print(f"[live] {figure}: no monitored runs", file=out)
        return True
    identical = hook.all_byte_identical
    print(
        f"[live] {figure}: {len(hook.runs)} run(s), "
        f"stream/batch byte-identical: {'yes' if identical else 'NO'}",
        file=out,
    )
    print(f"[live] {figure}: final {hook.runs[-1].monitor.progress_line()}",
          file=out)
    counts = hook.alert_kinds()
    if counts:
        rendered = ", ".join(f"{k}x{n}" for k, n in sorted(counts.items()))
        print(f"[live] {figure}: alerts: {rendered}", file=out)
    else:
        print(f"[live] {figure}: alerts: none", file=out)
    longest = max(hook.runs, key=lambda r: len(r.streamed))
    path = f"LIVE_{figure}.ndjson"
    with open(path, "w") as fh:
        fh.write(longest.streamed)
    print(f"[live] wrote {path}", file=out)
    return identical


def _report_profile(figure: str, collector, out: TextIO) -> None:
    """Aggregate one figure's profiles: attribution table + flamegraph.

    The attribution table sums the exclusive categories over every run the
    figure performed; the speedscope artifact captures the single longest
    run (the one whose critical path dominates the figure's wall time).
    """
    profiles = [p for p in collector.profiles if p.has_spans]
    if not profiles:
        print(f"[profile] {figure}: no profiled runs", file=out)
        return
    totals = {category: 0.0 for category in CATEGORIES}
    for prof in profiles:
        for category, seconds in attribution(prof).items():
            totals[category] += seconds
    makespan = sum(p.makespan for p in profiles)
    print(
        f"[profile] {figure}: {len(profiles)} run(s), "
        f"{makespan:.3f} simulated seconds total",
        file=out,
    )
    for category, seconds in totals.items():
        if seconds > 0.0:
            share = 100.0 * seconds / makespan if makespan else 0.0
            print(f"[profile]   {category:<9} {seconds:12.6f} s  ({share:5.1f}%)",
                  file=out)
    longest = max(profiles, key=lambda p: p.makespan)
    path = f"PROFILE_{figure}.speedscope.json"
    save_speedscope(longest, path, name=f"{figure} (longest run)")
    print(f"[profile] wrote {path}", file=out)
