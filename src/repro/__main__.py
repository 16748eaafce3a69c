"""``python -m repro <command>``: the one command line over the package.

``bench``, ``lab``, ``prof``, ``gate``, ``live`` and ``service`` (itself
``serve``, ``submit``, ``status`` and ``follow`` over a spool directory);
``python -m repro <command> --help`` lists each one's flags.  This
module builds the one ``argparse`` tree; each command's body is a
handler ``(args, out) -> exit code`` beside its package
(``repro.<package>.cli``).  A value that does not convert is a usage
error: exit 2 with one usage line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import sys

from .bench.cli import cmd_bench
from .bench.figures import ALL_FIGURES
from .cluster.memory import available_policies
from .engine.backends import available_backends
from .engine.policies import available_schedulers
from .lab.cli import cmd_lab
from .lab.workloads import available_workloads
from .live.cli import cmd_live
from .prof import parse_factors
from .prof.cli import cmd_gate, cmd_prof
from .service.cli import cmd_follow, cmd_serve, cmd_status, cmd_submit


def positive(number):
    """A converter for ``number`` values (``int`` or ``float``) above zero."""

    def convert(text: str):
        if not number(text) > 0:
            raise argparse.ArgumentTypeError(f"not above zero: {text!r}")
        return number(text)

    convert.__name__ = f"positive {number.__name__}"  # argparse's error names it
    return convert


def tenant_weight(spec: str):
    """``NAME[:WEIGHT]`` -> ``(name, weight)`` (weight defaults to 1)."""
    name, _, weight = spec.partition(":")
    return name, positive(float)(weight or "1")


def one_of(universe, label: str):
    """A converter that accepts only the names in ``universe``."""

    def convert(name: str) -> str:
        if name not in universe:
            raise argparse.ArgumentTypeError(
                f"unknown {label} {name!r} (choose from {', '.join(universe)})"
            )
        return name

    return convert


def comma_list(item, tags=None):
    """A converter for ``a,b,c`` (each part through ``item``) or one of
    the ``tags``, each naming a whole list."""

    def comma_separated(spec: str) -> list:
        if tags and spec in tags:
            return list(tags[spec])
        return [item(part.strip()) for part in spec.split(",") if part.strip()]

    return comma_separated


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Meta-dataflow reproduction: benchmarks, policy lab, "
        "profiler, perf gate, live dashboard and the job service",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="<command>")

    def command(group, name: str, handler, synopsis: str, help: str, **kwargs):
        sub = group.add_parser(name, usage=f"%(prog)s {synopsis}", help=help,
                               description=help, allow_abbrev=False, **kwargs)
        sub.set_defaults(handler=handler)
        return sub

    # the one redraw flag set (``service follow`` always follows), and the
    # flag a trace dashboard adds
    pacing = argparse.ArgumentParser(add_help=False)
    pacing.add_argument("--interval", type=positive(float), default=0.5, metavar="SECONDS",
                        help="redraw at most this often while following (default 0.5)")
    pacing.add_argument("--idle-timeout", type=float, default=5.0, metavar="SECONDS",
                        help="stop following after this long with nothing new "
                        "(default 5.0)")
    redraw = argparse.ArgumentParser(add_help=False, parents=[pacing])
    redraw.add_argument("--follow", "-f", action="store_true",
                        help="keep redrawing as new data lands")
    alerts = argparse.ArgumentParser(add_help=False)
    alerts.add_argument("--fail-on-alert", action="store_true",
                        help="exit 1 if any alert was raised")

    bench = command(commands, "bench", cmd_bench, "[options] [figure ...]",
                    "regenerate the paper's tables/figures on the simulated clock")
    bench.add_argument("figures", nargs="*", metavar="figure",
                       type=one_of(list(ALL_FIGURES), "figure"),
                       help=f"figures to run (default: all of {', '.join(ALL_FIGURES)})")
    bench.add_argument("--validate", action="store_true",
                       help="check every run against the paper-invariant validators")
    bench.add_argument("--telemetry", action="store_true",
                       help="print the observability demo report (alone: replaces "
                       "the figure run)")
    bench.add_argument("--profile", action="store_true",
                       help="per-figure attribution tables + speedscope artifacts")
    bench.add_argument("--live", action="store_true",
                       help="stream every run through repro.live; NDJSON artifacts")

    lab = command(commands, "lab", cmd_lab, "[options]",
                  "comparative scheduler/eviction policy experiments")
    schedulers, workloads = available_schedulers(), available_workloads()
    lab.add_argument("--policies", default="all",
                     type=comma_list(one_of(schedulers, "scheduler"), {"all": schedulers}),
                     help="comma list of scheduler names, or 'all' (default); bfs, "
                     "the reference, is always crossed in")
    tags = {tag: available_workloads(tag) for tag in ("smoke", "full")}
    lab.add_argument("--workloads", default="smoke",
                     type=comma_list(one_of(workloads, "workload"), dict(tags, all=workloads)),
                     help="comma list of zoo workload names, or a tag: 'smoke' "
                     "(default) / 'full' / 'all'")
    lab.add_argument("--memories", default="amm",
                     type=comma_list(one_of(available_policies(), "memory policy")),
                     help="comma list of eviction-policy names crossed in (default: amm)")
    lab.add_argument("--sizes", type=comma_list(positive(int)), metavar="N,...",
                     help="comma list of worker counts to sweep (default: each "
                     "workload's own shape)")
    lab.add_argument("--backends", default="serial",
                     type=comma_list(one_of(available_backends(), "backend")),
                     help="comma list of execution backends; serial, the reference, "
                     "is always crossed in (add mp to prove backend choice never "
                     "moves a simulated byte)")
    lab.add_argument("--artifact", metavar="PATH",
                     help="write the report, its cells and mismatches, as JSON")

    prof = command(commands, "prof", cmd_prof, "TRACE [options]",
                   "critical-path profiler over a canonical decision trace")
    prof.add_argument("trace", metavar="TRACE", help="trace JSONL file to profile")
    prof.add_argument("--critical-path", action="store_true",
                      help="print the critical path (gating segments, longest first)")
    prof.add_argument("--by-branch", action="store_true",
                      help="print the per-branch cost-of-exploration breakdown")
    prof.add_argument("--per-node", action="store_true",
                      help="print the per-node busy/idle attribution table")
    prof.add_argument("--what-if", type=parse_factors, metavar="SPEC",
                      help="re-cost under scaled categories, e.g. compute=0.5x,alpha=2x")
    prof.add_argument("--speedscope", metavar="PATH",
                      help="write a speedscope flamegraph JSON of the span timeline")
    prof.add_argument("--chrome", metavar="PATH",
                      help="write a Chrome trace_event JSON of the span timeline")

    gate = command(commands, "gate", cmd_gate, "BASELINES [options]",
                   "perf-regression gate over simulated completion times")
    gate.add_argument("baselines", metavar="BASELINES", help="the baselines JSON")
    gate.add_argument("--update", action="store_true",
                      help="rewrite the baselines from the current engine")
    gate.add_argument("--inject-slowdown", type=float, default=1.0, metavar="FACTOR",
                      help="scale measured times (proves the gate can fail)")

    live = command(commands, "live", cmd_live, "TRACE [options]",
                   "terminal progress dashboard over a streamed NDJSON trace",
                   parents=[redraw, alerts])
    live.add_argument("trace", metavar="TRACE", help="the NDJSON trace file")

    service = command(commands, "service", None, "<command> --spool DIR [options]",
                      "file-based multi-tenant MDF job service (the spool "
                      "directory is the whole protocol)")
    actions = service.add_subparsers(dest="action", required=True, metavar="<command>",
                                     prog="python -m repro service")
    spool = argparse.ArgumentParser(add_help=False)
    spool.add_argument("--spool", metavar="DIR", required=True, help="the spool directory")

    serve = command(actions, "serve", cmd_serve, "--spool DIR [options]",
                    "run the service over the spool directory", parents=[spool])
    serve.add_argument("--workers", type=positive(int), default=2, metavar="N",
                       help="concurrent worker processes (default 2)")
    serve.add_argument("--tenant", type=tenant_weight, action="append", default=[],
                       metavar="NAME:WEIGHT", dest="tenants",
                       help="pre-register a tenant weight (repeatable)")
    serve.add_argument("--quota-bytes", type=int, metavar="N",
                       help="per-tenant shared-cache byte quota")
    serve.add_argument("--max-idle", type=float, default=5.0, metavar="SECONDS",
                       help="exit after this much inbox+queue silence (default 5)")
    serve.add_argument("--once", action="store_true",
                       help="drain the current inbox, then exit")
    serve.add_argument("--no-validate", action="store_true",
                       help="skip the per-job trace validators")

    submit = command(actions, "submit", cmd_submit, "--spool DIR --workload NAME [options]",
                     "queue one job (writes an inbox ticket)", parents=[spool])
    submit.add_argument("--tenant", default="default", metavar="NAME",
                        help='submitting tenant (default "default")')
    submit.add_argument("--workload", required=True, metavar="NAME",
                        help="lab-zoo workload name")
    for field, default in (("scheduler", "bas"), ("memory", "amm"), ("backend", "serial")):
        submit.add_argument(f"--{field}", metavar="NAME",
                            help=f"the job's {field} (default {default})")
    submit.add_argument("--cost", type=float, metavar="X",
                        help="fair-share cost hint (default 1.0)")

    status = command(actions, "status", cmd_status, "--spool DIR [options]",
                     "the whole-service dashboard from the latest snapshot",
                     parents=[spool, redraw])
    status.add_argument("--json", action="store_true",
                        help="print the raw snapshot (age injected) as JSON")
    status.add_argument("--metrics", action="store_true",
                        help="print the service metrics export instead "
                        "(Prometheus text; JSON with --json)")

    follow = command(actions, "follow", cmd_follow, "--spool DIR [options]",
                     "tail one job's live trace dashboard",
                     parents=[spool, pacing, alerts])
    follow.add_argument("--job", metavar="JOB_ID",
                        help="job to follow (default: most recent)")
    return parser


def main(argv=None, out=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args, out or sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
