"""Command-line entry: ``python -m repro.service <command> --spool DIR``.

The service is file-based (no network): a *spool directory* is the whole
protocol, so clients and the server only need a shared filesystem.

::

    spool/
      inbox/      submission tickets (JSON, written atomically by `submit`)
      streams/    one live NDJSON trace per job (PR7 StreamWriter format)
      cache/      the shared cross-tenant result store (default location)
      state.json  derived view of service_events.ndjson: current once `serve`
                  is idle, else <= max(0.25 s, 10 x publish time) behind

commands:

``serve``
    Run the service: ingest inbox tickets, admit them through the
    weighted fair-share queue, run up to ``--workers`` jobs in parallel
    over the shared cache.  Exits when the spool has been idle for
    ``--max-idle`` wall seconds (or immediately after draining the
    current inbox with ``--once``).
``submit``
    Write one submission ticket; prints the ticket path.  The ticket is
    picked up by a running (or later) ``serve``.
``status``
    Print the latest ``state.json`` snapshot as a per-tenant/per-job
    summary table.  The snapshot is re-read atomically on every call
    and its **age** is surfaced (a dead server shows up as a stale
    snapshot, not as live state).  ``--metrics`` prints the service
    registry's Prometheus text (JSON with ``--json``) instead.
``follow``
    Tail one job's live NDJSON stream with the ``repro.live`` terminal
    dashboard (progress, per-branch status, watchdog alerts).
``top``
    Follow-mode whole-service dashboard beside the per-job ``follow``:
    slots, per-state job counts, per-tenant fairness shares and SLO
    attainment, per-workload latency percentiles, recent alerts —
    re-rendered from ``state.json`` + ``metrics.json`` every interval.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, TextIO, Tuple

from .jobs import DONE, FAILED
from ..cache.store import atomic_text
from .service import JobService


def _tenant_weight(spec: str) -> Tuple[str, float]:
    """``NAME[:WEIGHT]`` -> ``(name, weight)`` (weight defaults to 1)."""
    name, _, weight = spec.partition(":")
    try:
        return name, float(weight) if weight else 1.0
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tenant weight: {weight!r}")


def make_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its per-command sub-parsers."""
    prog = "python -m repro.service"
    parser = argparse.ArgumentParser(
        prog=prog,
        usage=f"{prog} <command> --spool DIR [options]",
        description="file-based multi-tenant MDF job service (the spool "
        "directory is the whole protocol)",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="<command>")

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(
            name,
            prog=f"{prog} {name}",
            usage=f"{prog} {name} --spool DIR [options]",
            help=help,
            description=help,
            allow_abbrev=False,
        )
        sub.add_argument("--spool", metavar="DIR", help="the spool directory")
        sub.set_defaults(handler=handler)
        return sub

    serve = command("serve", cmd_serve, "run the service over the spool directory")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="concurrent worker processes (default 2)")
    serve.add_argument("--tenant", type=_tenant_weight, action="append", default=[],
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

    submit = command("submit", cmd_submit, "queue one job (writes an inbox ticket)")
    submit.add_argument("--tenant", default="default", metavar="NAME",
                        help='submitting tenant (default "default")')
    submit.add_argument("--workload", metavar="NAME",
                        help="lab-zoo workload name (required)")
    submit.add_argument("--scheduler", metavar="NAME",
                        help="scheduler policy (default bas)")
    submit.add_argument("--memory", metavar="NAME",
                        help="eviction policy (default amm)")
    submit.add_argument("--backend", metavar="NAME",
                        help="execution backend (default serial)")
    submit.add_argument("--cost", type=float, metavar="X",
                        help="fair-share cost hint (default 1.0)")

    status = command("status", cmd_status, "print the latest service snapshot")
    status.add_argument("--json", action="store_true",
                        help="print the raw snapshot (age injected) as JSON")
    status.add_argument("--metrics", action="store_true",
                        help="print the service metrics export instead "
                        "(Prometheus text; JSON with --json)")

    follow = command("follow", cmd_follow, "tail one job's live trace dashboard")
    follow.add_argument("--job", metavar="JOB_ID",
                        help="job to follow (default: most recent); remaining "
                        "flags pass through to `python -m repro.live`")

    top = command("top", cmd_top, "follow-mode whole-service dashboard")
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="refresh period (default 2.0)")
    top.add_argument("--iterations", type=int, default=0, metavar="N",
                     help="stop after N renders (default: until ^C)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit")
    for sub in (status, top):
        sub.add_argument("--stale-after", type=float, default=30.0, metavar="S",
                         help="age beyond which the snapshot is flagged STALE "
                         "(default 30)")
    return parser, commands.choices


def _inbox(spool: str) -> str:
    path = os.path.join(spool, "inbox")
    os.makedirs(path, exist_ok=True)
    return path


def _write_ticket(spool: str, payload: Dict[str, Any]) -> str:
    """Atomically drop one submission ticket into the inbox."""
    final = os.path.join(_inbox(spool), f"{time.time():.6f}-{os.getpid()}.json")
    with atomic_text(final) as fh:
        json.dump(payload, fh, sort_keys=True)
    return final


def _ingest(service: JobService, spool: str, out: TextIO) -> int:
    """Submit every inbox ticket (oldest first); returns the count."""
    inbox = _inbox(spool)
    count = 0
    for name in sorted(os.listdir(inbox)):
        if name.startswith(".") or not name.endswith(".json"):
            continue
        path = os.path.join(inbox, name)
        try:
            with open(path) as fh:
                ticket = json.load(fh)
        except (OSError, ValueError) as exc:
            out.write(f"bad ticket {name}: {exc}\n")
            os.unlink(path)
            continue
        os.unlink(path)
        if not isinstance(ticket, dict):
            out.write(f"bad ticket {name}: not a JSON object\n")
            continue
        tenant = ticket.pop("tenant", "default")
        workload = ticket.pop("workload", None)
        if not workload:
            out.write(f"bad ticket {name}: no workload\n")
            continue
        try:
            job_id = service.submit(tenant, workload, **ticket)
        except (TypeError, ValueError) as exc:  # unknown field / bad value
            out.write(f"bad ticket {name}: {exc}\n")
            continue
        out.write(f"{job_id}  tenant={tenant}  workload={workload}\n")
        count += 1
    return count


# ----------------------------------------------------------------- serve
def cmd_serve(args: argparse.Namespace, out: TextIO) -> int:
    spool = args.spool
    try:
        service = JobService(
            workers=args.workers,
            tenants=dict(args.tenants),
            spool=spool,
            quota_bytes=args.quota_bytes or None,
            validate=not args.no_validate,
        )
    except FileExistsError:
        out.write(f"spool {spool} already has a service log: serve a fresh spool\n")
        return 2
    out.write(f"serving spool={spool} workers={service.workers}\n")
    last_activity = time.monotonic()
    with service:
        while True:
            moved = _ingest(service, spool, out)
            moved += service.pump()
            if moved:
                last_activity = time.monotonic()
            busy = service.queue.backlog or service._running
            if args.once and not busy:
                break
            if not busy and time.monotonic() - last_activity >= args.max_idle:
                break
            service.wait(0.02 if busy else 0.1)  # a completion ends it early
        service.drain()
    done = sum(1 for r in service.records.values() if r.status == DONE)
    failed = sum(1 for r in service.records.values() if r.status == FAILED)
    out.write(f"served {len(service.records)} job(s): {done} done, {failed} failed\n")
    return 1 if failed else 0


# ---------------------------------------------------------------- submit
def cmd_submit(args: argparse.Namespace, out: TextIO) -> int:
    if not args.workload:
        out.write("submit requires --workload NAME\n")
        return 2
    ticket: Dict[str, Any] = {"tenant": args.tenant, "workload": args.workload}
    for key in ("scheduler", "memory", "backend", "cost"):
        value = getattr(args, key)
        if value is not None:
            ticket[key] = value
    path = _write_ticket(args.spool, ticket)
    out.write(f"queued ticket {os.path.basename(path)}\n")
    return 0


# ---------------------------------------------------------------- status
def _load_state(spool: str) -> Tuple[Optional[Dict[str, Any]], str]:
    """Re-read ``state.json`` freshly on every call (never cached).

    Returns the snapshot, or ``None`` and the one line that says why
    there is none.  The server publishes with an atomic ``os.replace``,
    so an open file is always one complete snapshot; a decode error can
    still happen if the file is replaced by a non-atomic writer, so one
    retry absorbs the race instead of reporting a dead service.
    """
    path = os.path.join(spool, "state.json")
    problem = ""
    for attempt in range(2):
        try:
            with open(path) as fh:
                state = json.load(fh)
            if not isinstance(state, dict):
                raise ValueError("not a JSON object")
            return state, ""
        except FileNotFoundError:
            return None, f"no state.json under {spool} (service not started?)"
        except ValueError as exc:
            problem = f"unreadable state.json under {spool}: {exc}"
            if not attempt:
                time.sleep(0.05)
    return None, problem


def _snapshot_age(state: Dict[str, Any]) -> Optional[float]:
    updated = state.get("updated_unix")
    if updated is None:
        return None
    return max(0.0, time.time() - float(updated))


def _age_line(state: Dict[str, Any], stale_after: float) -> str:
    age = _snapshot_age(state)
    if age is None:
        return "snapshot age: unknown (no updated_unix)\n"
    flag = "  (STALE — server gone or wedged?)" if age > stale_after else ""
    return f"snapshot age: {age:.1f}s{flag}\n"


def cmd_status(args: argparse.Namespace, out: TextIO) -> int:
    spool, as_json, stale_after = args.spool, args.json, args.stale_after
    if args.metrics:
        name = "metrics.json" if as_json else "metrics.prom"
        path = os.path.join(spool, name)
        try:
            with open(path) as fh:
                out.write(fh.read())
        except FileNotFoundError:
            out.write(
                f"no {name} under {spool} (service obs plane not running?)\n"
            )
            return 2
        return 0
    state, problem = _load_state(spool)
    if state is None:
        out.write(problem + "\n")
        return 2
    if as_json:
        payload = dict(state, snapshot_age_s=_snapshot_age(state))
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
        return 0
    out.write(_age_line(state, stale_after))
    counts = state.get("counts", {})
    out.write(
        "jobs: "
        + "  ".join(f"{k}={counts.get(k, 0)}" for k in sorted(counts))
        + f"  (slots {state.get('busy', 0)}/{state.get('workers', '?')})\n"
    )
    shares = state.get("admission_shares", {})
    for t in state.get("tenants", []):
        share = shares.get(t["name"])
        out.write(
            f"  tenant {t['name']:<12} weight={t['weight']:<5g}"
            f" submitted={t['submitted']:<3} completed={t['completed']:<3}"
            f" share={share:.2f}\n" if share is not None else
            f"  tenant {t['name']:<12} weight={t['weight']:<5g}"
            f" submitted={t['submitted']:<3} completed={t['completed']:<3}\n"
        )
    for job in state.get("jobs", []):
        spec = job["spec"]
        latency = job.get("latency")
        extra = f"  {latency:.2f}s" if latency is not None else ""
        out.write(
            f"  {spec['job_id']}  {job['status']:<8} {spec['tenant']:<12}"
            f" {spec['workload']}{extra}\n"
        )
    obs = state.get("obs") or {}
    alerts = obs.get("alerts") or []
    if alerts:
        out.write(f"service alerts: {len(alerts)}\n")
        for alert in alerts[-5:]:
            out.write(
                f"  [{alert['kind']}] {alert['subject']}: {alert['message']}\n"
            )
    return 0


# ------------------------------------------------------------------- top
def _load_metrics(spool: str) -> Optional[Dict[str, Any]]:
    try:
        with open(os.path.join(spool, "metrics.json")) as fh:
            return json.load(fh)
    except (FileNotFoundError, ValueError):
        return None


def _render_top(
    state: Dict[str, Any],
    metrics: Optional[Dict[str, Any]],
    stale_after: float,
) -> str:
    """One dashboard frame from the published snapshot + metrics export."""
    lines: List[str] = ["repro service top", "=" * 64]
    counts = state.get("counts", {})
    lines.append(
        "jobs: "
        + "  ".join(f"{k}={counts.get(k, 0)}" for k in sorted(counts))
        + f"    slots {state.get('busy', 0)}/{state.get('workers', '?')}"
    )
    lines.append(_age_line(state, stale_after).rstrip("\n"))
    obs = state.get("obs") or {}
    fairness = obs.get("fairness") or {}
    slo = obs.get("slo") or {}
    shares = state.get("admission_shares", {})
    lines.append("")
    lines.append(
        "tenant        weight  backlog  done  share(achieved/entitled)"
        "  slo-attained"
    )
    for t in state.get("tenants", []):
        name = t["name"]
        fair = fairness.get(name)
        fair_cell = (
            f"{fair['achieved_share']:.2f}/{fair['entitled_share']:.2f}"
            if fair
            else (f"{shares[name]:.2f}/-" if name in shares else "-")
        )
        slo_cell = (
            f"{slo[name]['attained']:.2f}"
            + ("" if slo[name]["met"] else " BREACH")
            if name in slo
            else "-"
        )
        lines.append(
            f"{name:<12}  {t['weight']:>6g}  {t['backlog']:>7}"
            f"  {t['completed']:>4}  {fair_cell:>24}  {slo_cell:>12}"
        )
    if metrics is not None:
        latency = metrics.get("service_latency_seconds", {}).get("series", [])
        if latency:
            lines.append("")
            lines.append("tenant        workload              n     p50      p99")
            for entry in latency:
                labels = entry.get("labels", {})
                p50, p99 = entry.get("p50"), entry.get("p99")
                lines.append(
                    f"{labels.get('tenant', '?'):<12}"
                    f"  {labels.get('workload', '?'):<18}"
                    f"  {entry.get('count', 0):>3}"
                    f"  {p50 if p50 is None else format(p50, '.3f'):>6}s"
                    f"  {p99 if p99 is None else format(p99, '.3f'):>6}s"
                )
    alerts = obs.get("alerts") or []
    lines.append("")
    lines.append(f"alerts: {len(alerts)}")
    for alert in alerts[-5:]:
        lines.append(f"  [{alert['kind']}] {alert['subject']}: {alert['message']}")
    return "\n".join(lines) + "\n"


def cmd_top(args: argparse.Namespace, out: TextIO) -> int:
    spool, stale_after = args.spool, args.stale_after
    iterations = 1 if args.once else args.iterations
    rendered = 0
    while True:
        state, problem = _load_state(spool)
        if state is None:
            out.write(problem + "\n")
            return 2
        frame = _render_top(state, _load_metrics(spool), stale_after)
        if rendered and getattr(out, "isatty", lambda: False)():
            out.write("\x1b[2J\x1b[H")  # clear + home between frames
        elif rendered:
            out.write("-" * 64 + "\n")
        out.write(frame)
        rendered += 1
        if iterations and rendered >= iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


# ---------------------------------------------------------------- follow
def cmd_follow(args: argparse.Namespace, out: TextIO) -> int:
    spool, job_id, argv = args.spool, args.job, args.passthrough
    state, _ = _load_state(spool)
    stream = None
    if state is not None:
        jobs = state.get("jobs", [])
        if job_id is None and jobs:
            job_id = jobs[-1]["spec"]["job_id"]
        for job in jobs:
            if job["spec"]["job_id"] == job_id:
                stream = job["spec"].get("stream_path")
                break
    if stream is None and job_id is not None:
        stream = os.path.join(spool, "streams", f"{job_id}.ndjson")
    if stream is None:
        out.write("no job to follow (use --job JOB_ID)\n")
        return 2
    from ..live.__main__ import main as live_main

    if "--follow" not in argv and "-f" not in argv:
        argv.append("--follow")
    return live_main([stream] + argv, out=out)


def main(argv: Optional[List[str]] = None, out: TextIO = sys.stdout) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = make_parser()
    wants_help = "--help" in argv or "-h" in argv
    command = commands.get(argv[0]) if argv else None
    if wants_help or command is None:
        (command or parser).print_help(out)
        return 0 if wants_help else 2
    # a malformed value exits 2 here, with one usage line on stderr
    args, extra = parser.parse_known_args(argv)
    if args.command == "follow":
        args.passthrough = extra
    elif extra:
        out.write(f"unknown {args.command} arguments: {extra}\n")
        return 2
    if args.spool is None:
        out.write("every command needs --spool DIR\n")
        return 2
    os.makedirs(args.spool, exist_ok=True)
    return args.handler(args, out)


if __name__ == "__main__":
    sys.exit(main())
