"""``python -m repro service <command> --spool DIR``: the job service.

The service is file-based (no network): a *spool directory* is the whole
protocol, so clients and the server only need a shared filesystem.

::

    spool/
      inbox/      submission tickets (JSON, written atomically by `submit`)
      streams/    one live NDJSON trace per job (the StreamWriter format)
      cache/      the shared cross-tenant result store (default location)
      state.json  derived view of service_events.ndjson: current once `serve`
                  is idle, else <= max(0.25 s, 10 x publish time) behind

``serve`` runs the service until the spool has been idle for
``--max-idle`` wall seconds (``--once``: until the current inbox is
drained); ``submit`` drops one ticket into the inbox; ``status`` draws
the whole-service dashboard from ``state.json`` and ``metrics.json``
(``--follow`` redraws it as the snapshot changes; a dead server shows as
a STALE snapshot age, not as live state); ``follow`` tails one job's
stream with the ``repro.live`` dashboard.

Only ``serve`` and ``submit`` create the spool; the read-only commands
report a missing one.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Any, Dict, List, Optional, TextIO, Tuple

from .jobs import DONE, FAILED
from ..cache.store import atomic_text
from ..live.cli import cmd_live, follow
from .service import JobService

#: a snapshot older than this many seconds is flagged STALE
STALE_AFTER = 30.0


def _inbox(spool: str) -> str:
    path = os.path.join(spool, "inbox")
    os.makedirs(path, exist_ok=True)
    return path


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


def cmd_submit(args: argparse.Namespace, out: TextIO) -> int:
    ticket: Dict[str, Any] = {"tenant": args.tenant, "workload": args.workload}
    for key in ("scheduler", "memory", "backend", "cost"):
        value = getattr(args, key)
        if value is not None:
            ticket[key] = value
    name = f"{time.time():.6f}-{os.getpid()}.json"
    with atomic_text(os.path.join(_inbox(args.spool), name)) as fh:  # one rename
        json.dump(ticket, fh, sort_keys=True)
    out.write(f"queued ticket {name}\n")
    return 0


def _load_json(spool: str, name: str) -> Tuple[Optional[Dict[str, Any]], str]:
    """Re-read ``<spool>/<name>`` (``state.json``, ``metrics.json``)
    freshly on every call (never cached).

    Returns the object, or ``None`` and the one line that says why
    there is none.  The server publishes with an atomic ``os.replace``,
    so an open file is always one complete snapshot; a decode error can
    still happen if the file is replaced by a non-atomic writer, so one
    retry absorbs the race instead of reporting a dead service.
    """
    path = os.path.join(spool, name)
    problem = ""
    for attempt in range(2):
        try:
            with open(path) as fh:
                state = json.load(fh)
            if not isinstance(state, dict):
                raise ValueError("not a JSON object")
            return state, ""
        except FileNotFoundError:
            return None, f"no {name} under {spool} (service not started?)"
        except ValueError as exc:
            problem = f"unreadable {name} under {spool}: {exc}"
            if not attempt:
                time.sleep(0.05)
    return None, problem


def _snapshot_age(state: Dict[str, Any]) -> Optional[float]:
    updated = state.get("updated_unix")
    if updated is None:
        return None
    return max(0.0, time.time() - float(updated))


def _age_line(state: Dict[str, Any]) -> str:
    age = _snapshot_age(state)
    if age is None:
        return "snapshot age: unknown (no updated_unix)"
    flag = "  (STALE — server gone or wedged?)" if age > STALE_AFTER else ""
    return f"snapshot age: {age:.1f}s{flag}"


def cmd_status(args: argparse.Namespace, out: TextIO) -> int:
    spool = args.spool
    if args.metrics:
        name = "metrics.json" if args.json else "metrics.prom"
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
    state, problem = _load_json(spool, "state.json")
    if state is None:
        out.write(problem + "\n")
        return 2
    if args.json:
        payload = dict(state, snapshot_age_s=_snapshot_age(state))
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
        return 0
    if not args.follow:
        out.write(_render_status(state, _load_json(spool, "metrics.json")[0]))
        return 0
    shown: Any = object()  # the ``updated_unix`` of the last frame drawn

    def poll() -> bool:
        nonlocal state, shown
        state = _load_json(spool, "state.json")[0] or state
        news = state.get("updated_unix") != shown
        shown = state.get("updated_unix")
        return news

    follow(poll, lambda: _render_status(state, _load_json(spool, "metrics.json")[0]),
           out, args.interval, args.idle_timeout)
    return 0


def _render_status(state: Dict[str, Any], metrics: Optional[Dict[str, Any]]) -> str:
    """One dashboard frame from the published snapshot + metrics export."""
    lines: List[str] = ["repro service status", "=" * 64]
    counts = state.get("counts", {})
    lines.append(
        "jobs: "
        + "  ".join(f"{k}={counts.get(k, 0)}" for k in sorted(counts))
        + f"    slots {state.get('busy', 0)}/{state.get('workers', '?')}"
    )
    lines.append(_age_line(state))
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
    lines.append("")
    for job in state.get("jobs", []):
        spec = job["spec"]
        latency = job.get("latency")
        extra = f"  {latency:.2f}s" if latency is not None else ""
        lines.append(
            f"  {spec['job_id']}  {job['status']:<8} {spec['tenant']:<12}"
            f" {spec['workload']}{extra}"
        )
    return "\n".join(lines) + "\n"


def cmd_follow(args: argparse.Namespace, out: TextIO) -> int:
    job_id = args.job
    if job_id is None:
        state, _ = _load_json(args.spool, "state.json")
        jobs = state.get("jobs", []) if state else []
        if not jobs:
            out.write("no job to follow (use --job JOB_ID)\n")
            return 2
        job_id = jobs[-1]["spec"]["job_id"]
    # the service streams every job to <spool>/streams/<job id>.ndjson
    args.trace = os.path.join(args.spool, "streams", f"{job_id}.ndjson")
    args.follow = True
    return cmd_live(args, out)
