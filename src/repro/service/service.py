"""The long-lived multi-tenant job service.

:class:`JobService` accepts MDF submissions from many tenants, admits
them through the weighted fair-share queue
(:class:`~repro.service.queue.FairShareQueue`), and runs up to
``workers`` jobs **concurrently in real processes** (``daemon=False``
workers started on demand, one pipe each, one ``run_mdf`` call per job
on any backend; a job whose worker dies is re-queued, up to
:data:`ATTEMPTS` runs).  All jobs share
one :class:`~repro.cache.SharedCacheStore` directory, so one tenant's
exploration warms every other tenant's cache, deduplicated in flight
and bounded per tenant by byte quotas.

Every running job streams its trace to ``<spool>/streams/<job>.ndjson``
through the PR7 :class:`~repro.live.stream.StreamWriter`, so clients can
follow per-submission progress/ETA live (``python -m repro.service
follow``).  ``<spool>/state.json`` and the metric exports are derived
views of the event log for out-of-process ``status`` queries: current
once :meth:`drain` has returned or the service is closed, otherwise at
most one publish interval behind (atomic replace).

The dispatcher is a single-threaded pump — :meth:`pump` collects
finished jobs and admits queued ones; :meth:`drain` pumps until idle.
Determinism note: *which* jobs run concurrently affects only real time
and cache hit timing; each job's sink outputs stay byte-identical to a
solo run (asserted by ``benchmarks/wall`` and ``tests/service``).
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import tempfile
import time
from multiprocessing.connection import wait
from multiprocessing.util import Finalize
from typing import Any, Dict, List, Optional, Set, Tuple

from .jobs import DONE, FAILED, QUEUED, RUNNING, JobRecord, JobSpec
from ..cache.store import atomic_text
from .obs import CACHE_COUNTER_KEYS, ServiceObs
from .queue import FairShareQueue, QueuedJob
from .worker import serve

__all__ = ["JobService"]

#: runs a job gets before a worker death fails it (fm-app's repair loop)
ATTEMPTS = 3

#: the next publish of the views comes no sooner than max(PUBLISH_MIN_S,
#: PUBLISH_COST_X × the last one's duration) after it: ~1/10 of the time
PUBLISH_MIN_S = 0.25
PUBLISH_COST_X = 10.0

#: what a submission may set beside tenant, workload and cost: the fields
#: ``python -m repro.service submit`` writes into a ticket, plus
#: ``validate``.  Tickets are outside input — every other ``JobSpec``
#: attribute (its id, its stream and cache paths, its methods) is the
#: service's to decide.
TICKET_FIELDS = ("scheduler", "memory", "backend", "validate")


class JobService:
    """Concurrent fair-share MDF job service over a shared result cache."""

    def __init__(
        self,
        workers: int = 2,
        tenants: Optional[Dict[str, float]] = None,
        cache_dir: Optional[str] = None,
        spool: Optional[str] = None,
        quota_bytes: Optional[int] = None,
        validate: bool = True,
        cache: bool = True,
        slos: Optional[Dict[str, Dict[str, Any]]] = None,
    ):
        self.workers = max(1, int(workers))
        self.queue = FairShareQueue(slots=self.workers)
        for name, weight in sorted((tenants or {}).items()):
            self.queue.register(name, weight)
        self.spool = spool or tempfile.mkdtemp(prefix="repro-service-")
        os.makedirs(os.path.join(self.spool, "streams"), exist_ok=True)
        #: the service observability plane; its event log is always written,
        #: and a spool that has one already raises FileExistsError
        self.obs = ServiceObs(
            events_path=os.path.join(self.spool, "service_events.ndjson"),
            slots=self.queue.slots,
            weights=self.queue.weights(),
            slos=slos,
        )
        if cache:
            self.cache_dir = cache_dir or os.path.join(self.spool, "cache")
            os.makedirs(self.cache_dir, exist_ok=True)
        else:
            self.cache_dir = None
        self.quota_bytes = quota_bytes
        self.validate = bool(validate)
        self.records: Dict[str, JobRecord] = {}
        #: job id -> (record, queue entry, the dispatcher's end of its worker's pipe)
        self._running: Dict[str, Tuple[JobRecord, QueuedJob, Any]] = {}
        self._workers: Dict[Any, Any] = {}  # pipe end -> live worker Process
        self._idle: List[Any] = []  # pipe ends of the workers without a job
        self._attempts: Dict[str, int] = {}  # job id -> runs its workers died in
        # interpreter exit joins every child with daemon=False: hang up first
        Finalize(self, _hang_up, (self._workers,), exitpriority=0)
        self._next_id = 0
        self._closed = False
        self._dirty = False  # the views lag the live state
        self._publish_due = 0.0  # time.monotonic() of the next due publish

    # ----------------------------------------------------------- lifecycle
    def _worker(self):
        """An idle live worker's pipe end (dead ones are reaped), else a new one's."""
        while self._idle:
            conn = self._idle.pop()
            if self._workers[conn].is_alive():
                return conn
            self._reap(conn)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        conn, child = ctx.Pipe()
        inherited = [*self._workers, conn]  # the dispatcher's ends the fork copies
        process = ctx.Process(target=serve, args=(child, inherited), daemon=False)
        process.start()
        child.close()
        self._workers[conn] = process
        return conn

    def _reap(self, conn) -> Optional[int]:  # a worker gone or going: its exit code
        process = self._workers.pop(conn)
        conn.close()
        process.join()
        return process.exitcode

    def close(self) -> None:
        """Stop: running jobs fail as cancelled, workers are reaped, views persist."""
        if self._closed:
            return
        self._closed = True
        for record, queued, conn in self._running.values():
            self._workers[conn].terminate()
            self._finish(record, queued, None, "cancelled: service closed")
        self._running.clear()
        for conn in list(self._workers):
            self._reap(conn)
        self.write_state()
        self.obs.close()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- submit
    def submit(
        self,
        tenant: str,
        workload: str,
        cost: float = 1.0,
        **overrides: Any,
    ) -> str:
        """Queue one job; returns its id.  ``overrides`` patch the spec
        (:data:`TICKET_FIELDS`; anything else is a :class:`TypeError`).
        A refused submission leaves no record, queue entry or event
        behind."""
        if self._closed:
            raise RuntimeError("service is closed")
        for key in overrides:
            if key not in TICKET_FIELDS:
                raise TypeError(f"unknown JobSpec field {key!r}")
        self._next_id += 1
        job_id = f"job-{self._next_id:04d}"
        spec = JobSpec(
            job_id=job_id,
            tenant=tenant,
            workload=workload,
            cache_dir=self.cache_dir,
            quota_bytes=self.quota_bytes,
            stream_path=os.path.join(self.spool, "streams", f"{job_id}.ndjson"),
            validate=self.validate,
            cost=cost,
        )
        for key, value in overrides.items():
            setattr(spec, key, value)
        record = JobRecord(spec=spec)
        queued = self.queue.put(tenant, record, cost=spec.cost)  # checks cost
        self.records[job_id] = record
        self.obs.emit(
            "submitted", record.submitted_at, **_job(record), cost=queued.cost,
            start_tag=queued.start_tag, finish_tag=queued.finish_tag,
            vtime=self.queue.vtime,
        )
        self._dirty = True
        self._publish()
        return job_id

    # --------------------------------------------------------- dispatcher
    def pump(self) -> int:
        """One dispatcher turn: collect finished jobs, admit queued ones.

        Returns the number of state transitions (0 = nothing changed —
        callers may sleep).  Never blocks on a running job.
        """
        transitions = self._collect() + self._admit()
        self._dirty = self._dirty or transitions > 0
        self._publish()
        return transitions

    def wait(self, timeout: float) -> bool:
        """Sleep ``timeout`` seconds, or less if a running job's worker is ready."""
        return bool(self._ready(timeout))

    def _ready(self, timeout: float) -> Set[str]:
        """The running jobs whose worker's pipe or process is ready."""
        owner = {}
        for job_id, (_, _, conn) in self._running.items():
            owner[conn] = owner[self._workers[conn].sentinel] = job_id
        return {owner[handle] for handle in wait(list(owner), timeout)}

    def _collect(self) -> int:
        ready = self._ready(0)
        for job_id in sorted(ready):
            record, queued, conn = self._running.pop(job_id)
            try:  # nothing to read, EOF or a torn message: the worker died
                result = conn.recv() if conn.poll() else None
            except (EOFError, OSError):
                result = None
            if result is not None:
                self._idle.append(conn)
                self._finish(record, queued, result, None)
                continue
            exitcode = self._reap(conn)
            attempts = self._attempts[job_id] = self._attempts.get(job_id, 0) + 1
            if attempts < ATTEMPTS:
                self.queue.requeue(queued)
                record.status, record.started_at = QUEUED, None
                self.obs.emit(
                    "retried", time.time(), **_job(record), attempt=attempts,
                    exitcode=exitcode,
                )
            else:
                error = f"worker died (exit code {exitcode}) on {attempts} attempts"
                self._finish(record, queued, None, error)
        return len(ready)

    def _finish(self, record, queued, result, error) -> None:
        """Settle a job that left its worker: ``result`` is what the worker
        sent, else ``None`` and ``error`` says why there is none."""
        self.queue.release(queued)
        record.finished_at = time.time()
        # the job-view totals feed the obs plane, not state.json
        totals = None if result is None else result.pop("obs", None)
        record.result = result
        record.status = DONE if result and result.get("ok") else FAILED
        record.error = error if result is None else result.get("error")
        result = result or {}
        cache = result.get("cache", {})
        event = self.obs.emit(
            record.status, record.finished_at, **_job(record),
            latency=record.finished_at - record.submitted_at,
            busy_seconds=record.finished_at - record.started_at,
            violations=result.get("violations", 0),
            cache={k: cache[k] for k in CACHE_COUNTER_KEYS if cache.get(k)},
            store={k: v for k, v in result.get("store", {}).items() if v},
        )
        if totals is not None:  # what a done job's worker shipped
            self.obs.add_job_totals(event, totals)

    def _admit(self) -> int:
        transitions = 0
        while self.queue.free_slots and self.queue.backlog:
            # snapshot the SFQ candidates *before* the pop: the fairness
            # auditor re-checks the min-finish-tag discipline against them
            heads = self.queue.pending_heads()
            queued = self.queue.next_job()
            conn = self._worker()
            record: JobRecord = queued.payload
            record.status = RUNNING
            record.started_at = time.time()
            self.obs.emit(
                "running", record.started_at, **_job(record),
                queue_wait=record.started_at - record.submitted_at,
                cost=queued.cost, finish_tag=queued.finish_tag,
                vtime=self.queue.vtime,
                heads={k: list(v) for k, v in heads.items()},
                weights=self.queue.weights(),
            )
            with contextlib.suppress(OSError):  # died since it was idle: a death
                conn.send(record.spec.as_dict())
            self._running[record.job_id] = (record, queued, conn)
            transitions += 1
        return transitions

    def drain(
        self, timeout: Optional[float] = None, poll: float = 0.01
    ) -> List[JobRecord]:
        """Pump until every submission finished; returns finished records."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.queue.backlog or self._running:
            self.pump()
            if not (self.queue.backlog or self._running):
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"drain timed out with {self.queue.backlog} queued, "
                    f"{len(self._running)} running"
                )
            self.wait(poll)
        self._publish(force=True)
        return [r for r in self.records.values() if r.status in (DONE, FAILED)]

    # -------------------------------------------------------------- state
    def record(self, job_id: str) -> JobRecord:
        return self.records[job_id]

    def status(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the whole service."""
        counts = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for record in self.records.values():
            counts[record.status] = counts.get(record.status, 0) + 1
        return {
            "workers": self.workers,
            "busy": self.queue.busy,
            "counts": counts,
            "admission_shares": self.queue.admission_shares(),
            "tenants": [
                {
                    "name": t.name,
                    "weight": t.weight,
                    "submitted": t.submitted,
                    "admitted": t.admitted,
                    "completed": t.completed,
                    "backlog": t.backlog,
                }
                for t in self.queue.tenants
            ],
            "cache_dir": self.cache_dir,
            "spool": self.spool,
            "obs": self.obs.summary(),
            "jobs": [record.as_dict() for record in self.records.values()],
        }

    def _publish(self, force: bool = False) -> None:
        """Refresh the views if they lag and a publish is due (or ``force``)."""
        if self._dirty and (force or time.monotonic() >= self._publish_due):
            start = time.monotonic()
            self.write_state()
            now = time.monotonic()
            self._publish_due = now + max(PUBLISH_MIN_S, PUBLISH_COST_X * (now - start))

    def write_state(self) -> None:
        """Mirror the snapshot to ``<spool>/state.json`` (atomic)."""
        payload = dict(self.status(), updated_unix=time.time())
        with atomic_text(os.path.join(self.spool, "state.json")) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        self.obs.export(self.spool)
        self._dirty = False


def _job(record: JobRecord) -> Dict[str, str]:
    """The fields every job event of the service log starts with."""
    return {"job": record.job_id, "tenant": record.tenant, "workload": record.spec.workload}


def _hang_up(workers: Dict[Any, Any]) -> None:
    """Close every worker's pipe: an idle worker reads EOF and exits."""
    for conn in workers:
        conn.close()
