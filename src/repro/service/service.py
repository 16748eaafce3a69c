"""The long-lived multi-tenant job service.

:class:`JobService` accepts MDF submissions from many tenants, admits
them through the weighted fair-share queue
(:class:`~repro.service.queue.FairShareQueue`), and runs up to
``workers`` jobs **concurrently in real processes** (a fork-context
pool; each job is one ``run_mdf`` call in a worker, on the ``serial``
backend — the ``mp`` backend is rejected at :meth:`JobService.submit`,
because a daemonic pool worker may not fork a pool of its own).  All
jobs share
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

import json
import multiprocessing
import os
import tempfile
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from .jobs import DONE, FAILED, QUEUED, RUNNING, JobRecord, JobSpec, check_backend
from .obs import ServiceObs, _atomic_text
from .queue import FairShareQueue, QueuedJob
from .worker import run_job

__all__ = ["JobService"]

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
        slots: Optional[int] = None,
        tenants: Optional[Dict[str, float]] = None,
        cache_dir: Optional[str] = None,
        spool: Optional[str] = None,
        quota_bytes: Optional[int] = None,
        validate: bool = True,
        cache: bool = True,
        slos: Optional[Dict[str, Dict[str, Any]]] = None,
    ):
        self.workers = max(1, int(workers))
        self.queue = FairShareQueue(slots=slots or self.workers)
        for name, weight in sorted((tenants or {}).items()):
            self.queue.register(name, weight)
        self.spool = spool or tempfile.mkdtemp(prefix="repro-service-")
        os.makedirs(os.path.join(self.spool, "streams"), exist_ok=True)
        if cache:
            self.cache_dir = cache_dir or os.path.join(self.spool, "cache")
            os.makedirs(self.cache_dir, exist_ok=True)
        else:
            self.cache_dir = None
        self.quota_bytes = quota_bytes
        self.validate = bool(validate)
        self.records: Dict[str, JobRecord] = {}
        self._running: Dict[str, Tuple[JobRecord, QueuedJob, Any]] = {}
        self._landed: deque = deque()  # ids whose result is in (pool thread)
        self._wake = threading.Event()
        self._pool = None
        self._next_id = 0
        self._closed = False
        self._dirty = False  # the views lag the live state
        self._publish_due = 0.0  # time.monotonic() of the next due publish
        #: the service observability plane; its event log is always written
        self.obs = ServiceObs(
            events_path=os.path.join(self.spool, "service_events.ndjson"),
            slots=self.queue.slots,
            weights=self.queue.weights(),
            slos=slos,
        )

    # ----------------------------------------------------------- lifecycle
    def _ensure_pool(self):
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self._pool = ctx.Pool(self.workers)
        return self._pool

    def close(self) -> None:
        """Stop the service (running jobs are abandoned, state persisted)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
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
        (:data:`TICKET_FIELDS`; anything else is a :class:`TypeError`);
        ``backend="mp"`` raises :class:`ValueError` (see
        :func:`~.jobs.check_backend`).  A refused submission leaves no
        record, queue entry or event behind."""
        if self._closed:
            raise RuntimeError("service is closed")
        for key in overrides:
            if key not in TICKET_FIELDS:
                raise TypeError(f"unknown JobSpec field {key!r}")
        check_backend(overrides.get("backend", "serial"))
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
        self.obs.job_submitted(record, queued, self.queue.vtime)
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
        """Sleep ``timeout`` seconds, or less if a result lands (``True``)."""
        return self._wake.wait(timeout)

    def _collect(self) -> int:
        transitions = 0
        self._wake.clear()  # before the scan: a result landing now re-sets it
        while self._landed:
            # landed, not yet ``ready()``: ``get`` waits out the instant between
            record, queued, async_result = self._running.pop(self._landed.popleft())
            self.queue.release(queued)
            record.finished_at = time.time()
            snapshot = None
            try:
                result = async_result.get()
            except Exception as exc:  # noqa: BLE001 - pool-level failure
                record.status = FAILED
                record.error = f"{type(exc).__name__}: {exc}"
            else:
                # the registry snapshot feeds the service obs plane; it
                # never lands in the record (state.json stays lean)
                snapshot = result.pop("obs", None)
                record.result = result
                if result.get("ok"):
                    record.status = DONE
                else:
                    record.status = FAILED
                    record.error = result.get("error")
            self.obs.job_finished(record, snapshot)
            transitions += 1
        return transitions

    def _admit(self) -> int:
        transitions = 0
        pool = None
        while self.queue.free_slots and self.queue.backlog:
            # snapshot the SFQ candidates *before* the pop: the fairness
            # auditor re-checks the min-finish-tag discipline against them
            heads = self.queue.pending_heads()
            queued = self.queue.next_job()
            if queued is None:  # pragma: no cover - guarded by the while
                break
            pool = pool or self._ensure_pool()
            record: JobRecord = queued.payload
            record.status = RUNNING
            record.started_at = time.time()
            self.obs.job_admitted(
                record, queued, heads, self.queue.weights(), self.queue.vtime
            )

            def land(_, job_id=record.job_id):  # in the pool's result thread
                self._landed.append(job_id)
                self._wake.set()

            args = (record.spec.as_dict(),)
            result = pool.apply_async(run_job, args, callback=land, error_callback=land)
            self._running[record.job_id] = (record, queued, result)
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
            "slots": self.queue.slots,
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
        with _atomic_text(os.path.join(self.spool, "state.json")) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        self.obs.export(self.spool)
        self._dirty = False
