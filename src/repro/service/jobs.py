"""Job submissions and lifecycle records for the multi-tenant service.

A :class:`JobSpec` is everything a worker process needs to execute one
MDF job — it must stay **picklable and JSON-serialisable** (specs cross
the process boundary to a worker process and land in the spool's
``state.json`` for the CLI), so jobs reference workloads by *zoo name*
(:data:`repro.lab.workloads.WORKLOADS`) rather than carrying MDF objects
(whose operators are closures).

A :class:`JobRecord` is the service-side lifecycle of one submission:
queued → running → done/failed, with real (wall-clock) timestamps from
which submission-to-completion latency is derived.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "JobRecord",
    "JobSpec",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass
class JobSpec:
    """One tenant's submission: which workload to run, and how."""

    job_id: str
    tenant: str
    #: lab-zoo workload name (the MDF factory lives in the registry)
    workload: str
    scheduler: str = "bas"
    memory: str = "amm"
    backend: str = "serial"
    #: shared cross-tenant store directory (None = per-job cache off)
    cache_dir: Optional[str] = None
    #: per-tenant byte quota applied by the shared store (None = unbounded)
    quota_bytes: Optional[int] = None
    #: NDJSON path the job streams its live trace to (None = no stream)
    stream_path: Optional[str] = None
    #: run the seven paper-invariant validators over the recorded trace
    #: and report (not raise) the violation count
    validate: bool = True
    #: relative cost hint for fair-share admission (any positive unit)
    cost: float = 1.0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "JobSpec":
        """Unknown keys are ignored, so a ticket written for an older spec
        (one that still had fields this one retired) loads."""
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in raw.items() if k in known})


@dataclass
class JobRecord:
    """Service-side lifecycle of one submission."""

    spec: JobSpec
    status: str = QUEUED
    #: wall-clock (``time.time``) transition stamps
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: the worker's result payload (see ``repro.service.worker.run_job``)
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def latency(self) -> Optional[float]:
        """Submission-to-completion real seconds (None while in flight)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def queue_wait(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def as_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.as_dict(),
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "latency": self.latency,
            "queue_wait": self.queue_wait,
            "result": self.result,
            "error": self.error,
        }
