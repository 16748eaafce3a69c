"""Multi-tenant concurrent MDF job service (PR9).

The paper's story is a *single* exploratory job run well; this package
is what serving **many** of them looks like: a long-lived service that
accepts MDF submissions from many tenants, admits them through a
weighted fair-share queue (start-time fair queuing — the k-parallel
co-scheduler's waves generalised to a sliding window,
:mod:`repro.service.queue`), runs them concurrently in supervised worker
processes (:mod:`repro.service.service`), and shares one cross-tenant
:class:`~repro.cache.SharedCacheStore` so any tenant's exploration warms
every other tenant's cache — with single-flight deduplication, per-tenant
byte quotas, and tenant-labelled hit/miss observability.

Per-job determinism is the load-bearing invariant: concurrency and cache
sharing change *real time only*; every job's sink outputs stay
byte-identical to a solo run and its trace passes all seven paper
validators.  ``python benchmarks/wall/run.py`` (``service_paced``,
``service_burst``) measures throughput, latency and cross-tenant hits;
``python -m repro.service`` is the spool-directory CLI
(serve/submit/status/follow).  See ``docs/service.md``.
"""

from .jobs import DONE, FAILED, QUEUED, RUNNING, JobRecord, JobSpec
from .obs import (
    SERVICE_CONSISTENCY_VIEWS,
    SERVICE_LABEL_NAMES,
    FairnessAuditor,
    SLOTracker,
    ServiceObs,
    replay_service_registry,
    service_registry_diff,
)
from .queue import FairShareQueue, QueuedJob, TenantState
from .service import JobService
from .worker import outputs_digest, run_job

__all__ = [
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "SERVICE_CONSISTENCY_VIEWS",
    "SERVICE_LABEL_NAMES",
    "FairShareQueue",
    "FairnessAuditor",
    "JobRecord",
    "JobService",
    "JobSpec",
    "QueuedJob",
    "SLOTracker",
    "ServiceObs",
    "TenantState",
    "outputs_digest",
    "replay_service_registry",
    "run_job",
    "service_registry_diff",
]
