"""Weighted fair-share admission queue (start-time fair queuing).

The k-parallel co-scheduler baseline (:mod:`repro.baselines.parallel`)
models the paper's §6.1 deployments as *waves* of k co-scheduled jobs —
fairness by construction, but only between jobs that happen to arrive
together.  The service generalises that into a real admission queue:
jobs arrive continuously from many tenants, at most ``slots`` run at
once (the wave width k, now a sliding window), and *which* queued job is
admitted next is decided by **start-time fair queuing** (SFQ):

* each tenant has a weight ``w`` (its fair share of the service);
* a job arriving for tenant ``T`` is tagged with a virtual start time
  ``S = max(V, F_T)`` and virtual finish time ``F = S + cost / w``,
  where ``V`` is the queue's virtual clock (the start tag of the last
  admitted job) and ``F_T`` the finish tag of ``T``'s previous arrival;
* the next admitted job is the queued job with the minimum finish tag
  (ties broken by tenant name, then FIFO within a tenant).

This gives the classic guarantees: work conservation (a slot never idles
while work is queued), no starvation (every finish tag is eventually the
minimum — ``V`` advances past any stalled tag), per-tenant FIFO order,
and long-run admission shares proportional to weights when every tenant
keeps a backlog.  ``cost`` is a relative size hint (any positive unit —
estimated simulated seconds work well); with uniform costs, admissions
converge to weighted round-robin.

The queue is deterministic and single-threaded on purpose — the service
pumps it from one dispatcher loop; no internal locking is needed.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

__all__ = ["FairShareQueue", "QueuedJob", "TenantState"]


@dataclass
class QueuedJob:
    """One admission-queue entry (the payload is opaque to the queue)."""

    tenant: str
    payload: object
    cost: float
    #: SFQ virtual tags, assigned at enqueue
    start_tag: float = 0.0
    finish_tag: float = 0.0
    #: arrival sequence number (global FIFO tiebreak)
    seq: int = 0


@dataclass
class TenantState:
    """Per-tenant fair-share bookkeeping."""

    name: str
    weight: float = 1.0
    #: finish tag of the tenant's most recent arrival (SFQ back-pointer)
    last_finish: float = 0.0
    queued: Deque[QueuedJob] = field(default_factory=deque)
    submitted: int = 0
    admitted: int = 0
    completed: int = 0

    @property
    def backlog(self) -> int:
        return len(self.queued)


class FairShareQueue:
    """SFQ admission across tenants with a bounded concurrency window."""

    def __init__(self, slots: int = 2):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = int(slots)
        self.busy = 0
        self._tenants: Dict[str, TenantState] = {}
        self._vtime = 0.0
        self._seq = itertools.count()

    # ------------------------------------------------------------- tenants
    def register(self, tenant: str, weight: float = 1.0) -> TenantState:
        """Register a tenant (idempotent; re-registering updates weight)."""
        if weight <= 0:
            raise ValueError(f"tenant weight must be > 0, got {weight}")
        state = self._tenants.get(tenant)
        if state is None:
            state = TenantState(name=tenant, weight=float(weight))
            self._tenants[tenant] = state
        else:
            state.weight = float(weight)
        return state

    def tenant(self, name: str) -> TenantState:
        return self._tenants[name]

    @property
    def tenants(self) -> List[TenantState]:
        return [self._tenants[name] for name in sorted(self._tenants)]

    # -------------------------------------------------------------- queue
    def put(self, tenant: str, payload: object, cost: float = 1.0) -> QueuedJob:
        """Enqueue a job for a tenant, assigning its SFQ tags."""
        if cost <= 0:
            raise ValueError(f"job cost must be > 0, got {cost}")
        state = self._tenants.get(tenant) or self.register(tenant)
        job = QueuedJob(tenant=tenant, payload=payload, cost=float(cost))
        job.start_tag = max(self._vtime, state.last_finish)
        job.finish_tag = job.start_tag + job.cost / state.weight
        job.seq = next(self._seq)
        state.last_finish = job.finish_tag
        state.queued.append(job)
        state.submitted += 1
        return job

    @property
    def backlog(self) -> int:
        return sum(len(s.queued) for s in self._tenants.values())

    @property
    def free_slots(self) -> int:
        return max(0, self.slots - self.busy)

    def next_job(self) -> Optional[QueuedJob]:
        """Admit the fairest queued job, or ``None`` (no work / no slot).

        Consumes a slot; pair every successful call with :meth:`release`.
        Only tenant *heads* compete (per-tenant FIFO), and among heads
        the minimum finish tag wins — a tenant with twice the weight
        accumulates finish tags half as fast and is admitted twice as
        often under backlog.
        """
        if self.busy >= self.slots:
            return None
        best: Optional[QueuedJob] = None
        best_state: Optional[TenantState] = None
        for name in sorted(self._tenants):
            state = self._tenants[name]
            if not state.queued:
                continue
            head = state.queued[0]
            if best is None or (head.finish_tag, head.seq) < (
                best.finish_tag,
                best.seq,
            ):
                best, best_state = head, state
        if best is None or best_state is None:
            return None
        best_state.queued.popleft()
        best_state.admitted += 1
        self._vtime = max(self._vtime, best.start_tag)
        self.busy += 1
        return best

    def release(self, job: QueuedJob) -> None:
        """Return the slot an admitted job held (call on completion)."""
        if self.busy <= 0:
            raise RuntimeError("release() without a matching next_job()")
        self.busy -= 1
        state = self._tenants.get(job.tenant)
        if state is not None:
            state.completed += 1

    def requeue(self, job: QueuedJob) -> None:
        """Undo :meth:`next_job` for a job whose run was lost: its slot is
        free, and it heads its tenant's queue again with its original tags."""
        self.busy -= 1
        state = self._tenants[job.tenant]
        state.queued.appendleft(job)
        state.admitted -= 1

    # ------------------------------------------------------------- audit
    @property
    def vtime(self) -> float:
        """The SFQ virtual clock (start tag of the last admitted job)."""
        return self._vtime

    def weights(self) -> Dict[str, float]:
        return {name: self._tenants[name].weight for name in sorted(self._tenants)}

    def pending_heads(self) -> Dict[str, Tuple[float, float]]:
        """``{tenant: (head finish tag, head cost)}`` for backlogged tenants.

        A snapshot of exactly the candidates the next :meth:`next_job`
        call will choose among — the fairness auditor records it at each
        admission to check the min-finish-tag discipline after the fact.
        """
        return {
            name: (state.queued[0].finish_tag, state.queued[0].cost)
            for name, state in sorted(self._tenants.items())
            if state.queued
        }

    def admission_shares(self) -> Dict[str, float]:
        """Fraction of admissions per tenant (empty dict before any)."""
        total = sum(s.admitted for s in self._tenants.values())
        if total == 0:
            return {}
        return {
            name: self._tenants[name].admitted / total
            for name in sorted(self._tenants)
        }
