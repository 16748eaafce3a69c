"""Service-wide observability plane (PR10).

Job-level observability (:mod:`repro.obs`) is born and dies inside one
worker process; this module lifts it to the *service* altitude.  Each
worker ships its finished job's counters as one total per
trace-reconstructible family (:func:`job_view_totals` over
:data:`JOB_VIEW_FAMILIES` — the profile-category seconds among them) and
its cache/store counters back to the dispatcher, which folds them into
one long-lived
:class:`~repro.obs.registry.MetricsRegistry` labeled with the service
dimensions ``{tenant, workload, status, policy}`` — plus service-native
series: exact (nearest-rank, as the benchmarks report) queue-wait
and end-to-end latency histograms, worker-slot gauges, per-state job
gauges and tenant-labeled shared-cache counters.

On top of the registry sit two auditors, ordinary
:mod:`repro.live.watchdogs` watchdogs fed every logged event (alerts
counted under ``service_alerts{policy=...}``):

* :class:`FairnessAuditor` — checks every admission against the fair
  queue's own virtual-clock tags (SFQ admits the minimum finish tag, so
  an admission whose finish tag exceeds a backlogged tenant's head tag
  by more than one job granule means that tenant was bypassed) and
  accumulates achieved vs entitled weighted service share per tenant;
* :class:`SLOTracker` — per-tenant latency/error objectives with
  sliding-window burn-rate alerts and attainment reporting.

**Replay parity** is the keystone invariant, mirroring the PR2
trace→metrics bridge: every job transition is appended to
``<spool>/service_events.ndjson`` as one
:class:`~repro.trace.events.TraceEvent` line (wall-clock ``t``; kinds and
fields in :data:`SERVICE_EVENT_SCHEMA`, checked by ``check_event`` before
anything is written) with all derived scalars (queue wait, latency, cache
counters) *logged once*, and :func:`replay_service_registry` rebuilds the
whole service registry from that log (read with ``read_events``) plus the
per-job NDJSON streams (bridged through
:func:`~repro.obs.bridge.registry_from_trace`) such that
``diff_registries(live, replayed, SERVICE_CONSISTENCY_VIEWS) == []``.
Live and replay share one code path (:meth:`ServiceObs.apply`, a
``{kind: arm}`` table like :class:`~repro.obs.bridge.TraceFold`) and one
reduction of a job's registry (:func:`job_view_totals`), so the
invariant holds by construction for the log-derived series and by the
PR2 bridge guarantee for the job-view families.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..cache.store import CacheStats, atomic_text
from ..live.watchdogs import Watchdog
from ..obs.bridge import CONSISTENCY_VIEWS, diff_registries, registry_from_trace
from ..obs.export import prometheus_text, registry_json
from ..obs.registry import MetricsRegistry
from ..trace.events import Trace, TraceEvent, check_event, read_events

__all__ = [
    "JOB_VIEW_FAMILIES",
    "SERVICE_CONSISTENCY_VIEWS",
    "SERVICE_EVENT_SCHEMA",
    "SERVICE_LABEL_NAMES",
    "FairnessAuditor",
    "SLOTracker",
    "ServiceObs",
    "job_view_totals",
    "replay_service_registry",
    "service_registry_diff",
]

#: the service-plane label dimensions, in canonical order
SERVICE_LABEL_NAMES: Tuple[str, ...] = ("tenant", "workload", "status", "policy", "kind")

#: job-registry counter families the dispatcher folds into the service
#: registry (collapsed onto ``{tenant, workload}``) — exactly the
#: trace-reconstructible families of the PR2 bridge, so a replay from the
#: per-job NDJSON streams rebuilds identical totals
JOB_VIEW_FAMILIES: Tuple[str, ...] = tuple(
    sorted({name for name, _ in CONSISTENCY_VIEWS})
)

#: the CacheStats fields a ``done`` event carries: those with no
#: ``cache_<field>`` twin among the job-view families, which already count
#: the job's hits, misses, admissions, invalidations and savings once
CACHE_COUNTER_KEYS: Tuple[str, ...] = tuple(
    f.name
    for f in dataclasses.fields(CacheStats)
    if f"cache_{f.name}" not in JOB_VIEW_FAMILIES
)

#: store-level counters the shared store exports (obs_counters hook)
STORE_COUNTER_KEYS: Tuple[str, ...] = ("quota_evictions", "corrupt_entries", "tmps_swept")

_JOB = ("job", "tenant", "workload")

#: kind -> exact field set of a service log event's ``data``, checked by
#: :func:`~repro.trace.events.check_event` on emit and on replay.  A
#: finished job's ``cache`` / ``store`` hold only its nonzero
#: :data:`CACHE_COUNTER_KEYS` / store counters;
#: its stream is always ``<spool>/streams/<job>.ndjson``.
SERVICE_EVENT_SCHEMA: Dict[str, frozenset] = {
    "config": frozenset({"slots", "weights", "slos"}),
    "submitted": frozenset({*_JOB, "cost", "start_tag", "finish_tag", "vtime"}),
    "running": frozenset(
        {*_JOB, "queue_wait", "cost", "finish_tag", "vtime", "heads", "weights"}
    ),
    "retried": frozenset({*_JOB, "attempt", "exitcode"}),
    "done": frozenset({*_JOB, "latency", "busy_seconds", "violations", "cache", "store"}),
}
SERVICE_EVENT_SCHEMA["failed"] = SERVICE_EVENT_SCHEMA["done"]

#: (instrument, label dims) pairs on which a replayed service registry
#: must equal the live one (the service-plane CONSISTENCY_VIEWS)
SERVICE_CONSISTENCY_VIEWS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        ("service_jobs", ("tenant", "workload", "status")),
        ("service_jobs_state", ("status",)),
        ("service_slots_total", ()),
        ("service_slots_busy", ()),
        ("service_slots_busy_peak", ()),
        ("service_busy_slot_seconds", ("tenant", "workload")),
        ("service_queue_wait_seconds", ("tenant", "workload")),
        ("service_latency_seconds", ("tenant", "workload")),
        ("service_alerts", ("tenant", "policy")),
        ("service_recoveries", ("kind",)),
    )
    + tuple(
        (f"service_cache_{key}", ("tenant", "workload"))
        for key in CACHE_COUNTER_KEYS
    )
    + tuple((f"service_store_{key}", ("tenant",)) for key in STORE_COUNTER_KEYS)
    + tuple((name, ("tenant", "workload")) for name in JOB_VIEW_FAMILIES)
)


def job_view_totals(registry: MetricsRegistry) -> Dict[str, float]:
    """One job's counters as the service keeps them: ``{family: Σ cells}``
    for each of :data:`JOB_VIEW_FAMILIES` the registry has, its cells
    summed in sorted label order.

    The service collapses a job's cells onto ``{tenant, workload}``, so
    one total per family is all it needs: a worker ships these over the
    pipe, and replay derives them the same way from the job's stream, so
    live and replay do the same additions.
    """
    totals: Dict[str, float] = {}
    for name in JOB_VIEW_FAMILIES:
        if registry.kind_of(name) is not None:
            cells = registry.cells(name)
            total = 0.0
            for labels in sorted(cells):
                total += cells[labels]
            totals[name] = total
    return totals


# ------------------------------------------------------------- auditors
class FairnessAuditor(Watchdog):
    """Achieved vs entitled weighted service share, from the SFQ tags.

    Fed every service event; it audits the ``running`` ones, each carrying
    the queue's state *at the moment of admission*: the admitted job's
    virtual finish tag, every backlogged tenant's head tag and cost, and
    the tenant weights.  Two checks:

    * **bypass** — SFQ admits the minimum finish tag among backlogged
      heads, so ``admitted.finish_tag > head_tag(U) + granule(U)``
      (granule = the head's own ``cost / weight``) means tenant ``U``
      was skipped past, which a correct fair queue never does.  Latched
      per tenant: an injected starvation raises exactly one alert.
    * **share drift** — per tenant, admitted cost (*achieved*) vs the
      weight-proportional slice of all cost admitted while the tenant
      was backlogged (*entitled*).  SFQ's pairwise lag bound compounds
      across competitors: the legitimate gap for tenant ``U`` can reach
      ``granule(U) + max granule`` among the backlogged tenants, so the
      alert threshold is ``slack × (granule(U) + max granule)`` —
      transients stay silent (two equal tenants drift under one
      granule) while a rigged queue's drift grows without bound and
      cannot hide.

    Clean runs raise nothing (asserted by CI's service-obs smoke job).
    """

    kind = "fairness"
    counter_name = "service_alerts"

    #: share-drift alert threshold, in units of the legitimate SFQ lag
    slack = 2.0

    def __init__(self, registry=None):
        super().__init__(registry)
        self.achieved: Dict[str, float] = {}
        self.entitled: Dict[str, float] = {}
        #: total cost admitted while the tenant was backlogged
        self.window_cost: Dict[str, float] = {}
        #: largest single job granule (cost/weight) seen per tenant window
        self.granule: Dict[str, float] = {}
        #: largest granule across *all* audited tenants (the pairwise
        #: SFQ lag bounds compound up to granule(U) + this)
        self.max_granule: float = 0.0
        self._latched: set = set()

    def on_event(self, event: TraceEvent) -> None:
        """Audit one admission (a ``running`` event); other kinds pass."""
        if event.kind != "running" or not event.data["heads"]:
            return
        data = event.data
        tenant, cost, finish_tag = data["tenant"], data["cost"], data["finish_tag"]
        weights, heads = data["weights"], data["heads"]
        total_weight = sum(weights[u] for u in heads)
        for name in sorted(heads):
            weight = weights[name]
            self.window_cost[name] = self.window_cost.get(name, 0.0) + cost
            self.entitled[name] = (
                self.entitled.get(name, 0.0) + cost * weight / total_weight
            )
            self.granule[name] = max(
                self.granule.get(name, 0.0), cost / max(weight, 1e-12)
            )
            self.max_granule = max(self.max_granule, self.granule[name])
        self.achieved[tenant] = self.achieved.get(tenant, 0.0) + cost
        for name in sorted(heads):
            if name == tenant or name in self._latched:
                continue
            head_tag, head_cost = heads[name]
            head_granule = head_cost / max(weights[name], 1e-12)
            if finish_tag > head_tag + head_granule + 1e-9:
                self._latched.add(name)
                self._raise(
                    event.t,
                    name,
                    f"bypassed: admitted tag {finish_tag:.6f} exceeds "
                    f"{name}'s head tag {head_tag:.6f} by more than one "
                    f"granule ({head_granule:.6f})",
                    {"finish_tag": finish_tag, "head_tag": head_tag,
                     "granule": head_granule},
                    tenant=name,
                )
        for name in sorted(heads):
            if name in self._latched:
                continue
            gap = abs(
                self.achieved.get(name, 0.0) - self.entitled.get(name, 0.0)
            )
            bound = self.slack * (self.granule.get(name, 0.0) + self.max_granule)
            if bound and gap > bound + 1e-9:
                self._latched.add(name)
                self._raise(
                    event.t,
                    name,
                    f"share drift: achieved {self.achieved.get(name, 0.0):.3f} "
                    f"vs entitled {self.entitled.get(name, 0.0):.3f} cost "
                    f"(bound {bound:.3f})",
                    {"achieved": self.achieved.get(name, 0.0),
                     "entitled": self.entitled.get(name, 0.0), "bound": bound},
                    tenant=name,
                )

    def shares(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant achieved/entitled cost and share over the tenant's
        backlogged windows (empty before any audited admission)."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.window_cost):
            window = self.window_cost[name]
            achieved = self.achieved.get(name, 0.0)
            entitled = self.entitled.get(name, 0.0)
            out[name] = {
                "achieved_cost": achieved,
                "entitled_cost": entitled,
                "achieved_share": achieved / window if window else 0.0,
                "entitled_share": entitled / window if window else 0.0,
                "granule": self.granule.get(name, 0.0),
                "window_cost": window,
            }
        return out


#: finished jobs per tenant the SLO burn rate is measured over
SLO_WINDOW = 20
#: burn rate (bad fraction / error budget) at which an SLO alert fires
SLO_BURN_THRESHOLD = 2.0


class SLOTracker(Watchdog):
    """Per-tenant latency/error-rate objectives with burn-rate alerts.

    An objective is ``{"latency_s": float | None, "target": float}``: a
    finished job is *good* when it succeeded and (if a latency objective
    is set) finished within ``latency_s`` wall seconds; the tenant's SLO
    is met when the good fraction stays >= ``target``.  Burn rate is the
    classic ratio: the bad fraction over the last :data:`SLO_WINDOW`
    finished jobs divided by the error budget ``1 - target``; crossing
    :data:`SLO_BURN_THRESHOLD` raises one alert per excursion (re-armed
    when the window recovers).  Objectives come from the service config — exact
    tenant name first, the ``"*"`` wildcard as fallback; tenants with no
    objective are not tracked.
    """

    kind = "slo"
    counter_name = "service_alerts"

    def __init__(self, registry=None, slos: Optional[Dict[str, Dict[str, Any]]] = None):
        super().__init__(registry)
        self.slos = {k: dict(v) for k, v in (slos or {}).items()}
        self._recent: Dict[str, Deque[bool]] = {}
        self._good: Dict[str, int] = {}
        self._total: Dict[str, int] = {}
        self._armed: Dict[str, bool] = {}

    def slo_for(self, tenant: str) -> Optional[Dict[str, Any]]:
        return self.slos.get(tenant) or self.slos.get("*")

    def on_event(self, event: TraceEvent) -> None:
        """Score one finished job (a ``done``/``failed`` event); other kinds pass."""
        if event.kind not in ("done", "failed"):
            return
        tenant = event.data["tenant"]
        slo = self.slo_for(tenant)
        if slo is None:
            return
        latency_obj = slo.get("latency_s")
        good = event.kind == "done"
        if good and latency_obj is not None:
            good = event.data["latency"] <= latency_obj
        recent = self._recent.setdefault(tenant, deque(maxlen=SLO_WINDOW))
        recent.append(good)
        self._total[tenant] = self._total.get(tenant, 0) + 1
        self._good[tenant] = self._good.get(tenant, 0) + (1 if good else 0)
        target = float(slo.get("target", 0.95))
        budget = max(1e-9, 1.0 - target)
        bad_rate = (len(recent) - sum(recent)) / len(recent)
        burn = bad_rate / budget
        if burn >= SLO_BURN_THRESHOLD:
            if self._armed.get(tenant, True):
                self._armed[tenant] = False
                self._raise(
                    event.t,
                    tenant,
                    f"error budget burning {burn:.1f}x sustainable "
                    f"({bad_rate:.2f} bad over last {len(recent)} jobs, "
                    f"target {target})",
                    {"burn_rate": burn, "bad_rate": bad_rate, "target": target},
                    tenant=tenant,
                )
        else:
            self._armed[tenant] = True

    def attainment(self) -> Dict[str, Dict[str, Any]]:
        """Per-tracked-tenant SLO attainment over all finished jobs."""
        out: Dict[str, Dict[str, Any]] = {}
        for tenant in sorted(self._total):
            slo = self.slo_for(tenant) or {}
            total = self._total[tenant]
            good = self._good.get(tenant, 0)
            recent = self._recent.get(tenant, deque())
            target = float(slo.get("target", 0.95))
            budget = max(1e-9, 1.0 - target)
            bad_rate = (
                (len(recent) - sum(recent)) / len(recent) if recent else 0.0
            )
            out[tenant] = {
                "target": target,
                "latency_s": slo.get("latency_s"),
                "jobs": total,
                "attained": good / total if total else 1.0,
                "met": (good / total if total else 1.0) >= target,
                "burn_rate": bad_rate / budget,
            }
        return out


# ---------------------------------------------------------- service obs
class ServiceObs:
    """The dispatcher-side observability plane of one :class:`JobService`.

    Owns the service registry, the fairness/SLO auditors and the
    ``service_events.ndjson`` append log.  The service calls :meth:`emit`
    (check the event, append it to the log, then :meth:`apply` it);
    :func:`replay_service_registry` calls :meth:`apply` on the logged
    events directly — one code path, so live and replayed registries
    agree by construction.  The log is created, never reopened: a spool
    holds one service's log.
    """

    def __init__(
        self,
        events_path: Optional[str] = None,
        slots: Optional[int] = None,
        weights: Optional[Dict[str, float]] = None,
        slos: Optional[Dict[str, Dict[str, Any]]] = None,
    ):
        self.events_path = events_path
        self.registry = MetricsRegistry(label_names=SERVICE_LABEL_NAMES)
        self.fairness = FairnessAuditor(registry=self.registry)
        self.slo = SLOTracker(registry=self.registry, slos=slos)
        self._seq = 0
        # one log, one handle per service lifetime; line-buffered (1), so an
        # event is on disk before ``apply`` folds it and replay works mid-run
        self._log = None if events_path is None else open(events_path, "x", 1)
        self.emit(
            "config",
            time.time(),
            slots=slots,
            weights=dict(sorted((weights or {}).items())),
            slos={k: dict(v) for k, v in sorted((slos or {}).items())},
        )

    # ------------------------------------------------------------ alerts
    @property
    def alerts(self) -> List[Any]:
        return list(self.fairness.alerts) + list(self.slo.alerts)

    # ------------------------------------------------------- event intake
    def emit(self, kind: str, t: float, **data: Any) -> TraceEvent:
        """Check one event against :data:`SERVICE_EVENT_SCHEMA`, append it
        to the log, then fold it into the registry; a malformed event
        raises before either."""
        check_event(SERVICE_EVENT_SCHEMA, kind, data)
        event = TraceEvent(self._seq, t, kind, data)
        self._seq += 1
        if self._log is not None:
            self._log.write(event.to_json() + "\n")
        self.apply(event)
        return event

    def close(self) -> None:
        """Close the event log; nothing may be emitted afterwards."""
        if self._log is not None:
            self._log.close()

    def apply(self, event: TraceEvent) -> None:
        """Fold one service event into the registry and the auditors (live
        *and* replay): its kind's arm, ``_on_<kind>``, then each auditor."""
        _ARMS[event.kind](self, event)
        self.fairness(event)
        self.slo(event)

    def add_job_totals(self, event: TraceEvent, totals: Dict[str, float]) -> None:
        """Add a ``done`` job's :func:`job_view_totals` onto its
        ``{tenant, workload}`` cells."""
        tenant, workload = event.data["tenant"], event.data["workload"]
        for name, total in totals.items():
            self.registry.counter(name, tenant=tenant, workload=workload).inc(total)

    def _on_config(self, event: TraceEvent) -> None:
        # auditors are configured at construction (live and replay both
        # build their trackers from the same config values); the event
        # only carries registry-visible state
        if event.data["slots"]:
            self.registry.gauge("service_slots_total").set(event.data["slots"])

    def _on_submitted(self, event: TraceEvent) -> None:
        data, reg = event.data, self.registry
        reg.counter(
            "service_jobs", tenant=data["tenant"], workload=data["workload"],
            status="queued",
        ).inc()
        reg.gauge("service_jobs_state", status="queued").inc()

    def _on_running(self, event: TraceEvent) -> None:
        data, reg = event.data, self.registry
        tenant, workload = data["tenant"], data["workload"]
        reg.counter(
            "service_jobs", tenant=tenant, workload=workload, status="running"
        ).inc()
        reg.gauge("service_jobs_state", status="queued").dec()
        reg.gauge("service_jobs_state", status="running").inc()
        busy = reg.gauge("service_slots_busy")
        busy.inc()
        reg.gauge("service_slots_busy_peak").set_max(busy.value)
        reg.histogram(
            "service_queue_wait_seconds", exact=True, tenant=tenant, workload=workload
        ).observe(data["queue_wait"])

    def _on_retried(self, event: TraceEvent) -> None:
        # its worker died; it is queued again
        reg = self.registry
        reg.gauge("service_jobs_state", status="running").dec()
        reg.gauge("service_jobs_state", status="queued").inc()
        reg.gauge("service_slots_busy").dec()
        reg.counter("service_recoveries", kind="worker_died").inc()

    def _on_done(self, event: TraceEvent) -> None:
        data, reg, status = event.data, self.registry, event.kind
        tenant, workload = data["tenant"], data["workload"]
        reg.counter(
            "service_jobs", tenant=tenant, workload=workload, status=status
        ).inc()
        reg.gauge("service_jobs_state", status="running").dec()
        reg.gauge("service_jobs_state", status=status).inc()
        reg.gauge("service_slots_busy").dec()
        reg.histogram(
            "service_latency_seconds", exact=True, tenant=tenant, workload=workload
        ).observe(data["latency"])
        reg.counter(
            "service_busy_slot_seconds", tenant=tenant, workload=workload
        ).inc(data["busy_seconds"])
        for key, value in sorted(data["cache"].items()):
            reg.counter(f"service_cache_{key}", tenant=tenant, workload=workload).inc(value)
        for key, value in sorted(data["store"].items()):
            reg.counter(f"service_store_{key}", tenant=tenant).inc(value)

    _on_failed = _on_done

    # ------------------------------------------------------------ export
    def export(self, directory: str) -> None:
        """Write ``metrics.prom`` and ``metrics.json`` (atomic replace)."""
        for name, text in (
            ("metrics.prom", prometheus_text(self.registry)),
            ("metrics.json", registry_json(self.registry)),
        ):
            with atomic_text(os.path.join(directory, name)) as fh:
                fh.write(text if text.endswith("\n") else text + "\n")

    def summary(self) -> Dict[str, Any]:
        """The JSON-ready obs block embedded in ``state.json``."""
        return {
            "fairness": self.fairness.shares(),
            "slo": self.slo.attainment(),
            "alerts": [
                {
                    "kind": a.kind,
                    "t": a.t,
                    "subject": a.subject,
                    "message": a.message,
                }
                for a in self.alerts
            ],
        }


#: kind -> its arm in :meth:`ServiceObs.apply`, the ``TraceFold`` pattern
_ARMS: Dict[str, Callable[[ServiceObs, TraceEvent], None]] = {
    kind: getattr(ServiceObs, f"_on_{kind}") for kind in SERVICE_EVENT_SCHEMA
}


# ------------------------------------------------------------- replay
def replay_service_registry(spool: str) -> ServiceObs:
    """Rebuild the service registry from the event log + job streams.

    Reads ``<spool>/service_events.ndjson`` with
    :func:`~repro.trace.events.read_events`, checks every event against
    :data:`SERVICE_EVENT_SCHEMA` and applies it through the same
    :meth:`ServiceObs.apply` path the live service used; a ``done`` job's
    totals are re-derived from its stream, ``<spool>/streams/<job>.ndjson``,
    through the PR2 trace→metrics bridge and :func:`job_view_totals` — a
    cross-check of the worker's fold against its stream.  The returned
    plane's registry must satisfy ``service_registry_diff(live, replayed)
    == []``.

    Text after the last newline never took effect — a killed dispatcher
    leaves a torn tail — and is skipped; an undecodable line before it is
    corruption and raises with its line number.
    """
    path = os.path.join(spool, "service_events.ndjson")
    with open(path) as fh:
        complete, _, _ = fh.read().rpartition("\n")
    replayed: Optional[ServiceObs] = None
    for event in read_events(complete):
        check_event(SERVICE_EVENT_SCHEMA, event.kind, event.data)
        if event.kind == "config":
            replayed = ServiceObs(None, **event.data)
        elif replayed is None:
            raise ValueError(f"{path}: first event must be the config")
        else:
            replayed.apply(event)
            if event.kind == "done":
                stream = os.path.join(spool, "streams", f"{event.data['job']}.ndjson")
                totals = job_view_totals(registry_from_trace(Trace.load_jsonl(stream)))
                replayed.add_job_totals(event, totals)
    if replayed is None:
        raise ValueError(f"{path}: empty service event log")
    return replayed


def service_registry_diff(live: ServiceObs, replayed: ServiceObs) -> List[str]:
    """``diff_registries`` over the service-plane consistency views."""
    return diff_registries(
        live.registry, replayed.registry, views=SERVICE_CONSISTENCY_VIEWS
    )
