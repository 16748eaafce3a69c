"""Service-wide observability plane (PR10).

Job-level observability (:mod:`repro.obs`) is born and dies inside one
worker process; this module lifts it to the *service* altitude.  Each
worker ships its finished job's registry snapshot (restricted to the
trace-reconstructible counter families, :data:`JOB_VIEW_FAMILIES` —
the profile-category seconds among them) and cache/store counters back
to the dispatcher, which folds them into one long-lived
:class:`~repro.obs.registry.MetricsRegistry` labeled with the service
dimensions ``{tenant, workload, status, policy}`` — plus service-native
series: exact (nearest-rank, as the benchmarks report) queue-wait
and end-to-end latency histograms, worker-slot gauges, per-state job
gauges and tenant-labeled shared-cache counters.

On top of the registry sit two auditors reusing the
:mod:`repro.live.watchdogs` alert machinery (counted under
``service_alerts{policy=...}``):

* :class:`FairnessAuditor` — checks every admission against the fair
  queue's own virtual-clock tags (SFQ admits the minimum finish tag, so
  an admission whose finish tag exceeds a backlogged tenant's head tag
  by more than one job granule means that tenant was bypassed) and
  accumulates achieved vs entitled weighted service share per tenant;
* :class:`SLOTracker` — per-tenant latency/error objectives with
  sliding-window burn-rate alerts and attainment reporting.

**Replay parity** is the keystone invariant, mirroring the PR2
trace→metrics bridge: every job transition is appended to
``<spool>/service_events.ndjson`` with all derived scalars (queue wait,
latency, cache counters) *logged once*, and
:func:`replay_service_registry` rebuilds the whole service registry
from that log plus the per-job NDJSON streams (bridged through
:func:`~repro.obs.bridge.registry_from_trace`) such that
``diff_registries(live, replayed, SERVICE_CONSISTENCY_VIEWS) == []``.
Live and replay share one code path (:meth:`ServiceObs.apply`), so the
invariant holds by construction for the log-derived series and by the
PR2 bridge guarantee for the job-view families.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..cache.store import CacheStats
from ..live.watchdogs import Watchdog
from ..obs.bridge import CONSISTENCY_VIEWS, diff_registries, registry_from_trace
from ..obs.export import prometheus_text, registry_json
from ..obs.registry import MetricsRegistry

__all__ = [
    "JOB_VIEW_FAMILIES",
    "SERVICE_CONSISTENCY_VIEWS",
    "SERVICE_LABEL_NAMES",
    "FairnessAuditor",
    "SLOTracker",
    "ServiceObs",
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

#: cache counters a finished job reports (CacheStats field names)
CACHE_COUNTER_KEYS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(CacheStats)
)

#: store-level counters the shared store exports (obs_counters hook)
STORE_COUNTER_KEYS: Tuple[str, ...] = (
    "quota_evictions", "corrupt_entries", "tmps_swept",
)

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


@contextlib.contextmanager
def _atomic_text(path: str):
    """Open a text file that appears at ``path`` only when the block ends
    cleanly, so a concurrent reader sees the old or the new file, never a
    torn one (per-pid tmp + ``os.replace``) — the package's one text
    publish: tickets, ``state.json``, metric exports.  Callers stream into
    it, one buffer-sized write at a time."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# ------------------------------------------------------------- auditors
class FairnessAuditor(Watchdog):
    """Achieved vs entitled weighted service share, from the SFQ tags.

    Fed one record per admission (:meth:`on_admission`), carrying the
    queue's state *at the moment of admission*: the admitted job's
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

    def on_event(self, event) -> None:  # pragma: no cover - not trace-fed
        raise NotImplementedError("FairnessAuditor is fed admissions, not traces")

    def on_admission(self, event: Dict[str, Any]) -> None:
        """Audit one admission record (a ``running`` service event)."""
        tenant = event["tenant"]
        cost = float(event["cost"])
        finish_tag = float(event["finish_tag"])
        weights = {k: float(v) for k, v in event.get("weights", {}).items()}
        heads: Dict[str, Any] = event.get("heads") or {}
        if not heads:
            return
        total_weight = sum(weights.get(u, 1.0) for u in heads)
        for name in sorted(heads):
            weight = weights.get(name, 1.0)
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
            head_tag, head_cost = float(heads[name][0]), float(heads[name][1])
            head_granule = head_cost / max(weights.get(name, 1.0), 1e-12)
            if finish_tag > head_tag + head_granule + 1e-9:
                self._latched.add(name)
                self._raise(
                    float(event.get("t", 0.0)),
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
                    float(event.get("t", 0.0)),
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


class SLOTracker(Watchdog):
    """Per-tenant latency/error-rate objectives with burn-rate alerts.

    An objective is ``{"latency_s": float | None, "target": float}``: a
    finished job is *good* when it succeeded and (if a latency objective
    is set) finished within ``latency_s`` wall seconds; the tenant's SLO
    is met when the good fraction stays >= ``target``.  Burn rate is the
    classic ratio: the bad fraction over the last ``window`` finished
    jobs divided by the error budget ``1 - target``; crossing
    ``burn_threshold`` raises one alert per excursion (re-armed when the
    window recovers).  Objectives come from the service config — exact
    tenant name first, the ``"*"`` wildcard as fallback; tenants with no
    objective are not tracked.
    """

    kind = "slo"
    counter_name = "service_alerts"

    def __init__(
        self,
        registry=None,
        slos: Optional[Dict[str, Dict[str, Any]]] = None,
        window: int = 20,
        burn_threshold: float = 2.0,
    ):
        super().__init__(registry)
        self.slos = {k: dict(v) for k, v in (slos or {}).items()}
        self.window = max(1, int(window))
        self.burn_threshold = float(burn_threshold)
        self._recent: Dict[str, Deque[bool]] = {}
        self._good: Dict[str, int] = {}
        self._total: Dict[str, int] = {}
        self._armed: Dict[str, bool] = {}

    def on_event(self, event) -> None:  # pragma: no cover - not trace-fed
        raise NotImplementedError("SLOTracker is fed finished jobs, not traces")

    def slo_for(self, tenant: str) -> Optional[Dict[str, Any]]:
        return self.slos.get(tenant) or self.slos.get("*")

    def on_finished(self, event: Dict[str, Any]) -> None:
        """Score one finished job (a ``done``/``failed`` service event)."""
        tenant = event["tenant"]
        slo = self.slo_for(tenant)
        if slo is None:
            return
        latency_obj = slo.get("latency_s")
        good = bool(event.get("ok"))
        latency = event.get("latency")
        if good and latency_obj is not None and latency is not None:
            good = float(latency) <= float(latency_obj)
        recent = self._recent.setdefault(tenant, deque(maxlen=self.window))
        recent.append(good)
        self._total[tenant] = self._total.get(tenant, 0) + 1
        self._good[tenant] = self._good.get(tenant, 0) + (1 if good else 0)
        target = float(slo.get("target", 0.95))
        budget = max(1e-9, 1.0 - target)
        bad_rate = (len(recent) - sum(recent)) / len(recent)
        burn = bad_rate / budget
        if burn >= self.burn_threshold:
            if self._armed.get(tenant, True):
                self._armed[tenant] = False
                self._raise(
                    float(event.get("t", 0.0)),
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
    ``service_events.ndjson`` append log.  The service calls the
    ``job_*`` recorders (which build an event dict, append it to the
    log, then :meth:`apply` it); :func:`replay_service_registry` calls
    :meth:`apply` on the logged dicts directly — one code path, so live
    and replayed registries agree by construction.
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
        # one log, one handle per service lifetime; line-buffered (1), so an
        # event is on disk before ``apply`` folds it and replay works mid-run
        self._log = None if events_path is None else open(events_path, "w", 1)
        config = {
            "event": "config",
            "slots": slots,
            "weights": dict(sorted((weights or {}).items())),
            "slos": {k: dict(v) for k, v in sorted((slos or {}).items())},
        }
        self.record(config)

    # ------------------------------------------------------------ alerts
    @property
    def alerts(self) -> List[Any]:
        return list(self.fairness.alerts) + list(self.slo.alerts)

    # ------------------------------------------------------- event intake
    def record(self, event: Dict[str, Any], job_registry=None) -> None:
        """Append one event to the log, then fold it into the registry."""
        if self._log is not None:
            self._log.write(json.dumps(event, sort_keys=True) + "\n")
        self.apply(event, job_registry=job_registry)

    def close(self) -> None:
        """Close the event log; nothing may be recorded afterwards."""
        if self._log is not None:
            self._log.close()

    def apply(self, event: Dict[str, Any], job_registry=None) -> None:
        """Fold one service event into the registry (live *and* replay)."""
        kind = event["event"]
        reg = self.registry
        if kind == "config":
            # auditors are configured at construction (live and replay both
            # build their trackers from the same config values); the event
            # only carries registry-visible state
            if event.get("slots"):
                reg.gauge("service_slots_total").set(event["slots"])
            return
        tenant = event["tenant"]
        workload = event["workload"]
        if kind == "submitted":
            reg.counter(
                "service_jobs", tenant=tenant, workload=workload, status="queued"
            ).inc()
            reg.gauge("service_jobs_state", status="queued").inc()
        elif kind == "running":
            reg.counter(
                "service_jobs", tenant=tenant, workload=workload, status="running"
            ).inc()
            reg.gauge("service_jobs_state", status="queued").dec()
            reg.gauge("service_jobs_state", status="running").inc()
            busy = reg.gauge("service_slots_busy")
            busy.inc()
            reg.gauge("service_slots_busy_peak").set_max(busy.value)
            reg.histogram(
                "service_queue_wait_seconds",
                exact=True,
                tenant=tenant,
                workload=workload,
            ).observe(float(event["queue_wait"]))
            self.fairness.on_admission(event)
        elif kind == "retried":  # its worker died; it is queued again
            reg.gauge("service_jobs_state", status="running").dec()
            reg.gauge("service_jobs_state", status="queued").inc()
            reg.gauge("service_slots_busy").dec()
            reg.counter("service_recoveries", kind="worker_died").inc()
        elif kind in ("done", "failed"):
            reg.counter(
                "service_jobs", tenant=tenant, workload=workload, status=kind
            ).inc()
            reg.gauge("service_jobs_state", status="running").dec()
            reg.gauge("service_jobs_state", status=kind).inc()
            reg.gauge("service_slots_busy").dec()
            reg.histogram(
                "service_latency_seconds",
                exact=True,
                tenant=tenant,
                workload=workload,
            ).observe(float(event["latency"]))
            reg.counter(
                "service_busy_slot_seconds", tenant=tenant, workload=workload
            ).inc(float(event.get("busy_seconds", 0.0)))
            for key in CACHE_COUNTER_KEYS:
                value = (event.get("cache") or {}).get(key, 0)
                if value:
                    reg.counter(
                        f"service_cache_{key}", tenant=tenant, workload=workload
                    ).inc(value)
            for key in STORE_COUNTER_KEYS:
                value = (event.get("store") or {}).get(key, 0)
                if value:
                    reg.counter(f"service_store_{key}", tenant=tenant).inc(value)
            self.slo.on_finished(event)
            if job_registry is not None:
                reg.merge(
                    job_registry,
                    labels={"tenant": tenant, "workload": workload},
                    names=JOB_VIEW_FAMILIES,
                )
        else:
            raise ValueError(f"unknown service event kind {kind!r}")

    # ---------------------------------------------------- live recorders
    def job_submitted(self, record, queued, vtime: float) -> None:
        self.record({
            "event": "submitted",
            "t": record.submitted_at,
            "job": record.job_id,
            "tenant": record.tenant,
            "workload": record.spec.workload,
            "cost": queued.cost,
            "start_tag": queued.start_tag,
            "finish_tag": queued.finish_tag,
            "vtime": vtime,
        })

    def job_admitted(
        self,
        record,
        queued,
        heads: Dict[str, Tuple[float, float]],
        weights: Dict[str, float],
        vtime: float,
    ) -> None:
        self.record({
            "event": "running",
            "t": record.started_at,
            "job": record.job_id,
            "tenant": record.tenant,
            "workload": record.spec.workload,
            "queue_wait": record.started_at - record.submitted_at,
            "cost": queued.cost,
            "finish_tag": queued.finish_tag,
            "vtime": vtime,
            "heads": {k: list(v) for k, v in sorted(heads.items())},
            "weights": dict(sorted(weights.items())),
        })

    def job_retried(self, record, attempt: int, exitcode: Optional[int]) -> None:
        self.record({"event": "retried", "t": time.time(), "job": record.job_id,
                     "tenant": record.tenant, "workload": record.spec.workload,
                     "attempt": attempt, "exitcode": exitcode})

    def job_finished(self, record, snapshot: Optional[Dict[str, Any]]) -> None:
        result = record.result or {}
        job_registry = (
            MetricsRegistry.from_snapshot(snapshot) if snapshot else None
        )
        self.record(
            {
                "event": record.status,  # "done" | "failed"
                "t": record.finished_at,
                "job": record.job_id,
                "tenant": record.tenant,
                "workload": record.spec.workload,
                "ok": record.status == "done",
                "latency": record.finished_at - record.submitted_at,
                "busy_seconds": (
                    record.finished_at - record.started_at
                    if record.started_at is not None
                    else 0.0
                ),
                "violations": result.get("violations", 0),
                "cache": result.get("cache") or {},
                "store": result.get("store") or {},
                "stream": record.spec.stream_path,
                "merged": job_registry is not None,
            },
            job_registry=job_registry,
        )

    # ------------------------------------------------------------ export
    def export(self, directory: str) -> None:
        """Write ``metrics.prom`` and ``metrics.json`` (atomic replace)."""
        for name, text in (
            ("metrics.prom", prometheus_text(self.registry)),
            ("metrics.json", registry_json(self.registry)),
        ):
            with _atomic_text(os.path.join(directory, name)) as fh:
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


# ------------------------------------------------------------- replay
def replay_service_registry(
    spool: str, events_path: Optional[str] = None
) -> ServiceObs:
    """Rebuild the service registry from the event log + job streams.

    Reads ``<spool>/service_events.ndjson`` (or ``events_path``) and
    applies every event through the same :meth:`ServiceObs.apply` path
    the live service used; finished events that merged a worker registry
    snapshot live (``merged: true``) re-derive that registry by bridging
    the job's NDJSON stream through the PR2 trace→metrics bridge.  The
    returned plane's registry must satisfy
    ``service_registry_diff(live, replayed) == []``.

    An undecodable *final* line is skipped — a killed dispatcher leaves a
    torn tail, and the event it was writing never took effect; one
    anywhere else is corruption and raises with its line number.
    """
    from ..trace.events import Trace

    path = events_path or os.path.join(spool, "service_events.ndjson")
    replayed: Optional[ServiceObs] = None
    torn: Optional[Tuple[int, ValueError]] = None
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if torn is not None:
                raise ValueError(
                    f"{path}:{torn[0]}: undecodable event before the end of "
                    f"the log: {torn[1]}"
                ) from torn[1]
            try:
                event = json.loads(line)
            except ValueError as exc:
                torn = (number, exc)
                continue
            if event["event"] == "config":
                replayed = ServiceObs(
                    events_path=None,
                    slots=event.get("slots"),
                    weights=event.get("weights"),
                    slos=event.get("slos"),
                )
                continue
            if replayed is None:
                raise ValueError(f"{path}: first event must be the config")
            job_registry = None
            if event.get("merged"):
                stream = event.get("stream") or os.path.join(
                    spool, "streams", f"{event['job']}.ndjson"
                )
                job_registry = registry_from_trace(Trace.load_jsonl(stream))
            replayed.apply(event, job_registry=job_registry)
    if replayed is None:
        raise ValueError(f"{path}: empty service event log")
    return replayed


def service_registry_diff(live: ServiceObs, replayed: ServiceObs) -> List[str]:
    """``diff_registries`` over the service-plane consistency views."""
    return diff_registries(
        live.registry, replayed.registry, views=SERVICE_CONSISTENCY_VIEWS
    )
