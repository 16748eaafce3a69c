"""Worker-side job execution (runs inside a service worker process).

:func:`serve` is a worker process's whole life: a spec in, :func:`run_job`'s
summary out, until the dispatcher hangs up.  :func:`run_job` names its
workload by zoo name (closures never cross the pipe).  A worker builds a
workload's MDF at its first job of that name and keeps it in ``_plans``,
which the zoo bounds; every later job of the name runs that MDF again with
fresh run state — its own cluster, config, cache and stream, and the
operator fingerprints ``Master`` takes per run.  Each job attaches a per-job
:class:`~repro.cache.ResultCache` over the **shared**
:class:`~repro.cache.SharedCacheStore` directory, streams the live trace
to the job's NDJSON file through the PR7
:class:`~repro.live.stream.StreamWriter`, runs ``run_mdf``, and returns
a plain-dict summary (picklable, JSON-serialisable) to the parent.

Two invariants the service asserts on top:

* **Per-job byte-identity** — a job's sink outputs must be byte-identical
  to the same workload run solo (:func:`outputs_digest` over the pickled
  outputs); cache hits change *when* bytes are produced, never *what*.
* **Validator cleanliness** — with ``spec.validate`` the seven paper
  invariants run over the recorded trace and the violation count is
  reported (``benchmarks/wall`` and ``tests/service`` require zero).
"""

from __future__ import annotations

import hashlib
import pickle
import time
import traceback
from typing import Any, Dict

from ..cache import ResultCache, SharedCacheStore
from ..core.mdf import MDF
from ..engine.runner import run_mdf
from ..trace.validate import validate_trace
from .jobs import JobSpec
from .obs import job_view_totals

__all__ = ["outputs_digest", "run_job", "serve"]

#: zoo name -> the MDF this process built at its first job of that name
_plans: Dict[str, MDF] = {}


def outputs_digest(outputs: Dict[str, Any]) -> str:
    """Canonical sha256 of a job's sink outputs (byte-identity checks).

    Pickled in sorted-sink order with a fixed protocol, so the digest is
    stable across processes for the deterministic payload types the
    workloads produce (lists, scalars, numpy arrays).
    """
    names = sorted(outputs)
    blob = pickle.dumps(
        (names, [outputs[name] for name in names]), protocol=4
    )
    return hashlib.sha256(blob).hexdigest()


def _build_cache(spec: JobSpec) -> ResultCache:
    store = SharedCacheStore(
        spec.cache_dir, tenant=spec.tenant, quota_bytes=spec.quota_bytes
    )
    return ResultCache(store=store)


def run_job(raw_spec: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one submission; never raises (errors are reported).

    The uncaught-exception path returns ``ok=False`` with the traceback:
    a failing job is not retried, only one whose worker died.
    """
    spec = JobSpec.from_dict(raw_spec)
    started = time.perf_counter()
    try:
        return _run(spec, started)
    except Exception:  # noqa: BLE001 - ferried to the service as a failure
        wall_s = time.perf_counter() - started
        return _failure(raw_spec, traceback.format_exc(limit=20), wall_s)


def _failure(raw_spec: Dict[str, Any], error: str, wall_s: float) -> Dict[str, Any]:
    spec = {k: raw_spec.get(k) for k in ("job_id", "tenant", "workload")}
    return dict(spec, ok=False, error=error, wall_s=wall_s)


def serve(conn, inherited) -> None:
    """A worker process: ``recv spec -> send run_job(spec)`` until EOF.
    ``inherited`` are the dispatcher's pipe ends a fork copied in: closed
    first, so when the dispatcher dies no pipe keeps a writer and every
    idle worker exits.  A result that does not pickle fails its job."""
    for end in inherited:
        end.close()
    try:
        while True:
            raw_spec = conn.recv()
            result = run_job(raw_spec)
            try:
                blob = pickle.dumps(result)
            except Exception as exc:  # noqa: BLE001 - the job's result, not the worker
                error = f"result not picklable: {type(exc).__name__}: {exc}"
                blob = pickle.dumps(_failure(raw_spec, error, result.get("wall_s")))
            conn.send_bytes(blob)
    except (EOFError, ConnectionError):  # BrokenPipeError, ConnectionResetError
        pass  # the dispatcher hung up


def _run(spec: JobSpec, started: float) -> Dict[str, Any]:
    from ..lab.workloads import get_workload

    workload = get_workload(spec.workload)
    # the zoo's MDFs can be run again (their operators write nothing a
    # later run reads); a factory that raises keeps nothing
    mdf = _plans.get(spec.workload)
    if mdf is None:
        mdf = _plans[spec.workload] = workload.make_mdf()
    cluster = workload.make_cluster()
    config = workload.make_config()
    if spec.cache_dir is not None:
        config.cache = _build_cache(spec)
    # watched by its stream alone (a forked worker inherits no ambient
    # observer); violations are *reported* below, not raised
    result = run_mdf(
        mdf,
        cluster,
        scheduler=spec.scheduler,
        memory=spec.memory,
        config=config,
        live=spec.stream_path,
        backend=spec.backend,
    )
    violations = validate_trace(result.events) if spec.validate else []
    cache = config.cache
    summary: Dict[str, Any] = {
        "job_id": spec.job_id,
        "tenant": spec.tenant,
        "workload": spec.workload,
        "ok": True,
        "error": None,
        "completion_time": result.completion_time,
        "outputs_digest": outputs_digest(result.outputs),
        "violations": len(violations),
        "violation_messages": [str(v) for v in violations[:5]],
        "stream_path": spec.stream_path,
        "events": len(result.events),
    }
    if cache is not None:
        # a fresh cache per job makes totals == this run's deltas
        summary["cache"] = cache.stats.as_dict()
        if cache.store is not None:
            summary["store"] = cache.store.obs_counters()
    # one total per trace-reconstructible counter family crosses the pipe:
    # the service keeps nothing finer, and replaying the job's NDJSON
    # stream through the trace fold derives the same totals
    summary["obs"] = job_view_totals(cluster.obs)
    # last: the digest and the totals are the worker's time, not the pipe's
    summary["wall_s"] = time.perf_counter() - started
    return summary
