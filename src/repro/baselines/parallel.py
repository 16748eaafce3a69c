"""k-parallel baseline (§6.1): k jobs co-scheduled on the shared cluster.

The paper's ``4-parallel`` / ``8-parallel`` deployments submit k jobs at a
time; the jobs share the cluster, splitting each worker's memory equally
(``mem/k`` per job).  Co-scheduled jobs overlap their computation with each
other's I/O, which is why parallel execution beats sequential until memory
pressure claws the benefit back (Fig. 6's discussion).

The overlap model: within one wave of k jobs, the aggregate compute demand
and the aggregate IO demand stream through the shared CPUs and the shared
storage concurrently, so the wave finishes after
``max(Σ compute_walls, Σ io_walls) + Σ overheads``.  Each job's walls are
measured by running it on a cluster clone whose workers own ``mem/k``.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..cluster.cluster import Cluster
from ..cluster.memory import MemoryPolicy, make_policy
from ..cluster.metrics import Metrics
from ..core.mdf import MDF
from ..engine.job import JobResult
from ..engine.runner import run_mdf
from .results import BaselineResult


def _wave_time(results: List[JobResult], k: int) -> float:
    """Completion time of one co-scheduled wave (compute/IO overlap).

    The dominant resource gates the wave (``max(Σcompute, Σio)``); the
    non-dominant resource cannot be hidden at the wave's edges (the first
    job's leading IO, the last job's trailing compute), contributing its
    per-job share ``min(Σcompute, Σio)/k``.  Higher parallelism therefore
    overlaps more — until per-job memory shrinks and IO inflates."""
    compute = sum(r.wall_compute for r in results)
    io = sum(r.wall_io + r.wall_network for r in results)
    overhead = sum(
        max(0.0, r.completion_time - r.wall_compute - r.wall_io - r.wall_network)
        for r in results
    )
    return max(compute, io) + min(compute, io) / max(1, k) + overhead


def run_parallel(
    jobs: List[MDF],
    cluster: Cluster,
    k: int = 4,
    scheduler: str = "bfs",
    memory: Union[str, MemoryPolicy] = "lru",
    name: Optional[str] = None,
    job_overhead: float = 1.0,
) -> BaselineResult:
    """Run the job family in waves of ``k`` co-scheduled jobs.

    ``cluster`` provides the topology and cost model; each job in a wave
    executes against a clone whose workers have ``mem/k`` memory.  Each
    wave pays one ``job_overhead`` (containers of a wave start
    concurrently)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    name = name or f"{k}-parallel"
    total = 0.0
    merged: Optional[Metrics] = None
    results: List[JobResult] = []
    per_job_mem = max(1, cluster.nodes[0].mem_capacity // k)
    for start in range(0, len(jobs), k):
        wave = jobs[start : start + k]
        wave_results = []
        for mdf in wave:
            clone = Cluster(
                num_workers=cluster.num_workers,
                mem_per_worker=per_job_mem,
                cost_model=cluster.cost_model,
                policy=make_policy(memory) if isinstance(memory, str) else memory,
            )
            result = run_mdf(mdf, clone, scheduler=scheduler, memory=None)
            wave_results.append(result)
            merged = result.metrics if merged is None else merged.merge(result.metrics)
        total += _wave_time(wave_results, k) + job_overhead
        results.extend(wave_results)
    if merged is None:
        merged = Metrics()
    return BaselineResult(name, total, merged, results)
