"""Sequential baseline (§6.1): one job per configuration, back to back.

Each job gets the full cluster but starts cold: caches do not survive
across jobs, so shared pre-processing re-executes and the input re-loads
from disk every time.  This is the paper's ``sequential`` baseline and the
behaviour of submitting independent dataflow jobs to Spark."""

from __future__ import annotations

from typing import List, Union

from ..cluster.cluster import Cluster
from ..cluster.memory import MemoryPolicy
from ..core.mdf import MDF
from ..engine.runner import run_mdf
from .results import BaselineResult


def run_sequential(
    jobs: List[MDF],
    cluster: Cluster,
    scheduler: str = "bfs",
    memory: Union[str, MemoryPolicy] = "lru",
    name: str = "sequential",
    job_overhead: float = 1.0,
) -> BaselineResult:
    """Run every concrete job in sequence on a cold cluster.

    ``job_overhead`` is the per-job submission cost (scheduler round-trip,
    container/JVM spin-up) that a cluster pays for every independently
    submitted dataflow job — the fixed cost an MDF amortises into a single
    submission."""
    total = 0.0
    merged = None
    results = []
    for mdf in jobs:
        result = run_mdf(mdf, cluster, scheduler=scheduler, memory=memory)
        total += result.completion_time + job_overhead
        merged = result.metrics if merged is None else merged.merge(result.metrics)
        results.append(result)
    if merged is None:
        from ..cluster.metrics import Metrics

        merged = Metrics()
    return BaselineResult(name, total, merged, results)
