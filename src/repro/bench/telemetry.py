"""The ``--telemetry`` report: exporters exercised on a paper workload.

Runs the synthetic nested-explore MDF (§6.1 job 4) on a memory-starved
cluster under LRU and AMM with telemetry enabled, then prints every export
the observability layer offers: the Fig 17-style memory-over-time series
for both policies, the per-branch and per-node attribution tables, the
trace↔registry consistency check, and the Prometheus text / JSON
expositions of the AMM run.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..cluster import GB, Cluster
from ..engine import EngineConfig, run_mdf
from ..obs import TimelineSampler, diff_registries, registry_from_trace
from ..workloads import string_int_pairs, synthetic_mdf
from .report import render_table


def telemetry_report(
    pairs_n: int = 600,
    workers: int = 4,
    mem_per_worker_gb: float = 2.0,
    per_worker_data_gb: float = 3.0,
    sample_interval: float = 0.25,
) -> str:
    """Render the full telemetry demonstration report as text."""
    pairs = string_int_pairs(pairs_n)
    nominal = int(workers * per_worker_data_gb * GB)
    mdf = synthetic_mdf(pairs, b1=4, b2=4, nominal_bytes=nominal)

    results: Dict[str, Any] = {}
    for policy in ("lru", "amm"):
        cluster = Cluster(workers, int(mem_per_worker_gb * GB))
        config = EngineConfig(partitions_per_worker=2)
        results[policy] = run_mdf(
            mdf,
            cluster,
            scheduler="bas",
            memory=policy,
            config=config,
            observers=[TimelineSampler(interval=sample_interval)],
        )

    sections: List[str] = []
    sections.append(
        render_table(
            "telemetry demo: synthetic 4x4 MDF, "
            f"{workers} workers x {mem_per_worker_gb:g} GB (data {nominal / GB:g} GB)",
            ["policy", "completion (s)", "hit ratio", "evictions", "samples"],
            [
                [
                    policy,
                    result.completion_time,
                    result.memory_hit_ratio,
                    result.metrics.evictions,
                    len(result.telemetry.samples),
                ]
                for policy, result in results.items()
            ],
            note="Fig 17 setup: same job under LRU vs AMM on a starved cluster",
        )
    )

    for policy, result in results.items():
        sections.append(f"--- timeline under {policy.upper()} ---")
        sections.append(result.telemetry.timeline_table(max_rows=16))

    amm = results["amm"]
    sections.append("--- attribution (AMM run) ---")
    sections.append(amm.telemetry.branch_breakdown())
    sections.append(amm.telemetry.node_breakdown())

    sections.append("--- trace <-> registry consistency (AMM run) ---")
    problems = diff_registries(amm.telemetry.registry, registry_from_trace(amm.events))
    if problems:
        sections.append("\n".join(f"MISMATCH {p}" for p in problems))
    else:
        sections.append(
            "registry rebuilt from the decision trace matches the live "
            "registry on every guaranteed view (0 mismatches)"
        )
    sections.append("")

    sections.append("--- Prometheus exposition (AMM run) ---")
    sections.append(amm.telemetry.to_prometheus())
    sections.append("--- JSON exposition (AMM run) ---")
    sections.append(amm.telemetry.to_json())
    return "\n".join(sections)


__all__ = ["telemetry_report"]
