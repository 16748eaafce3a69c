"""Experiment definitions: one function per table/figure of the paper (§6).

Every function runs the corresponding experiment on the simulated cluster
at a laptop-friendly scale and returns a :class:`FigureResult` with the
paper-style rows plus shape checks (who wins, by roughly what factor).
The scale is part of each figure and takes no argument: the figures are
pinned by digest (``tests/golden/figures.digests.json``).  The
``benchmarks/`` tree wraps these in pytest-benchmark targets and
EXPERIMENTS.md records paper-vs-measured values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..baselines import (
    run_parallel,
    run_sequential,
    seep_bfs,
    seep_mdf,
    spark_cache,
    spark_sequential,
    spark_yarn,
)
from ..cache import ResultCache
from ..cluster import CheckpointConfig, Cluster, FailureInjector, GB, MB
from ..core.collapse import CollapsedMDF
from ..core.evaluators import CallableEvaluator, RatioEvaluator, SizeEvaluator
from ..core.optimizations import table1_rows
from ..core.selection import (
    Interval,
    KInterval,
    KThreshold,
    Max,
    Min,
    Mode,
    Threshold,
    TopK,
)
from ..engine import EngineConfig, RandomHint, SortedHint, run_mdf
from ..engine.job import outputs_digest
from ..lab.workloads import _filter_min_mdf
from ..trace import validate_trace
from ..workloads import (
    MLPTrainer,
    time_series_full_mdf,
    cifar_like,
    deep_learning_combinations,
    deep_learning_job,
    deep_learning_mdf,
    granularity_grid,
    kde_combinations,
    kde_job,
    kde_mdf,
    oil_well_trace,
    normal_values,
    string_int_pairs,
    synthetic_combinations,
    synthetic_job,
    synthetic_mdf,
    time_series_combinations,
    time_series_job,
    time_series_mdf,
)
from .report import improvement, render_table, rows_to_dict


@dataclass
class FigureResult:
    """Rows of one regenerated table/figure plus its shape checks."""

    figure: str
    title: str
    columns: List[str]
    rows: List[List[Any]]
    checks: Dict[str, bool] = field(default_factory=dict)
    note: Optional[str] = None

    def render(self) -> str:
        text = render_table(f"{self.figure}: {self.title}", self.columns, self.rows, self.note)
        if self.checks:
            text += "shape checks: " + ", ".join(
                f"{name}={'OK' if ok else 'FAIL'}" for name, ok in self.checks.items()
            ) + "\n"
        return text

    def as_dict(self) -> Dict[str, Any]:
        return {
            "figure": self.figure,
            "rows": rows_to_dict(self.columns, self.rows),
            "checks": self.checks,
        }

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


# --------------------------------------------------------------------- Tab 1


def table1_optimizations() -> FigureResult:
    """Table 1: optimisations per evaluator/selection property combination."""
    monotone = SizeEvaluator()  # monotone=True by default
    convex = CallableEvaluator(lambda p: 0.0, name="mise", convex=True)
    plain = CallableEvaluator(lambda p: 0.0, name="custom")
    pairs = [
        ("monotone", monotone, "top-k (associative)", TopK(2)),
        ("convex", convex, "min (associative)", Min()),
        ("none", plain, "k-threshold (assoc+non-exh)", KThreshold(2, 0.5)),
        ("none", plain, "threshold (associative)", Threshold(0.5)),
        ("none", plain, "interval (associative)", Interval(0.0, 1.0)),
        ("none", plain, "k-interval (assoc+non-exh)", KInterval(2, 0.0, 1.0)),
        ("none", plain, "mode (not associative)", Mode()),
        ("monotone", monotone, "max (associative)", Max()),
    ]
    rows = [list(r) for r in table1_rows(pairs)]
    by_sel = {row[1]: (row[2], row[3]) for row in rows}
    checks = {
        "monotone+assoc prunes": by_sel["top-k (associative)"] == (True, True),
        "convex+assoc prunes": by_sel["min (associative)"] == (True, True),
        "non-exhaustive prunes": by_sel["k-threshold (assoc+non-exh)"] == (True, True),
        "assoc-only discards only": by_sel["threshold (associative)"] == (True, False),
        "mode gets nothing": by_sel["mode (not associative)"] == (False, False),
    }
    return FigureResult(
        "Table 1",
        "optimisations for choose operator functions",
        ["evaluator", "selection", "discard incrementally", "prune superfluous"],
        rows,
        checks,
    )


# ------------------------------------------------------------- Figs 5-7


def _approaches(mdf, jobs, cluster) -> List[float]:
    """Sequential, 4-parallel, 8-parallel and MDF completion times, run in
    that order on ``cluster``: ``jobs`` is the MDF's family of concrete jobs."""
    return [
        run_sequential(jobs, cluster).completion_time,
        run_parallel(jobs, cluster, k=4).completion_time,
        run_parallel(jobs, cluster, k=8).completion_time,
        seep_mdf(mdf, cluster).completion_time,
    ]


APPROACH_COLUMNS = ["sequential", "4-parallel", "8-parallel", "MDF"]


def fig5_deep_learning() -> FigureResult:
    """Fig. 5: deep-learning completion time across exploration modes."""
    data = cifar_like(n_samples=600, features=64)
    trainer = MLPTrainer(hidden=16, epochs=1, seed=3)
    cluster = Cluster(8, 4 * GB)
    rows: List[List[Any]] = []
    for mode in ("weights_only", "hyper_only", "exhaustive", "early_choose"):
        mdf = deep_learning_mdf(data, mode=mode, trainer=trainer, nominal_bytes=2 * GB)
        combos = deep_learning_combinations(mode)
        jobs = [deep_learning_job(data, p, trainer=trainer, nominal_bytes=2 * GB) for p in combos]
        rows.append([mode, len(combos), *_approaches(mdf, jobs, cluster)])
    # columns 2-5: sequential, 4-parallel, 8-parallel, MDF
    weights, _, exhaustive, early = rows
    checks = {
        "weights-only: approaches close": weights[2] / weights[5] < 4.0,
        "exhaustive: mdf beats sequential by >=40%": improvement(exhaustive[2], exhaustive[5])
        >= 40.0,
        "exhaustive: mdf beats 4-parallel": exhaustive[5] < exhaustive[3],
        "exhaustive: mdf beats 8-parallel": exhaustive[5] < exhaustive[4],
        "early-choose: mdf beats 8-parallel by >=70%": improvement(early[4], early[5]) >= 70.0,
    }
    return FigureResult(
        "Fig. 5",
        "deep learning job completion time (simulated s)",
        ["mode", "paths", *APPROACH_COLUMNS],
        rows,
        checks,
        note="paper: MDF -60% vs sequential (exhaustive); early-choose -85% vs 8-parallel",
    )


def fig6_data_profiling() -> FigureResult:
    """Fig. 6: data-profiling (KDE) completion time vs input size."""
    values = normal_values(8000)
    cluster = Cluster(8, 1 * GB)
    combos = kde_combinations()
    rows: List[List[Any]] = []
    for size_mb in (256, 512, 1024, 2048):
        mdf = kde_mdf(values, nominal_bytes=size_mb * MB)
        jobs = [kde_job(values, p, nominal_bytes=size_mb * MB) for p in combos]
        times = _approaches(mdf, jobs, cluster)
        rows.append([size_mb, *times, improvement(times[0], times[3])])
    seq, p4, p8, _ = rows[-1][1:5]
    checks = {
        "mdf always fastest": all(
            row[5] > 0 and row[4] == min(row[1:5]) for row in rows
        ),
        "average improvement >= 55%": float(np.mean([row[5] for row in rows])) >= 55.0,
        "8-parallel beats 4-parallel": p8 <= p4,
        "parallel beats sequential": p4 < seq,
    }
    return FigureResult(
        "Fig. 6",
        "data profiling (KDE) completion time vs input size",
        ["size (MB)", *APPROACH_COLUMNS, "MDF vs seq (%)"],
        rows,
        checks,
        note="paper: MDF fastest at every size, ~-70% vs sequential on average",
    )


def fig7_time_series() -> FigureResult:
    """Fig. 7: time-series completion time vs number of branches."""
    trace = oil_well_trace(20_000)
    cluster = Cluster(8, 2 * GB)
    rows: List[List[Any]] = []
    for count in (16, 64, 256):
        grid = granularity_grid(count)
        mdf = time_series_mdf(trace, grid, nominal_bytes=128 * MB)
        jobs = [
            time_series_job(trace, p, grid, nominal_bytes=128 * MB)
            for p in time_series_combinations(grid)
        ]
        seq, p4, p8, mdf_t = _approaches(mdf, jobs, cluster)
        rows.append([count, seq, p4, p8, mdf_t, improvement(seq, mdf_t), improvement(p8, mdf_t)])
    checks = {
        "sequential grows ~linearly in branches": all(
            0.5 * (b[0] / a[0]) <= b[1] / a[1] <= 1.5 * (b[0] / a[0])
            for a, b in zip(rows, rows[1:])
        ),
        "mdf beats sequential by 60-98%": all(60.0 <= row[5] <= 99.0 for row in rows),
        "mdf beats parallel everywhere": all(row[4] < row[3] for row in rows),
    }
    return FigureResult(
        "Fig. 7",
        "time series analysis completion time vs #branches",
        ["branches", *APPROACH_COLUMNS, "vs seq (%)", "vs 8p (%)"],
        rows,
        checks,
        note="paper: sequential linear; MDF -60%..-98%",
    )


# --------------------------------------------------------------------- Fig 8


def fig8_choose_variants() -> FigureResult:
    """Fig. 8: the effect of choose functions and scheduling hints."""
    trace = oil_well_trace(20_000)
    grid = granularity_grid(64)
    cluster = Cluster(8, 2 * GB)

    def run_variant(selection, evaluator=None, hint=SortedHint()) -> float:
        mdf = time_series_mdf(
            trace, grid, selection=selection, evaluator=evaluator, nominal_bytes=128 * MB
        )
        config = EngineConfig(hint=hint)
        return run_mdf(mdf, cluster, scheduler="bas", memory="amm", config=config).completion_time

    full = run_variant(Threshold(0.8, above=True))
    top4 = run_variant(TopK(4, largest=True))
    first4 = run_variant(KThreshold(4, 0.8, above=True))
    randoms = [
        run_variant(KThreshold(4, 0.8, above=True), hint=RandomHint(seed)) for seed in range(12)
    ]
    sorted_eval = RatioEvaluator(20_000, monotone=True, name="surviving-ratio")
    first4_sorted = run_variant(
        KThreshold(4, 0.8, above=True), evaluator=sorted_eval, hint=SortedHint()
    )
    rows = [
        ["MDF (all branches)", full, "-"],
        ["MDF (top-4)", top4, f"{improvement(full, top4):.0f}% vs full"],
        ["MDF (first-4)", first4, f"{improvement(full, first4):.0f}% vs full"],
        [
            "MDF (first-4, random)",
            float(np.mean(randoms)),
            f"min {min(randoms):.2f} / max {max(randoms):.2f}",
        ],
        ["MDF (first-4, sorted)", first4_sorted, f"{improvement(full, first4_sorted):.0f}% vs full"],
    ]
    checks = {
        "top-4 beats full MDF by >=15%": improvement(full, top4) >= 15.0,
        "first-4 beats top-4": first4 <= top4,
        "random max below full": max(randoms) <= full,
        "sorted at least as good as avg random": first4_sorted <= float(np.mean(randoms)) * 1.05,
    }
    return FigureResult(
        "Fig. 8",
        "choose functions and scheduling hints (time series job)",
        ["variant", "completion (s)", "notes"],
        rows,
        checks,
        note="paper: top-4 -34..39% vs full; first-4 stronger; sorted hints consistent",
    )


# --------------------------------------------------------------------- Fig 9


def fig9_spark_comparison() -> FigureResult:
    """Fig. 9: MDF vs Spark-like baselines on the synthetic job."""
    pairs = string_int_pairs(3000)
    cluster = Cluster(8, 1 * GB)
    config = EngineConfig(partitions_per_worker=2)
    nominal = int(2.5 * GB)
    rows: List[List[Any]] = []
    for bf in (2, 4, 6, 10):
        mdf = synthetic_mdf(pairs, b1=bf, b2=bf, nominal_bytes=nominal)
        combos = synthetic_combinations(bf, bf)
        jobs = [synthetic_job(pairs, p, nominal_bytes=nominal) for p in combos]
        seq = spark_sequential(jobs, cluster).completion_time
        yarn = spark_yarn(jobs, cluster, k=4).completion_time
        cache = spark_cache(mdf, cluster).completion_time
        bfs = seep_bfs(mdf, cluster, config=config).completion_time
        mdf_t = seep_mdf(mdf, cluster, config=config).completion_time
        rows.append([bf * bf, seq, yarn, cache, bfs, mdf_t])
    big = rows[-1]
    checks = {
        "spark-sequential worst at scale": big[1] == max(big[1:6]),
        "seep-mdf best at scale": big[5] == min(big[1:6]),
        "seep-mdf beats yarn by >=40%": improvement(big[2], big[5]) >= 40.0,
        "seep-mdf beats spark-cache": big[5] < big[3],
        "seep-bfs worse than spark-cache": big[4] > big[3],
    }
    return FigureResult(
        "Fig. 9",
        "synthetic job vs Spark-like baselines",
        ["branches", "spark-seq", "spark-yarn", "spark-cache", "seep-bfs", "seep-mdf"],
        rows,
        checks,
        note="paper @100 branches: MDF -69% vs YARN, -37% vs cache; BFS worse than cache",
    )


# ------------------------------------------------------------ Figs 10-18


CONFIG_LABELS = ["lru", "lru+incr", "amm", "amm+incr"]


def _four_configs(mdf, workers: int, mem: int) -> Tuple[List[float], List[float]]:
    """Run the four §6.2 configurations, {LRU, AMM} × {±incremental}, each on
    a fresh cluster: completion times and memory-hit ratios in
    :data:`CONFIG_LABELS` order."""
    results = [
        run_mdf(
            mdf,
            Cluster(workers, mem),
            scheduler="bas",
            memory=policy,
            config=EngineConfig(incremental_choose=incremental, partitions_per_worker=2),
        )
        for policy in ("lru", "amm")
        for incremental in (False, True)
    ]
    return [r.completion_time for r in results], [r.memory_hit_ratio for r in results]


def _columns(key: str, measure: str) -> List[str]:
    """``key``, one ``measure`` column and then one hit column per configuration."""
    return [
        key,
        *(f"{measure}:{label}" for label in CONFIG_LABELS),
        *(f"hit:{label}" for label in CONFIG_LABELS),
    ]


def fig10_13_scale_workers() -> FigureResult:
    """Figs. 10+13: processing rate and memory-hit ratio vs #workers.

    Input grows with the cluster (4 GB per worker), so the figure reports
    the processing *rate* (GB/s) like the paper.
    """
    pairs = string_int_pairs(2000)
    rows: List[List[Any]] = []
    for workers in (2, 4, 8, 12):
        nominal = int(workers * 4.0 * GB)
        mdf = synthetic_mdf(pairs, b1=4, b2=4, nominal_bytes=nominal)
        times, hits = _four_configs(mdf, workers, 10 * GB)
        rows.append([workers, *((nominal / GB) / t for t in times), *hits])
    checks = {
        "amm+incr fastest rate": all(
            row[4] >= max(row[1:5]) - 1e-9 for row in rows
        ),
        "incremental beats non-incremental": all(
            row[2] >= row[1] and row[4] >= row[3] for row in rows
        ),
        "hit ratio roughly flat vs workers": all(
            (max(v) - min(v)) <= 0.15 for v in zip(*(row[5:] for row in rows))
        ),
    }
    return FigureResult(
        "Figs. 10+13",
        "scalability vs workers: rate (GB/s) and memory-hit ratio",
        _columns("workers", "rate"),
        rows,
        checks,
        note="paper: amm+incr best; hit ratio unaffected by worker count",
    )


def fig11_14_scale_data() -> FigureResult:
    """Figs. 11+14: completion time and hit ratio vs dataset size."""
    pairs = string_int_pairs(2000)
    rows: List[List[Any]] = []
    for size in (2, 4, 6, 8, 9):
        mdf = synthetic_mdf(pairs, b1=4, b2=4, nominal_bytes=int(8 * size * GB))
        times, hits = _four_configs(mdf, 8, 10 * GB)
        rows.append([size, *times, *hits])
    checks = {
        "amm+incr fastest at every size (5% tol)": all(
            row[4] <= min(row[1:5]) * 1.05 for row in rows
        ),
        "completion grows with size": all(
            rows[i + 1][4] > rows[i][4] for i in range(len(rows) - 1)
        ),
        "hit ratio decreases then flattens": rows[0][8] > rows[-1][8],
        "amm+incr hit ratio >= lru hit ratio": all(row[8] >= row[5] - 0.05 for row in rows),
    }
    return FigureResult(
        "Figs. 11+14",
        "completion time and hit ratio vs per-worker dataset size (GB)",
        _columns("GB/worker", "time"),
        rows,
        checks,
        note="paper: amm+incr best; hit ratio decreases up to ~6GB then constant",
    )


def fig12_15_topology() -> FigureResult:
    """Figs. 12+15: 120 branches split across outer × inner explores."""
    pairs = string_int_pairs(1000)
    rows: List[List[Any]] = []
    for b1 in (2, 4, 6, 10, 12, 20, 30, 60):
        b2 = 120 // b1  # the paper fixes |B1 x B2| = 120
        mdf = synthetic_mdf(pairs, b1=b1, b2=b2, nominal_bytes=8 * GB)
        times, hits = _four_configs(mdf, 8, 4 * GB)
        rows.append([f"{b1}x{b2}", *times, *hits])
    low_outer, high_outer = rows[0], rows[-1]
    checks = {
        # incremental strongest when inner branching is high (outer low)
        "incremental gain at low outer >= at high outer": (
            improvement(low_outer[1], low_outer[2])
            >= improvement(high_outer[1], high_outer[2]) - 5.0
        ),
        "amm never loses to lru (incr)": all(row[4] <= row[2] * 1.10 for row in rows),
        "amm+incr best overall": all(row[4] <= min(row[1:5]) * 1.05 for row in rows),
    }
    return FigureResult(
        "Figs. 12+15",
        "120-branch topology: completion time and hit ratio vs B1 x B2",
        _columns("B1xB2", "time"),
        rows,
        checks,
        note="paper: incremental shines at low outer factor; AMM at high outer factor",
    )


def fig16_cpu_cost() -> FigureResult:
    """Fig. 16: relative completion time vs branch processing cost."""
    pairs = string_int_pairs(1000)
    rows: List[List[Any]] = []
    for work in (1, 2, 4, 8, 16):
        mdf = synthetic_mdf(pairs, b1=5, b2=5, work=work, nominal_bytes=int(8 * 6.0 * GB))
        times, _ = _four_configs(mdf, 8, 10 * GB)
        rows.append([work, *(t / times[0] for t in times)])
    first, last = rows[0], rows[-1]
    checks = {
        "amm+incr best at low cost (2% tol)": first[4] <= min(first[1:5]) * 1.02,
        "relative benefit shrinks as compute grows": (1.0 - last[4]) <= (1.0 - first[4]) + 0.02,
        "incremental dominates at low cost": first[2] < first[1] and first[4] < first[3],
    }
    return FigureResult(
        "Fig. 16",
        "relative completion time vs processing cost (normalised to LRU)",
        ["work/item"] + CONFIG_LABELS,
        rows,
        checks,
        note="paper: amm+incr best; benefit shrinks as the job becomes compute-bound",
    )


def fig17_18_memory() -> FigureResult:
    """Figs. 17+18: normalised completion time and hit ratio vs memory."""
    mdf = synthetic_mdf(string_int_pairs(1000), b1=5, b2=5, nominal_bytes=int(8 * 3.0 * GB))
    rows: List[List[Any]] = []
    for mem in (2, 4, 6, 8, 12, 16, 24, 32):
        times, hits = _four_configs(mdf, 8, int(mem * GB))
        rows.append([mem, *(t / times[0] for t in times), *hits])
    first, mid, last = rows[0], rows[len(rows) // 2], rows[-1]
    checks = {
        "amm+incr best when memory is scarce": first[4] <= min(first[1:5]) + 1e-9,
        # with ample memory every policy approaches LRU (ratio -> 1)
        "relative advantage shrinks with memory": last[4] >= mid[4] - 0.05,
        "hit ratios rise with memory (amm+incr)": last[8] >= first[8],
        "lru hit ratio rises with memory": last[5] >= first[5],
        "hit ratios approach 1 with ample memory": last[5] >= 0.9 and last[8] >= 0.9,
    }
    return FigureResult(
        "Figs. 17+18",
        "normalised completion time and hit ratio vs worker memory (GB)",
        _columns("mem GB", "t/lru"),
        rows,
        checks,
        note="paper: amm+incr strongest at low memory; all converge as hit ratios reach 1",
    )


# ------------------------------------------------------------- §5 & App. B


def choose_throughput() -> FigureResult:
    """§5 claim: the master sustains millions of choose invocations/s."""
    selector = TopK(4).incremental()
    count = 0
    start = time.perf_counter()
    while time.perf_counter() - start < 0.4:
        for _ in range(1000):
            selector.offer(f"b{count}", float(count % 97))
            count += 1
    elapsed = time.perf_counter() - start
    rate = count / elapsed
    rows = [["top-4 incremental selection", count, elapsed, rate]]
    checks = {"rate >= 100k invocations/s": rate >= 1e5}
    return FigureResult(
        "§5",
        "master-side selection throughput (wall clock)",
        ["selection", "invocations", "seconds", "rate (1/s)"],
        rows,
        checks,
        note="paper: 2M invocations/s on a low-end master (JVM)",
    )


def failure_recovery() -> FigureResult:
    """§5: one mid-explore node failure vs failure-free execution.

    Crosses LRU/AMM with checkpointing on/off on the lab's threshold-filter
    explore (five branches).  Each failed run must finish strictly later
    than its failure-free twin by *exactly* the seconds charged into the
    ``recovery_seconds`` histogram (reloads and lineage recomputes are paid
    through the cost model, nothing else moves), and the master's
    :class:`ChooseScoreStore` must keep every branch score — failures never
    re-run a choose evaluation.
    """
    thresholds = (10, 50, 100, 500, 900)
    rows: List[List[Any]] = []
    per_run: List[Dict[str, bool]] = []
    for memory in ("lru", "amm"):
        for ckpt_on in (False, True):
            ckpt = CheckpointConfig(1, overhead_fraction=0.1) if ckpt_on else None
            mdf = _filter_min_mdf(thresholds=thresholds)
            clean = run_mdf(
                mdf, Cluster(4, 1 * GB), memory=memory, config=EngineConfig(checkpointing=ckpt)
            )
            cluster = Cluster(4, 1 * GB)
            failed = run_mdf(
                mdf,
                cluster,
                memory=memory,
                config=EngineConfig(
                    checkpointing=ckpt,
                    failures=FailureInjector.at_stages([(4, "worker-0")]),
                ),
            )
            charged = cluster.obs.value("recovery_seconds")
            delta = failed.completion_time - clean.completion_time
            reexecutions = failed.metrics.recovery_reexecutions
            rows.append(
                [
                    f"{memory}, ckpt {'on' if ckpt_on else 'off'}",
                    clean.completion_time,
                    failed.completion_time,
                    delta,
                    charged,
                    reexecutions,
                ]
            )
            per_run.append(
                {
                    "every failed run finishes strictly later": delta > 0,
                    "delta == charged recovery seconds (exactness)": abs(delta - charged) < 1e-9,
                    "choose scores never recomputed": failed.metrics.choose_evaluations
                    == clean.metrics.choose_evaluations
                    == len(thresholds),
                    "checkpointing recovers by reload, not recompute": not ckpt_on
                    or reexecutions == 0,
                }
            )
    checks = {name: all(run[name] for run in per_run) for name in per_run[0]}
    return FigureResult(
        "§5",
        "mid-explore node failure: recovery cost vs failure-free",
        ["config", "clean (s)", "failed (s)", "delta (s)", "recovery charged (s)", "re-executions"],
        rows,
        checks,
        note="failures are cheap but not free: the delta is exactly the charged recovery",
    )


def appendix_b_counts() -> FigureResult:
    """Appendix B / Theorem 4.3: DFS maintains <= datasets than BFS."""
    rows: List[List[Any]] = []
    for branching, depth in ((2, 2), (2, 4), (3, 3), (4, 2), (10, 3)):
        mdf = CollapsedMDF(branching, depth)
        dfs = mdf.peak_datasets("dfs")
        bfs = mdf.peak_datasets("bfs")
        rows.append([branching, depth, dfs, bfs, bfs / dfs])
    checks = {
        "dfs peak <= bfs peak everywhere": all(row[2] <= row[3] for row in rows),
        "gap grows with breadth and depth": rows[-1][4] >= rows[0][4],
    }
    return FigureResult(
        "App. B",
        "peak maintained datasets: depth-first vs breadth-first",
        ["B", "depth", "DFS peak", "BFS peak", "BFS/DFS"],
        rows,
        checks,
        note="Theorem 4.3: BFS maintains at least as many datasets as DFS",
    )


def supplementary_full_time_series() -> FigureResult:
    """Supplementary: the §6.1 time-series job with *all five* explorables.

    The paper's Fig. 22 listing only fans out the masking parameters; its
    prose sweeps five explorables (W, T, L, M, D).  This experiment chains
    three scopes (mask -> mark -> detect, with 16, 3 x 3 and 3 branches)
    and compares against submitting one concrete job per full combination —
    the reuse gap compounds with each chained scope.
    """
    trace = oil_well_trace(20_000)
    grid = granularity_grid(16)
    cluster = Cluster(8, 2 * GB)
    result = seep_mdf(time_series_full_mdf(trace, grid, nominal_bytes=128 * MB), cluster)
    branches_executed = result.metrics.branches_executed
    # the baseline must run the full cross product of all five explorables
    full_combinations = grid.num_branches * 3 * 3 * 3
    # estimate the sequential family from one representative job per stage mix
    jobs = [
        time_series_job(trace, p, grid, nominal_bytes=128 * MB)
        for p in time_series_combinations(grid)
    ]
    per_job = run_sequential(jobs, cluster).completion_time / len(jobs)
    sequential_estimate = per_job * full_combinations
    rows = [
        ["sequential (estimated)", full_combinations, sequential_estimate, "-"],
        [
            "MDF (chained scopes)",
            branches_executed,
            result.completion_time,
            f"{improvement(sequential_estimate, result.completion_time):.1f}% vs seq",
        ],
    ]
    checks = {
        "MDF explores additively, not multiplicatively": branches_executed
        <= grid.num_branches + 9 + 3,
        "MDF at least 95% faster than the full cross product": improvement(
            sequential_estimate, result.completion_time
        )
        >= 95.0,
    }
    return FigureResult(
        "Suppl.",
        "five-explorable time series: chained scopes vs full cross product",
        ["approach", "branches", "completion (s)", "notes"],
        rows,
        checks,
        note="the chained-scope MDF turns a 16*9*3=432-way product into 16+9+3 branches",
    )


def cache_reuse() -> FigureResult:
    """Result-cache reuse: warm re-runs of the time-series exploration.

    A cold run populates a :class:`~repro.cache.ResultCache`; an identical
    warm re-run on the same cluster (``reset=False``) then serves the
    source, the surviving branch tails and the post-choose stages from
    cache instead of re-executing them.  Pruning is off because a warm
    re-run legitimately revisits stage ids the pruning validator would
    otherwise flag as reused.
    """
    trace = oil_well_trace(8_000)
    grid = granularity_grid(16)

    def run(cluster, config, reset):
        mdf = time_series_mdf(trace, grid, selection=TopK(4, largest=True), nominal_bytes=128 * MB)
        return run_mdf(mdf, cluster, scheduler="bas", memory="amm", config=config, reset=reset)

    rows: List[List[Any]] = []
    per_mode: List[Dict[str, bool]] = []
    for label, incremental in (("incremental", True), ("materialized", False)):
        # reference run without any cache: the cold cached run must cost
        # exactly the same simulated time (the cache never slows a job)
        uncached = EngineConfig(pruning=False, incremental_choose=incremental)
        baseline = run(Cluster(4, 2 * GB), uncached, reset=True).completion_time
        cluster = Cluster(4, 2 * GB)
        cache = ResultCache()
        config = EngineConfig(pruning=False, incremental_choose=incremental, cache=cache)
        cold_result = run(cluster, config, reset=True)
        cold = cold_result.completion_time
        hits_before = cache.stats.hits
        warm_result = run(cluster, config, reset=False)
        warm = warm_result.completion_time - cold
        warm_hits = cache.stats.hits - hits_before
        reduction = improvement(cold, warm)
        rows.append(
            [label, cold, warm, f"{reduction:.1f}%", warm_hits, cache.stats.bytes_saved // MB]
        )
        per_mode.append(
            {
                "warm re-run >=25% faster (both modes)": reduction >= 25.0,
                "warm re-runs hit the cache": warm_hits > 0,
                "outputs byte-identical cold vs warm": outputs_digest(cold_result.outputs)
                == outputs_digest(warm_result.outputs),
                "paper invariants + cache_sound hold": not validate_trace(warm_result.events),
                "cold cached run costs the same as cache-off": abs(cold - baseline) < 1e-9,
            }
        )
    checks = {name: all(mode[name] for mode in per_mode) for name in per_mode[0]}
    return FigureResult(
        "Cache",
        "lineage-fingerprint result cache: cold vs warm re-run (time series)",
        ["choose mode", "cold (s)", "warm (s)", "reduction", "warm hits", "MB saved"],
        rows,
        checks,
        note="warm re-runs reuse the source, surviving tails and post-choose stages",
    )


ALL_FIGURES: Dict[str, Callable[[], FigureResult]] = {
    "table1": table1_optimizations,
    "fig5": fig5_deep_learning,
    "fig6": fig6_data_profiling,
    "fig7": fig7_time_series,
    "fig8": fig8_choose_variants,
    "fig9": fig9_spark_comparison,
    "fig10_13": fig10_13_scale_workers,
    "fig11_14": fig11_14_scale_data,
    "fig12_15": fig12_15_topology,
    "fig16": fig16_cpu_cost,
    "fig17_18": fig17_18_memory,
    "choose_throughput": choose_throughput,
    "failure_recovery": failure_recovery,
    "appendix_b": appendix_b_counts,
    "supplementary_ts5": supplementary_full_time_series,
    "cache_reuse": cache_reuse,
}
