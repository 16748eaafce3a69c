"""The policy lab's grid and its one oracle (accasim-style).

One :class:`Experimentation` runs every scheduling policy over every
workload (× eviction policy × cluster size × backend) under identical
conditions.  Each cell runs once and records the comparative numbers the
paper's evaluation reports — completion time, exploration cost, memory
hit ratio, branch counts and the profiler's exclusive time-category
breakdown — beside the facts the lab's contract is about: digests of the
outputs and the trace, the choose decisions, the validator messages and
the trace→registry replay diffs.

The contract is that a policy or a backend changes *when* work runs,
never *what* it computes.  :meth:`LabReport.mismatches` is its one check,
a reducer over the report: each cell against its ``bfs`` twin and its
``serial`` twin, both of which the grid always crosses in.

Simulated time is deterministic, so every number here is exact and
reproducible — two runs of the same cell are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..cache.store import atomic_text
from ..engine.job import outputs_digest
from ..obs.bridge import diff_registries, registry_from_trace
from ..prof.spans import CATEGORIES
from ..trace.validate import validate_trace
from .workloads import available_workloads, get_workload


@dataclass
class CellResult:
    """Everything measured for one (workload, scheduler, memory, size,
    backend) cell."""

    workload: str
    scheduler: str
    memory: str
    workers: int
    #: execution backend the cell ran on (``"serial"``/``"mp"``); never
    #: changes the simulated numbers, only real wall-clock
    backend: str
    completion_time: float
    #: total modelled work paid across all branches (compute + io + network
    #: seconds) — the paper's *exploration cost* axis
    exploration_cost: float
    memory_hit_ratio: float
    branches_executed: int
    branches_pruned: int
    stages_executed: int
    evictions: int
    #: profiler category -> attributed seconds (from the obs registry)
    profile: Dict[str, float]
    #: :func:`~repro.engine.job.outputs_digest` of the sink outputs
    outputs_digest: str
    #: sha256 of the run's canonical trace JSONL
    trace_digest: str
    #: choose name -> ``kept`` in order and ``lost`` as a sorted set.  Kept
    #: order is score order for top-k and domain order for threshold
    #: selections, both schedule-independent under the zoo's
    #: distinct-scores rule; whether a loser was pruned before running or
    #: discarded after depends on evaluation order, so losers are a set
    decisions: Dict[str, Dict[str, List[str]]]
    #: trace-validator messages (must stay empty for every policy)
    violations: List[str]
    #: live-vs-replayed registry mismatches (empty = parity)
    replay_diffs: List[str]


def run_cell(
    workload: str,
    scheduler: str,
    memory: str = "amm",
    workers: Optional[int] = None,
    backend: str = "serial",
) -> CellResult:
    """Run one cell once and collect its measurements and oracle facts."""
    subject = get_workload(workload)
    result, cluster = subject.run(
        scheduler=scheduler, memory=memory, workers=workers, backend=backend
    )
    m = result.metrics
    return CellResult(
        workload=workload,
        scheduler=scheduler,
        memory=memory,
        workers=workers or subject.workers,
        backend=backend,
        completion_time=result.completion_time,
        exploration_cost=m.total_time,
        memory_hit_ratio=m.memory_hit_ratio,
        branches_executed=m.branches_executed,
        branches_pruned=m.branches_pruned,
        stages_executed=m.stages_executed,
        evictions=m.evictions,
        profile={
            category: cluster.obs.value(f"profile_{category}_seconds")
            for category in CATEGORIES
        },
        outputs_digest=outputs_digest(result.outputs),
        trace_digest=hashlib.sha256(result.events.to_jsonl().encode()).hexdigest(),
        decisions={
            name: {"kept": list(d.kept), "lost": sorted([*d.discarded, *d.pruned])}
            for name, d in result.decisions.items()
        },
        violations=[str(v) for v in validate_trace(result.events)],
        replay_diffs=diff_registries(cluster.obs, registry_from_trace(result.events)),
    )


def _twin(cell: CellResult, **change) -> tuple:
    twin = replace(cell, **change)
    return twin.workload, twin.scheduler, twin.memory, twin.workers, twin.backend


@dataclass
class LabReport:
    """The comparative outcome of one experimentation sweep."""

    cells: List[CellResult] = field(default_factory=list)

    # ------------------------------------------------------------- queries
    def for_workload(self, name: str) -> List[CellResult]:
        return [c for c in self.cells if c.workload == name]

    def best_policy(self, workload: str) -> Optional[str]:
        """Scheduler with the lowest completion time on ``workload``."""
        cells = self.for_workload(workload)
        if not cells:
            return None
        return min(cells, key=lambda c: c.completion_time).scheduler

    def mismatches(self) -> List[str]:
        """Every cell that breaks the when-not-what contract, and why.

        A cell with validator violations or replay diffs fails on its own.
        It must equal its ``serial`` twin in every field but ``backend``,
        and match its ``bfs`` twin (same workload, memory, size and
        backend) on the output digest and the choose decisions.  A cell
        with no twin in the report fails."""
        index = {_twin(c): c for c in self.cells}
        found = []
        for c in self.cells:
            problems = [*c.violations, *c.replay_diffs]
            serial = index.get(_twin(c, backend="serial"))
            if serial is None or replace(c, backend="serial") != serial:
                problems.append("differs from its serial twin")
            bfs = index.get(_twin(c, scheduler="bfs"))
            if bfs is None or (c.outputs_digest, c.decisions) != (
                bfs.outputs_digest,
                bfs.decisions,
            ):
                problems.append("outputs or choose decisions differ from bfs")
            if problems:
                found.append(
                    f"{c.workload} × {c.scheduler} × {c.memory} on {c.backend}, "
                    f"{c.workers} workers: {'; '.join(problems)}"
                )
        return found

    # ----------------------------------------------------------- rendering
    def render_table(self) -> str:
        """Fixed-width comparative table, one row per cell."""
        header = (
            f"{'workload':<18} {'sched':<12} {'memory':<14} {'bknd':<6} "
            f"{'wrk':>3} {'t_complete':>10} {'expl_cost':>10} {'hit':>6} "
            f"{'br_x':>5} {'br_p':>5} {'evict':>6} {'viol':>4}"
        )
        lines = [header, "-" * len(header)]
        for c in self.cells:
            lines.append(
                f"{c.workload:<18} {c.scheduler:<12} {c.memory:<14} "
                f"{c.backend:<6} {c.workers:>3} {c.completion_time:>10.4f} "
                f"{c.exploration_cost:>10.4f} {c.memory_hit_ratio:>6.3f} "
                f"{c.branches_executed:>5} {c.branches_pruned:>5} "
                f"{c.evictions:>6} {len(c.violations):>4}"
            )
        for workload in dict.fromkeys(c.workload for c in self.cells):
            best = self.best_policy(workload)
            lines.append(f"best on {workload}: {best}")
        return "\n".join(lines)

    def to_json(self) -> Dict:
        return {
            "cells": [asdict(c) for c in self.cells],
            "mismatches": self.mismatches(),
        }

    def save(self, path: str) -> None:
        with atomic_text(path) as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


class Experimentation:
    """Run every policy over every workload under identical conditions.

    The accasim experimentation pattern: one object owns the cross
    product of independent variables (scheduling policy, eviction
    policy, workload, cluster size, backend), runs each cell once on a
    fresh cluster and funnels the per-cell observations into a single
    comparative report.

    Parameters
    ----------
    schedulers:
        Scheduler registry names to compare (default: all registered);
        ``bfs``, the reference, is always crossed in.
    memories:
        Eviction-policy names crossed in (default: just ``"amm"``).
    workloads:
        Zoo workload names (default: the ``"smoke"`` tier).
    cluster_sizes:
        Worker counts to sweep; ``None`` entries use each workload's own
        default shape (default: ``[None]``).
    backends:
        Execution backends crossed in (default: just ``"serial"``, the
        reference, which is always crossed in).  Adding ``"mp"`` doubles
        the matrix and proves, cell by cell, that backend choice never
        moves a simulated byte.
    """

    def __init__(
        self,
        schedulers: Optional[Sequence[str]] = None,
        memories: Sequence[str] = ("amm",),
        workloads: Optional[Sequence[str]] = None,
        cluster_sizes: Sequence[Optional[int]] = (None,),
        backends: Sequence[str] = ("serial",),
    ):
        from ..engine.policies import available_schedulers

        schedulers = schedulers or available_schedulers()
        self.schedulers = list(dict.fromkeys([*schedulers, "bfs"]))
        self.memories = list(memories)
        self.workloads = list(workloads or available_workloads("smoke"))
        self.cluster_sizes = list(cluster_sizes)
        self.backends = list(dict.fromkeys([*backends, "serial"]))

    def cells(self) -> List[Dict]:
        """The cross product this experimentation will run."""
        return [
            dict(workload=w, scheduler=s, memory=m, workers=n, backend=b)
            for w in self.workloads
            for s in self.schedulers
            for m in self.memories
            for n in self.cluster_sizes
            for b in self.backends
        ]

    def run(
        self, progress: Optional[Callable[[str], None]] = None
    ) -> LabReport:
        """Run every cell; ``progress`` (if given) gets one line per cell."""
        report = LabReport()
        for spec in self.cells():
            cell = run_cell(**spec)
            report.cells.append(cell)
            if progress is not None:
                progress(
                    f"{cell.workload} × {cell.scheduler} × {cell.memory} "
                    f"on {cell.backend}: t={cell.completion_time:.4f}s "
                    f"hit={cell.memory_hit_ratio:.3f} "
                    f"violations={len(cell.violations)}"
                )
        return report


__all__ = [
    "CellResult",
    "Experimentation",
    "LabReport",
    "run_cell",
]
