"""The scheduler/eviction experiment harness (accasim-style).

One :class:`Experimentation` runs every scheduling policy over every
workload (× eviction policy × cluster size) under identical conditions
and collects the comparative numbers the paper's evaluation reports:
completion time, exploration cost, memory hit ratio, branch counts and
the profiler's exclusive time-category breakdown.  The produced
:class:`LabReport` renders a text table, serialises to a JSON artifact
(the CI ``lab-smoke`` job uploads it) and exports pinned baselines for
the perf-regression gate (``repro.prof --gate``).

Simulated time is deterministic, so every number here is exact and
reproducible — two runs of the same cell are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..prof.spans import CATEGORIES
from ..trace.validate import validate_trace
from .workloads import LabWorkload, available_workloads, get_workload


@dataclass
class CellResult:
    """Everything measured for one (workload, scheduler, memory, size) cell."""

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
    profile: Dict[str, float] = field(default_factory=dict)
    #: trace-validator violations (must stay 0 for every policy)
    violations: int = 0


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
                f"{c.evictions:>6} {c.violations:>4}"
            )
        for workload in dict.fromkeys(c.workload for c in self.cells):
            best = self.best_policy(workload)
            lines.append(f"best on {workload}: {best}")
        return "\n".join(lines)

    def to_json(self) -> Dict:
        return {"cells": [asdict(c) for c in self.cells]}

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def backend_mismatches(self) -> List[str]:
        """Cells whose measurements differ from the same cell on ``serial``."""
        def twin(c):
            return c.workload, c.scheduler, c.memory, c.workers

        serial = {twin(c): c for c in self.cells if c.backend == "serial"}
        return [
            f"{c.workload} × {c.scheduler} × {c.memory} on {c.backend}"
            for c in self.cells
            if twin(c) in serial and replace(c, backend="serial") != serial[twin(c)]
        ]

    # ------------------------------------------------------- gate baselines
    def baseline_scenarios(self) -> Dict[str, float]:
        """Pinned completion times for the perf gate, one per cell.

        Keys follow the gate's scenario naming
        (``lab_<workload>_<scheduler>``); simulated time is exact, so
        these are stable across machines.  Only ``serial``-backend cells
        are exported — backends are required to match it exactly, so a
        second backend would only produce duplicate keys."""
        return {
            f"lab_{c.workload}_{c.scheduler}": c.completion_time
            for c in self.cells
            if c.backend == "serial"
        }


class Experimentation:
    """Run every policy over every workload under identical conditions.

    The accasim experimentation pattern: one object owns the cross
    product of independent variables (scheduling policy, eviction
    policy, workload, cluster size), runs each cell on a fresh cluster
    and funnels the per-cell observations into a single comparative
    report.

    Parameters
    ----------
    schedulers:
        Scheduler registry names to compare (default: all registered).
    memories:
        Eviction-policy names crossed in (default: just ``"amm"``).
    workloads:
        Zoo workload names (default: the ``"smoke"`` tier).
    cluster_sizes:
        Worker counts to sweep; ``None`` entries use each workload's own
        default shape (default: ``[None]``).
    validate:
        Run the seven trace validators per cell and record the violation
        count (default True — the lab exists to prove policies safe).
    backends:
        Execution backends crossed in (default: just ``"serial"``).
        Adding ``"mp"`` doubles the matrix and proves — cell by cell —
        that backend choice never moves a simulated number.
    """

    def __init__(
        self,
        schedulers: Optional[Sequence[str]] = None,
        memories: Sequence[str] = ("amm",),
        workloads: Optional[Sequence[str]] = None,
        cluster_sizes: Sequence[Optional[int]] = (None,),
        validate: bool = True,
        backends: Sequence[str] = ("serial",),
    ):
        from ..engine.policies import available_schedulers

        self.schedulers = list(schedulers or available_schedulers())
        self.memories = list(memories)
        self.workloads = list(workloads or available_workloads("smoke"))
        self.cluster_sizes = list(cluster_sizes)
        self.validate = validate
        self.backends = list(backends)

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

    def run_cell(
        self,
        workload: str,
        scheduler: str,
        memory: str = "amm",
        workers: Optional[int] = None,
        backend: str = "serial",
    ) -> CellResult:
        """Execute one cell and collect its measurements."""
        subject: LabWorkload = get_workload(workload)
        result, cluster = subject.run(
            scheduler=scheduler, memory=memory, workers=workers, backend=backend
        )
        registry = cluster.obs
        profile = {
            category: registry.value(f"profile_{category}_seconds")
            for category in CATEGORIES
        }
        violations = len(validate_trace(result.events)) if self.validate else 0
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
            profile=profile,
            violations=violations,
        )

    def run(
        self, progress: Optional[Callable[[str], None]] = None
    ) -> LabReport:
        """Run every cell; ``progress`` (if given) gets one line per cell."""
        report = LabReport()
        for spec in self.cells():
            cell = self.run_cell(**spec)
            report.cells.append(cell)
            if progress is not None:
                progress(
                    f"{cell.workload} × {cell.scheduler} × {cell.memory}: "
                    f"t={cell.completion_time:.4f}s "
                    f"hit={cell.memory_hit_ratio:.3f} "
                    f"violations={cell.violations}"
                )
        return report


__all__ = [
    "CellResult",
    "Experimentation",
    "LabReport",
]
