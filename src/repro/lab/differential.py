"""Differential policy testing: *when* may change, *what* may not.

The lab's safety contract for pluggable schedulers: every registered
policy, run over every workload in the zoo, must produce

1. **byte-identical final outputs** — ``repr`` of the sink outputs
   equals the reference policy's, exactly;
2. **identical choose decisions** — per choose, the same kept and the
   same discarded branch lists (in order: exhaustive selections order
   kept sets by score, which is schedule-independent when scores are
   distinct — the zoo's admission rule);
3. **a validator-clean trace** — all seven paper-invariant checkers
   pass (:func:`repro.trace.validate.validate_trace` returns ``[]``);
4. **replay parity** — the metrics registry rebuilt from the trace
   matches the live registry over the guaranteed consistency views
   (:func:`repro.obs.bridge.diff_registries`).

A policy that violates any of these is *changing the job's semantics*,
not its schedule, and must not ship.  The matrix is exercised by
``tests/lab/test_policy_differential.py`` and by ``python -m repro lab``
(the CI ``lab-smoke`` job).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..obs.bridge import diff_registries, registry_from_trace
from ..trace.validate import validate_trace
from .workloads import available_workloads, get_workload


@dataclass
class DifferentialCell:
    """One (workload, policy) comparison against the reference policy."""

    workload: str
    scheduler: str
    reference: str
    outputs_identical: bool
    decisions_identical: bool
    #: validator violations, stringified (empty = clean)
    violations: List[str] = field(default_factory=list)
    #: live-vs-replayed registry mismatches (empty = parity)
    replay_diffs: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.outputs_identical
            and self.decisions_identical
            and not self.violations
            and not self.replay_diffs
        )

    def describe(self) -> str:
        if self.passed:
            return "ok"
        problems = []
        if not self.outputs_identical:
            problems.append("outputs differ")
        if not self.decisions_identical:
            problems.append("choose decisions differ")
        problems.extend(self.violations)
        problems.extend(self.replay_diffs)
        return "; ".join(problems)


def _decision_signature(result) -> Dict[str, Dict[str, List[str]]]:
    """The schedule-independent essence of every choose decision.

    ``kept`` order is part of the signature (score-sorted for top-k,
    domain-sorted for threshold selections — both schedule-independent
    under the zoo's distinct-scores rule).  ``discarded`` and ``pruned``
    are compared as sets: *which* branches lose is semantic, but whether
    a loser was pruned before running or discarded after depends on
    evaluation order, as does the order losses are noticed in."""
    return {
        name: {
            "kept": list(d.kept),
            "lost": sorted([*d.discarded, *d.pruned]),
        }
        for name, d in result.decisions.items()
    }


def compare_cell(
    workload: str,
    scheduler: str,
    reference: str = "bfs",
    memory: str = "amm",
    reference_run=None,
) -> DifferentialCell:
    """Run one policy on one workload and compare against the reference.

    ``reference_run`` (a prior ``(result, cluster)`` pair) avoids
    re-running the reference for every contender."""
    subject = get_workload(workload)
    if reference_run is None:
        reference_run = subject.run(scheduler=reference, memory=memory)
    ref_result, _ = reference_run
    result, cluster = subject.run(scheduler=scheduler, memory=memory)

    outputs_identical = repr(result.outputs) == repr(ref_result.outputs)
    decisions_identical = _decision_signature(result) == _decision_signature(
        ref_result
    )
    violations = [str(v) for v in validate_trace(result.events)]
    replay_diffs = diff_registries(
        cluster.obs, registry_from_trace(result.events)
    )
    return DifferentialCell(
        workload=workload,
        scheduler=scheduler,
        reference=reference,
        outputs_identical=outputs_identical,
        decisions_identical=decisions_identical,
        violations=violations,
        replay_diffs=replay_diffs,
    )


def differential_matrix(
    schedulers: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
    reference: str = "bfs",
    memory: str = "amm",
) -> List[DifferentialCell]:
    """Every policy × every workload, compared against ``reference``.

    The reference runs once per workload; each contender (including the
    reference itself, as a self-check) is compared against it."""
    from ..engine.policies import available_schedulers

    schedulers = list(schedulers or available_schedulers())
    workloads = list(workloads or available_workloads("smoke"))
    cells: List[DifferentialCell] = []
    for workload in workloads:
        subject = get_workload(workload)
        reference_run = subject.run(scheduler=reference, memory=memory)
        for scheduler in schedulers:
            cells.append(
                compare_cell(
                    workload,
                    scheduler,
                    reference=reference,
                    memory=memory,
                    reference_run=reference_run,
                )
            )
    return cells


def render_matrix(cells: Sequence[DifferentialCell]) -> str:
    """Text matrix, one row per cell, PASS/FAIL with reasons."""
    header = f"{'workload':<18} {'scheduler':<12} {'vs':<6} {'verdict'}"
    lines = [header, "-" * len(header)]
    for c in cells:
        verdict = "PASS" if c.passed else f"FAIL ({c.describe()})"
        lines.append(f"{c.workload:<18} {c.scheduler:<12} {c.reference:<6} {verdict}")
    failed = [c for c in cells if not c.passed]
    lines.append(
        f"{len(cells) - len(failed)}/{len(cells)} cells byte-identical "
        f"and validator-clean"
    )
    return "\n".join(lines)


def assert_differential(
    schedulers: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
    reference: str = "bfs",
) -> List[DifferentialCell]:
    """Run the matrix; raise ``AssertionError`` on any failing cell."""
    cells = differential_matrix(schedulers, workloads, reference=reference)
    failed = [c for c in cells if not c.passed]
    if failed:
        details = "\n".join(
            f"  {c.workload} × {c.scheduler}: {c.describe()}" for c in failed
        )
        raise AssertionError(
            f"{len(failed)} differential cell(s) violate the "
            f"when-not-what contract:\n{details}"
        )
    return cells


__all__ = [
    "DifferentialCell",
    "assert_differential",
    "compare_cell",
    "differential_matrix",
    "render_matrix",
]
