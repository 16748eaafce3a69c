"""The execution-backend contract: who may run payload work ahead of turn.

The engine keeps two strictly separated planes.  The **control plane** —
scheduling, cost accounting, trace emission and the simulated clock —
runs in-process on the master.  The **data plane** — operator functions
over partition payloads — is pure (``nominal bytes in → nominal bytes
out`` never depends on payload values), so *where* it runs cannot be
observed by the cost model.

The executor computes every stage in-process, on turn, through
:func:`run_stage`.  A backend may only run a ready ``narrow`` / ``wide``
stage's :func:`run_stage` *ahead* of its turn; the executor takes the
result at the stage's turn, after making the identical charges.  For the
same job, simulated times, canonical traces, validator verdicts and final
outputs are therefore byte-identical on every backend; only the real wall
clock may change.  Operators must be pure (``apply_*`` depend only on
their arguments) to be run ahead of turn — see
``docs/parallel_execution.md``.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from ...core.operators import Operator

__all__ = ["ExecutionBackend", "run_stage"]


def run_stage(kind: str, ops: List[Operator], payloads: List[Any]) -> List[Any]:
    """A stage's payload transform: a ``wide`` head's ``apply_global``,
    then the narrow chain per partition, in partition order."""
    if kind == "wide":
        payloads, ops = ops[0].apply_global(payloads), ops[1:]
    out: List[Any] = []
    for payload in payloads:
        for op in ops:
            payload = op.apply_partition(payload)
        out.append(payload)
    return out


class ExecutionBackend:
    """A prefetcher of pure stage transforms; the base runs nothing early."""

    #: registry name (set by subclasses)
    name: str = "base"
    #: whether the master should offer ready sibling stages via
    #: :meth:`prefetch_stage` (it peeks their input payloads to do so)
    supports_prefetch: bool = False

    def prepare(self, ops: Iterable[Operator]) -> None:
        """Register every operator of an upcoming run, before any prefetch."""

    def close(self) -> None:
        """Release any resources (process pools).  Idempotent."""

    def prefetch_stage(
        self, key: str, kind: str, ops: List[Operator], payloads: List[Any]
    ) -> None:
        """Start ``run_stage(kind, ops, payloads)`` ahead of its turn.

        Idempotent per ``key`` until it is taken or dropped.  Must be
        invisible to the simulation: no accounting, no trace events.
        """

    def take_prefetched(self, key: str) -> Optional[List[Any]]:
        """The prefetched result of ``key`` (blocking), or None.  Consumes it."""
        return None

    def drop_prefetched(self, key: Optional[str]) -> None:
        """Discard the entry of ``key``, or every entry when ``key`` is None."""
