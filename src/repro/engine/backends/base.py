"""The execution-backend contract: who runs the *real* operator work.

The engine keeps two strictly separated planes:

* the **control plane** — scheduling, cost accounting, trace emission and
  the simulated clock — always runs in-process on the master, and is what
  every simulated number and trace byte is derived from;
* the **data plane** — the actual Python execution of operator functions
  over partition payloads — is pure (``nominal bytes in → nominal bytes
  out`` never depends on payload values), so *where* it runs cannot be
  observed by the cost model.

An :class:`ExecutionBackend` owns the data plane only.  The determinism
invariant every backend must uphold: for the same job, simulated
completion times, canonical traces, validator verdicts and final outputs
are byte-identical to the ``serial`` backend's.  Backends may only change
real wall-clock time.

Operator purity is the contract's precondition: ``apply_partition`` /
``apply_global`` must depend only on their arguments.  Operators that
lean on cross-process host state (module globals mutated at run time)
still execute correctly under the in-process paths, but are not eligible
for cross-process prefetch — see ``docs/parallel_execution.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ...core.operators import Operator

__all__ = ["BackendStats", "ExecutionBackend"]


@dataclass
class BackendStats:
    """Process-level counters of one backend instance (feeds BENCH/docs)."""

    #: partition chains applied (one per partition per map_chain call)
    chains_run: int = 0
    #: chains that a parallel backend had to run in-process instead
    #: (unpicklable payload, pool unavailable, ...)
    fallbacks: int = 0
    #: stages dispatched ahead of their turn (branch-level parallelism)
    prefetches: int = 0
    #: prefetched stages whose results were actually consumed
    prefetch_hits: int = 0
    #: prefetched stages dropped unused (pruned branch or cache hit)
    prefetch_drops: int = 0
    #: payloads that crossed a process boundary via pickle protocol 5
    pickle_transfers: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "chains_run": self.chains_run,
            "fallbacks": self.fallbacks,
            "prefetches": self.prefetches,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_drops": self.prefetch_drops,
            "pickle_transfers": self.pickle_transfers,
        }


class ExecutionBackend:
    """Where partition payload work runs (the data plane).

    The executor charges every cost and emits every trace event *before*
    handing the pure payload transformation to the backend, so a backend
    cannot perturb the simulation — only the process's real wall clock.
    """

    #: registry name (set by subclasses)
    name: str = "base"
    #: whether the master should offer ready sibling stages via
    #: :meth:`prefetch_stage` (only useful when work can overlap)
    supports_prefetch: bool = False

    def __init__(self) -> None:
        self.stats = BackendStats()

    # ----------------------------------------------------------- lifecycle
    def prepare(self, ops: Iterable[Operator]) -> None:
        """Register the operators of an upcoming run.

        Called once per job before any dispatch, with every operator in
        the stage graph.  Process-pool backends use this to make operator
        objects (closures included) reachable from worker processes via
        fork inheritance; the serial backend ignores it.
        """

    def close(self) -> None:
        """Release any resources (process pools).  Idempotent."""

    # ---------------------------------------------------------- data plane
    def map_chain(self, ops: List[Operator], payloads: List[Any]) -> List[Any]:
        """Apply a narrow operator chain to each payload, preserving order.

        Equivalent to ``[chain(ops, p) for p in payloads]``; parallel
        backends may run partitions concurrently.  Exceptions raised by an
        operator propagate to the caller (as they would in-process).
        """
        raise NotImplementedError

    def run_global(self, op: Operator, payloads: List[Any]) -> List[Any]:
        """Run a wide head's global computation over all partitions.

        A single task with a hard barrier on its result — backends default
        to in-process execution (offloading a lone task buys nothing);
        kept on the interface so distributed backends can override it.
        """
        return op.apply_global(payloads)

    def run_join(self, op: Operator, left: Any, right: Any) -> Any:
        """Run a join head over the gathered operand payloads."""
        return op.apply_join(left, right)

    # ------------------------------------------------------------ prefetch
    def prefetch_stage(
        self,
        key: str,
        kind: str,
        ops: List[Operator],
        payloads: List[Any],
    ) -> bool:
        """Start computing a ready stage's payload transform ahead of turn.

        ``kind`` is ``"narrow"`` (apply the full chain per partition) or
        ``"wide"`` (``ops[0].apply_global`` then the rest of the chain per
        output partition).  Returns True when the work was dispatched; a
        backend that cannot ship the inputs returns False and the stage
        runs normally later.  Must be invisible to the simulation: no
        accounting, no trace events.
        """
        return False

    def has_prefetched(self, key: str) -> bool:
        """True when ``key`` was dispatched and not yet taken or dropped."""
        return False

    def take_prefetched(self, key: str) -> Optional[List[Any]]:
        """Collect a prefetched stage's final payloads (blocking), or None.

        For ``"narrow"`` dispatches the list has one entry per input
        partition; for ``"wide"`` one entry per global-output partition
        (the rest of the chain already applied).  Consumes the entry.
        """
        return None

    def drop_prefetched(self, key: str) -> None:
        """Discard a prefetched entry (pruned branch / cache hit)."""
