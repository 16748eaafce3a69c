"""The multiprocessing backend: ready sibling stages run on a process pool.

While the master's chosen stage executes in-process, the other ready
``narrow`` / ``wide`` stages (independent explore branches) run their
:func:`~.base.run_stage` on a ``fork``-context pool, one task per stage.

Operators are rarely picklable (exploration branches are lambdas and
closures), so :meth:`MPBackend.prepare` puts every operator of the run in
a module-global table *before* the pool forks; workers inherit it (cell
vars included) and tasks name operators by token.  Operators the workers
never saw mark the pool stale, and it re-forks at the next prefetch.
Payloads and results cross through the pool's own pickling; when either
cannot cross, the stage is recomputed inline at its turn, which is safe
because operators are pure.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from typing import Any, Dict, Iterable, List, Optional

from ...core.errors import ExecutionError
from ...core.operators import Operator
from .base import ExecutionBackend, run_stage

__all__ = ["MPBackend"]

#: worker processes per pool
PROCESSES = max(2, min(8, os.cpu_count() or 2))

#: operator token -> operator, inherited by pool workers at fork time.
#: Written only in the parent, immediately before the pool is (re)forked.
_WORKER_OPS: Dict[int, Operator] = {}


def _child(kind: str, tokens: List[int], payloads: List[Any]) -> List[Any]:
    return run_stage(kind, [_WORKER_OPS[token] for token in tokens], payloads)


class MPBackend(ExecutionBackend):
    """Branch-level real parallelism: prefetch on a forked process pool."""

    name = "mp"
    supports_prefetch = "fork" in multiprocessing.get_all_start_methods()

    def __init__(self) -> None:
        self._pool = None
        self._ops: Dict[int, Operator] = {}
        self._stale = False
        #: key -> (pending result, kind, ops, payloads) for an inline redo
        self._prefetched: Dict[str, tuple] = {}

    def prepare(self, ops: Iterable[Operator]) -> None:
        for op in ops:
            if id(op) not in self._ops:
                self._ops[id(op)] = op
                self._stale = True  # current workers never saw this op

    def _ensure_pool(self):
        if self._pool is None or self._stale:
            self._shutdown_pool()
            global _WORKER_OPS
            _WORKER_OPS = dict(self._ops)
            # the first prefetch falls inside a run, which keeps the cyclic
            # collector off; a worker outlives the run, so it turns it on
            self._pool = multiprocessing.get_context("fork").Pool(
                PROCESSES, initializer=gc.enable
            )
            self._stale = False
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def close(self) -> None:
        self.drop_prefetched(None)
        self._shutdown_pool()

    def prefetch_stage(
        self, key: str, kind: str, ops: List[Operator], payloads: List[Any]
    ) -> None:
        if key in self._prefetched or not self.supports_prefetch:
            return
        self.prepare(ops)
        pending = self._ensure_pool().apply_async(
            _child, (kind, [id(op) for op in ops], payloads)
        )
        self._prefetched[key] = (pending, kind, list(ops), list(payloads))

    def take_prefetched(self, key: str) -> Optional[List[Any]]:
        entry = self._prefetched.pop(key, None)
        if entry is None:
            return None
        pending, kind, ops, payloads = entry
        try:
            return pending.get()
        except ExecutionError:
            raise
        except Exception:  # inputs or result could not cross: redo inline
            return run_stage(kind, ops, payloads)

    def drop_prefetched(self, key: Optional[str]) -> None:
        # a prune is never blocked on wasted work: the pool discards the
        # results of tasks nobody holds
        if key is None:
            self._prefetched.clear()
        else:
            self._prefetched.pop(key, None)
