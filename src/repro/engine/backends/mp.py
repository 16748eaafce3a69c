"""The multiprocessing backend: real parallel payload execution.

Work is dispatched to a ``fork``-context process pool.  Two design
constraints shape everything here:

* **Operators are rarely picklable.**  Exploration branches are built
  from lambdas and closures (a parameter grid baked into a function), so
  tasks cannot ship operator objects through a pipe.  Instead the backend
  registers every operator of the upcoming run in a module-global table
  *before* forking; the forked workers inherit the table (closures, cell
  vars and all) and tasks reference operators by token.  When a later run
  introduces operators the current workers have never seen, the pool is
  re-forked — at most once per run, amortised over every dispatch.
* **Payloads are produced after the fork**, so they must cross the
  process boundary explicitly, via pickle protocol 5.  A payload that
  cannot be pickled at all falls back to in-process execution — identical
  results, just without the parallelism (``stats.fallbacks`` counts it).

The determinism contract of :class:`~.base.ExecutionBackend` holds by
construction: the fork start method means workers share the parent's
interpreter state (including the hash seed, so ``GroupBy``'s hash
partitioning is stable across the boundary), operators are pure, and the
backend touches no accounting or trace state.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ...core.errors import ExecutionError
from ...core.operators import Operator
from .base import ExecutionBackend

__all__ = ["MPBackend"]

#: operator token -> operator, inherited by pool workers at fork time.
#: Written only in the parent, immediately before the pool is (re)forked.
_WORKER_OPS: Dict[int, Operator] = {}


# ---------------------------------------------------------------- transport
def _encode(obj: Any) -> bytes:
    """Parent/worker -> wire (pickle protocol 5)."""
    return pickle.dumps(obj, protocol=5)


_decode = pickle.loads


def _encode_error(exc: BaseException) -> Tuple:
    try:
        return ("exc", pickle.dumps(exc, protocol=5))
    except Exception:
        return ("exc_repr", f"{type(exc).__name__}: {exc}")


def _raise_remote(result: Tuple) -> None:
    if result[0] == "exc":
        raise pickle.loads(result[1])
    raise ExecutionError("mp-backend", result[1])


# ------------------------------------------------------------- worker tasks
def _child_chain(args: Tuple) -> Tuple:
    """Apply a narrow operator chain to one partition payload."""
    tokens, wire = args
    try:
        payload = _decode(wire)
        for token in tokens:
            payload = _WORKER_OPS[token].apply_partition(payload)
        try:
            return ("ok", _encode(payload))
        except Exception:
            return ("unpicklable",)
    except BaseException as exc:  # noqa: BLE001 - ferried to the parent
        return _encode_error(exc)


def _child_stage(args: Tuple) -> Tuple:
    """Run a whole prefetched wide stage: global head, then the rest."""
    head_token, rest_tokens, wires = args
    try:
        payloads = [_decode(w) for w in wires]
        outs = _WORKER_OPS[head_token].apply_global(payloads)
        results = []
        for payload in outs:
            for token in rest_tokens:
                payload = _WORKER_OPS[token].apply_partition(payload)
            results.append(payload)
        try:
            return ("ok", [_encode(p) for p in results])
        except Exception:
            return ("unpicklable",)
    except BaseException as exc:  # noqa: BLE001 - ferried to the parent
        return _encode_error(exc)


class _Prefetch:
    """Bookkeeping of one dispatched stage (kind, futures, replay inputs)."""

    __slots__ = ("kind", "asyncs", "ops", "payloads")

    def __init__(self, kind, asyncs, ops, payloads):
        self.kind = kind
        self.asyncs = asyncs
        self.ops = ops
        self.payloads = payloads


class MPBackend(ExecutionBackend):
    """Process-pool backend: partition- and branch-level real parallelism."""

    name = "mp"

    def __init__(self, processes: Optional[int] = None):
        super().__init__()
        self._fork_ok = "fork" in multiprocessing.get_all_start_methods()
        self.supports_prefetch = self._fork_ok
        self.processes = processes or max(2, min(8, os.cpu_count() or 2))
        self._pool = None
        self._ops: Dict[int, Operator] = {}
        self._stale = False
        self._prefetched: Dict[str, _Prefetch] = {}

    # ----------------------------------------------------------- lifecycle
    def prepare(self, ops: Iterable[Operator]) -> None:
        for op in ops:
            token = id(op)
            if token not in self._ops:
                self._ops[token] = op
                self._stale = True  # current workers never saw this op

    def _ensure_pool(self):
        if not self._fork_ok:
            return None
        if self._pool is not None and not self._stale:
            return self._pool
        self._shutdown_pool()
        global _WORKER_OPS
        _WORKER_OPS = dict(self._ops)
        ctx = multiprocessing.get_context("fork")
        self._pool = ctx.Pool(self.processes)
        self._stale = False
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is None:
            return
        self._pool.close()
        self._pool.join()
        self._pool = None

    def close(self) -> None:
        for key in list(self._prefetched):
            self.drop_prefetched(key)
        self._shutdown_pool()

    # ------------------------------------------------------------- helpers
    def _tokens(self, ops: List[Operator]) -> List[int]:
        self.prepare(ops)
        return [id(op) for op in ops]

    def _serial_chain(self, ops: List[Operator], payload: Any) -> Any:
        for op in ops:
            payload = op.apply_partition(payload)
        return payload

    def _wire(self, payload: Any) -> bytes:
        wire = _encode(payload)
        self.stats.pickle_transfers += 1
        return wire

    # ---------------------------------------------------------- data plane
    def map_chain(self, ops: List[Operator], payloads: List[Any]) -> List[Any]:
        pool = self._ensure_pool()
        if pool is None:
            self.stats.fallbacks += len(payloads)
            self.stats.chains_run += len(payloads)
            return [self._serial_chain(ops, p) for p in payloads]
        tokens = self._tokens(ops)
        if self._stale:
            pool = self._ensure_pool()
        try:
            wires = [self._wire(p) for p in payloads]
        except Exception:  # unpicklable payload: run the whole map inline
            self.stats.fallbacks += len(payloads)
            self.stats.chains_run += len(payloads)
            return [self._serial_chain(ops, p) for p in payloads]
        asyncs = [
            pool.apply_async(_child_chain, ((tokens, wire),)) for wire in wires
        ]
        out: List[Any] = []
        for index, async_result in enumerate(asyncs):
            result = async_result.get()
            if result[0] == "ok":
                out.append(_decode(result[1]))
            elif result[0] == "unpicklable":
                # ran fine in the worker but its result cannot cross back;
                # operators are pure, so recompute inline
                self.stats.fallbacks += 1
                out.append(self._serial_chain(ops, payloads[index]))
            else:
                _raise_remote(result)
            self.stats.chains_run += 1
        return out

    # ------------------------------------------------------------ prefetch
    def prefetch_stage(
        self,
        key: str,
        kind: str,
        ops: List[Operator],
        payloads: List[Any],
    ) -> bool:
        if key in self._prefetched:
            return True
        pool = self._ensure_pool()
        if pool is None:
            return False
        tokens = self._tokens(ops)
        if self._stale:
            pool = self._ensure_pool()
        try:
            wires = [self._wire(p) for p in payloads]
        except Exception:  # unpicklable input: execute normally later
            return False
        if kind == "narrow":
            asyncs = [
                pool.apply_async(_child_chain, ((tokens, wire),))
                for wire in wires
            ]
        else:
            asyncs = [
                pool.apply_async(
                    _child_stage, ((tokens[0], tokens[1:], wires),)
                )
            ]
        self._prefetched[key] = _Prefetch(kind, asyncs, list(ops), list(payloads))
        self.stats.prefetches += 1
        return True

    def has_prefetched(self, key: str) -> bool:
        return key in self._prefetched

    def take_prefetched(self, key: str) -> Optional[List[Any]]:
        entry = self._prefetched.pop(key, None)
        if entry is None:
            return None
        self.stats.prefetch_hits += 1
        if entry.kind == "narrow":
            out: List[Any] = []
            for index, async_result in enumerate(entry.asyncs):
                result = async_result.get()
                if result[0] == "ok":
                    out.append(_decode(result[1]))
                elif result[0] == "unpicklable":
                    self.stats.fallbacks += 1
                    out.append(
                        self._serial_chain(entry.ops, entry.payloads[index])
                    )
                else:
                    _raise_remote(result)
                self.stats.chains_run += 1
            return out
        result = entry.asyncs[0].get()
        if result[0] == "ok":
            self.stats.chains_run += len(result[1])
            return [_decode(wire) for wire in result[1]]
        if result[0] == "unpicklable":
            self.stats.fallbacks += 1
            outs = entry.ops[0].apply_global(entry.payloads)
            return [self._serial_chain(entry.ops[1:], p) for p in outs]
        _raise_remote(result)
        return None  # pragma: no cover - _raise_remote always raises

    def drop_prefetched(self, key: str) -> None:
        entry = self._prefetched.pop(key, None)
        if entry is None:
            return
        # don't block a prune on wasted work: the pool discards the
        # results of futures nobody holds
        self.stats.prefetch_drops += 1
