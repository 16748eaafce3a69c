"""Memory management policies: LRU baseline and AMM (Algorithm 2).

When a node exhausts its memory, the policy picks the partition to evict.

* :class:`LRUPolicy` — evicts the least-recently-used partition, the policy
  of existing systems (Spark) the paper compares against.
* :class:`AMMPolicy` — anticipatory memory management: ranks each in-memory
  partition by the preference ``pre(d) = acc(d) · δ(n, d) · α`` where
  ``acc(d)`` is the number of *future* accesses the MDF structure implies
  (consumers of ``pro(d)`` not yet executed, minus pruned branches),
  ``δ(n, d)`` is the partition's size at the node, and ``α`` the hardware
  disk/memory cost ratio.  The partition with the lowest preference is
  evicted.

Two degenerate variants (:class:`AccessOnlyPolicy`, :class:`SizeOnlyPolicy`)
isolate the contribution of each factor in the preference formula — the
ablation DESIGN.md §5 calls out.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from .node import Node, Slot

AccessCounter = Callable[[str], int]  # dataset_id -> remaining future accesses


class _EvictionRound:
    """Heap-ordered victims over one ranking pass.

    Within one ``_ensure_space`` call nothing that feeds the ranking can
    change — ``acc`` (the master mutates consumers only between stages),
    ``last_access`` (no loads happen mid-store) and sizes are all frozen —
    so the round ranks once: victims pop off a heap in ``O(log n)`` and
    each event's ranking snapshot is the surviving candidates in their
    original (node-store) order, exactly what a fresh ``ranking_snapshot``
    over fresh ``eviction_candidates`` would produce.
    """

    def __init__(
        self,
        candidates: List[Slot],
        entries: List[Dict[str, Any]],
        order_keys: List[Any],
    ):
        self._slots = list(candidates)
        self._entries = entries
        self._alive = [True] * len(candidates)
        self._heap = [(key, i) for i, key in enumerate(order_keys)]
        heapq.heapify(self._heap)

    def pop(self) -> Tuple[Optional[Slot], Optional[List[Dict[str, Any]]]]:
        while self._heap:
            _, i = heapq.heappop(self._heap)
            if not self._alive[i]:  # pragma: no cover - victims leave via pop
                continue
            ranking = [
                entry
                for j, entry in enumerate(self._entries)
                if self._alive[j]
            ]
            self._alive[i] = False
            return self._slots[i], ranking
        return None, None


class MemoryPolicy:
    """Strategy deciding which in-memory partition a node evicts.

    A policy *is* its :meth:`eviction_key` (plus what it records and
    whether it spills): the victim, the eviction round and any shipped
    preference list are all orderings by that one key.
    """

    name = "base"

    def eviction_key(self, slot: Slot) -> Any:
        """Sort key of one candidate: the smallest key is evicted first."""
        raise NotImplementedError

    def select_victim(self, node: Node, candidates: List[Slot]) -> Slot:
        return min(candidates, key=self.eviction_key)

    def bind(self, access_counter: Optional[AccessCounter], alpha: float) -> None:
        """Called by the engine before execution with workflow context.

        The default implementation ignores the context; AMM stores it.
        """

    def should_spill(self, slot: Slot) -> bool:
        """Whether an evicted partition must be written to disk.

        Workflow-oblivious policies cannot tell dead data from live data,
        so they always pay the spill.  AMM knows from the MDF structure
        when a dataset has no future readers (``acc = 0``) and drops it
        for free instead — requirement R4 in action.
        """
        return True

    def ranking_snapshot(self, candidates: List[Slot]) -> List[Dict[str, Any]]:
        """What this policy ranked an eviction's candidates by.

        Recorded into every ``partition_evicted`` trace event so invariant
        validators can re-derive the decision.  Workflow-oblivious policies
        only expose recency; AMM overrides this to expose the full
        ``pre(d)`` inputs.
        """
        return [
            {
                "dataset": slot.dataset_id,
                "index": slot.key[1],
                "nbytes": slot.nbytes,
                "last_access": slot.last_access,
            }
            for slot in candidates
        ]

    def eviction_round(self, node: Node, candidates: List[Slot]):
        """Victim iterator for one ``_ensure_space`` call.

        Returns an object whose ``pop()`` yields ``(victim, ranking)``
        pairs until the candidates run dry (``(None, None)``).
        """
        return _EvictionRound(
            candidates,
            self.ranking_snapshot(candidates),
            [self.eviction_key(slot) for slot in candidates],
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class LRUPolicy(MemoryPolicy):
    """Least-recently-used eviction (the Spark/Tachyon baseline)."""

    name = "lru"

    def eviction_key(self, slot: Slot) -> Any:
        return (slot.last_access, slot.key)


class AMMPolicy(MemoryPolicy):
    """Anticipatory memory management (Algorithm 2).

    ``pre(d) = acc(d) · δ(n, d) · α``; the slot with the lowest preference
    is evicted.  Ties break towards least-recently-used so behaviour is
    deterministic and degrades gracefully to LRU when the MDF provides no
    signal (all counts equal).
    """

    name = "amm"

    def __init__(self):
        self._access_counter: Optional[AccessCounter] = None
        self._alpha: float = 1.0

    def bind(self, access_counter: Optional[AccessCounter], alpha: float) -> None:
        self._access_counter = access_counter
        self._alpha = alpha

    def preference(self, slot: Slot) -> float:
        """The keep-in-memory preference ``pre(d)`` of one partition."""
        acc = 1
        if self._access_counter is not None:
            acc = self._access_counter(slot.dataset_id)
        return acc * slot.nbytes * self._alpha

    def eviction_key(self, slot: Slot) -> Any:
        return (self.preference(slot), slot.last_access, slot.key)

    def should_spill(self, slot: Slot) -> bool:
        if self._access_counter is None:
            return True
        return self._access_counter(slot.dataset_id) > 0

    def ranking_snapshot(self, candidates: List[Slot]) -> List[Dict[str, Any]]:
        """The full ``pre(d) = acc(d)·δ(n,d)·α`` inputs per candidate."""
        out: List[Dict[str, Any]] = []
        for slot in candidates:
            acc = (
                self._access_counter(slot.dataset_id)
                if self._access_counter is not None
                else None
            )
            out.append(
                {
                    "dataset": slot.dataset_id,
                    "index": slot.key[1],
                    "nbytes": slot.nbytes,
                    "last_access": slot.last_access,
                    "acc": acc,
                    "pre": self.preference(slot),
                }
            )
        return out

    def preference_order(self, node: Node) -> List[Slot]:
        """All in-memory slots ordered by rising preference (eviction order).

        This is the list the master ships to workers with each scheduling
        decision in the paper's implementation (§5).
        """
        return sorted(node.in_memory_slots(), key=self.eviction_key)


class AccessOnlyPolicy(AMMPolicy):
    """Ablation: AMM preference reduced to the future-access count only."""

    name = "amm-access-only"

    def preference(self, slot: Slot) -> float:
        acc = 1
        if self._access_counter is not None:
            acc = self._access_counter(slot.dataset_id)
        return float(acc)


class SizeOnlyPolicy(AMMPolicy):
    """Ablation: AMM preference reduced to partition size only."""

    name = "amm-size-only"

    def preference(self, slot: Slot) -> float:
        return float(slot.nbytes)


#: Public alias for the eviction seam: a memory policy *is* the eviction
#: policy (``eviction_key`` + ``should_spill`` + ``ranking_snapshot``).
EvictionPolicy = MemoryPolicy

# ------------------------------------------------------------------ registry

#: name -> factory() -> MemoryPolicy.  Mirrors the scheduler registry in
#: :mod:`repro.engine.policies`; factories return a fresh instance per
#: call (policies hold per-run bindings via :meth:`MemoryPolicy.bind`).
EVICTION_POLICIES: Dict[str, Callable[[], MemoryPolicy]] = {}


def register_eviction_policy(
    name: str, factory: Callable[[], MemoryPolicy]
) -> None:
    """Register an eviction policy under ``name`` for string resolution."""
    if name in EVICTION_POLICIES:
        raise ValueError(f"eviction policy {name!r} already registered")
    EVICTION_POLICIES[name] = factory


def available_policies() -> List[str]:
    """Registered eviction-policy names, sorted."""
    return sorted(EVICTION_POLICIES)


def make_policy(name: str) -> MemoryPolicy:
    """Resolve an eviction-policy name to a fresh instance.

    Used by ``run_mdf(memory=...)``, the benchmarks and the policy lab;
    any name added via :func:`register_eviction_policy` resolves here.
    """
    try:
        factory = EVICTION_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown memory policy {name!r} (registered: {available_policies()})"
        ) from None
    return factory()


register_eviction_policy("lru", LRUPolicy)
register_eviction_policy("amm", AMMPolicy)
register_eviction_policy("amm-access-only", AccessOnlyPolicy)
register_eviction_policy("amm-size-only", SizeOnlyPolicy)
