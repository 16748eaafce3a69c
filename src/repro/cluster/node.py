"""Worker nodes of the simulated cluster.

Each node has finite memory ``mem(n)`` and unbounded disk (§2.1).  A node
stores partition *slots*: the real payload plus its nominal size and where
it currently lives (memory or disk).  Slots track their last access time
for the LRU policy and can be pinned (Spark ``cache()`` emulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

PartitionKey = Tuple[str, int]  # (dataset_id, partition_index)


@dataclass
class Slot:
    """One partition held at a node."""

    key: PartitionKey
    payload: Any
    nbytes: int
    in_memory: bool = True
    last_access: float = 0.0
    pinned: bool = False
    #: a checkpoint copy exists on stable storage (§5): the partition
    #: survives node failures and reloads instead of recomputing
    checkpointed: bool = False
    #: the slot is disk-resident because an eviction spilled it — reads
    #: that stream it back are *eviction-induced reloads*, the cost AMM's
    #: preference weighs.  Cleared when the slot re-enters memory.
    evicted: bool = False

    @property
    def dataset_id(self) -> str:
        return self.key[0]


class Node:
    """A worker node: finite memory, unbounded disk, a partition store."""

    def __init__(self, node_id: str, mem_capacity: int):
        if mem_capacity <= 0:
            raise ValueError("memory capacity must be positive")
        self.id = node_id
        self.mem_capacity = int(mem_capacity)
        self.slots: Dict[PartitionKey, Slot] = {}
        self.mem_used = 0
        #: keys that must not be evicted right now (inputs/outputs of the
        #: currently executing stage)
        self.protected: set = set()
        #: set to ``mem_used`` after every change: the cluster's per-node
        #: memory gauge (anything with ``set(value)``)
        self.memory_gauge: Optional[Any] = None

    def _notify(self) -> None:
        if self.memory_gauge is not None:
            self.memory_gauge.set(self.mem_used)

    # -------------------------------------------------------------- queries
    def has(self, key: PartitionKey) -> bool:
        return key in self.slots

    def slot(self, key: PartitionKey) -> Slot:
        return self.slots[key]

    def in_memory_slots(self) -> List[Slot]:
        return [s for s in self.slots.values() if s.in_memory]

    def memory_datasets(self) -> set:
        """Dataset ids with at least one in-memory partition here (``μ(n)``)."""
        return {s.dataset_id for s in self.slots.values() if s.in_memory}

    def free_memory(self) -> int:
        return self.mem_capacity - self.mem_used

    # ------------------------------------------------------------ mutations
    def put(self, key: PartitionKey, payload: Any, nbytes: int, now: float, in_memory: bool) -> Slot:
        """Insert or replace a slot; caller must have made space first."""
        existing = self.slots.get(key)
        if existing is not None and existing.in_memory:
            self.mem_used -= existing.nbytes
        slot = Slot(key, payload, int(nbytes), in_memory=in_memory, last_access=now)
        if existing is not None:
            slot.pinned = existing.pinned
            slot.checkpointed = existing.checkpointed
        self.slots[key] = slot
        if in_memory:
            self.mem_used += slot.nbytes
        self._notify()
        return slot

    def promote(self, key: PartitionKey, now: float) -> Slot:
        """Move a disk slot into memory; caller must have made space."""
        slot = self.slots[key]
        if not slot.in_memory:
            slot.in_memory = True
            slot.evicted = False
            self.mem_used += slot.nbytes
            self._notify()
        slot.last_access = now
        return slot

    def demote(self, key: PartitionKey) -> Slot:
        """Spill a memory slot to disk (the eviction mechanism)."""
        slot = self.slots[key]
        if slot.in_memory:
            slot.in_memory = False
            self.mem_used -= slot.nbytes
            self._notify()
        return slot

    def touch(self, key: PartitionKey, now: float) -> None:
        self.slots[key].last_access = now

    def remove(self, key: PartitionKey) -> Optional[Slot]:
        """Drop a slot entirely (dataset discarded); frees memory at no cost."""
        slot = self.slots.pop(key, None)
        if slot is not None and slot.in_memory:
            self.mem_used -= slot.nbytes
            self._notify()
        return slot

    def fail_memory(self) -> Tuple[List[PartitionKey], List[PartitionKey]]:
        """Simulate a node restart: the memory contents are wiped.

        Partitions with a checkpoint copy on stable storage (§5, SEEP's
        checkpoint mechanism) fall back to their disk copy and can simply
        reload; everything else held only in memory is *gone* and must be
        recomputed from lineage.  Disk-resident slots (spills, demoted
        checkpoints) survive a restart untouched.

        Returns ``(reloadable, lost)`` partition keys.
        """
        reloadable: List[PartitionKey] = []
        lost: List[PartitionKey] = []
        for key, slot in list(self.slots.items()):
            if not slot.in_memory:
                continue
            if slot.checkpointed:
                slot.in_memory = False
                reloadable.append(key)
            else:
                del self.slots[key]
                lost.append(key)
        self.mem_used = 0
        self._notify()
        return reloadable, lost

    def eviction_candidates(self) -> List[Slot]:
        """In-memory, unprotected, unpinned slots — in eviction order the
        policy will rank.  Pinned slots are only offered when nothing else
        is evictable (a full cache must still make progress)."""
        unpinned = [
            s
            for s in self.slots.values()
            if s.in_memory and s.key not in self.protected and not s.pinned
        ]
        if unpinned:
            return unpinned
        return [
            s
            for s in self.slots.values()
            if s.in_memory and s.key not in self.protected
        ]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Node({self.id}, mem={self.mem_used}/{self.mem_capacity}, "
            f"slots={len(self.slots)})"
        )
