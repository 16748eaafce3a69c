"""The simulated cluster: nodes, partition placement, cost accounting.

This is the substrate that replaces SEEP's physical cluster.  It owns the
nodes, the registry of live datasets, the memory policy, the simulated
clock and the metrics.  Operator functions still execute for real — the
cluster only *accounts* for where partitions live and what each access
costs, which is all the paper's scheduling and eviction decisions depend
on.

Partition placement is round-robin: partition ``i`` of every dataset lives
on node ``i mod N``, so datasets derived from one another stay co-located
and narrow stages never shuffle.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..core.datasets import Dataset, Partition
from ..core.errors import FaultError
from ..core.state import ExecutionState
from ..obs.bridge import TraceFold
from ..obs.registry import MetricsRegistry
from ..trace import Trace
from .clock import SimClock
from .costmodel import CostModel, GB
from .memory import LRUPolicy, MemoryPolicy
from .metrics import Metrics
from .node import Node, PartitionKey


@dataclass
class DatasetRecord:
    """Bookkeeping for one live dataset.

    ``partition_keys`` are the node-store keys backing each partition.  For
    ordinary datasets they are ``(dataset_id, i)``; for *composite*
    datasets (a choose keeping several branches, Definition 3.3's ``⊕``)
    they point at the member datasets' partitions — concatenation is pure
    metadata at the master, no bytes move.
    """

    dataset_id: str
    producer: Optional[str]
    partition_nodes: List[str]  # node id per partition index
    partition_bytes: List[int]
    pinned: bool = False
    partition_keys: Optional[List[PartitionKey]] = None

    def __post_init__(self):
        if self.partition_keys is None:
            self.partition_keys = [
                (self.dataset_id, i) for i in range(len(self.partition_nodes))
            ]

    @property
    def num_partitions(self) -> int:
        return len(self.partition_nodes)

    @property
    def nbytes(self) -> int:
        return sum(self.partition_bytes)


@dataclass
class FailureReport:
    """What one ``fail_node`` call destroyed, and what survived it.

    * ``reload`` — in-memory partitions with a checkpoint copy that fell
      back to the failed node's stable storage (transient failures only);
      recovery charges a disk read and promotes them back.
    * ``relocated`` — checkpointed partitions re-placed as disk copies on
      surviving nodes (permanent failures: the dead node's stable-storage
      state is re-fetched by its successors).
    * ``lost`` — partitions whose payload is gone; only lineage recompute
      (or a free drop, for dead data) can bring them back.
    """

    node_id: str
    permanent: bool = False
    reload: List[PartitionKey] = field(default_factory=list)
    relocated: List[PartitionKey] = field(default_factory=list)
    lost: List[PartitionKey] = field(default_factory=list)

    @property
    def reloadable(self) -> List[PartitionKey]:
        return self.reload + self.relocated


class Cluster:
    """A set of worker nodes with a shared cost model and memory policy."""

    def __init__(
        self,
        num_workers: int = 4,
        mem_per_worker: int = 1 * GB,
        cost_model: Optional[CostModel] = None,
        policy: Optional[MemoryPolicy] = None,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.cost_model = cost_model or CostModel()
        self.policy = policy or LRUPolicy()
        self.clock = SimClock()
        self.obs = MetricsRegistry()
        self.metrics = Metrics().bind(self.obs)
        self.trace = Trace(clock=self.clock)
        self.nodes: List[Node] = [
            Node(f"worker-{i}", mem_per_worker) for i in range(num_workers)
        ]
        self._records: Dict[str, DatasetRecord] = {}
        #: permanently failed (decommissioned) node ids — excluded from
        #: placement and from the worker count until ``reset``
        self._dead: Set[str] = set()
        #: cumulative per-node busy seconds (io + compute charged against
        #: the node), fed by the executor/recovery paths; the timeline
        #: sampler reads it to derive per-node utilisation over time
        self.busy_seconds: Dict[str, float] = {}
        self._watch_nodes()
        self._wire_trace()

    def note_busy(self, node_id: str, seconds: float) -> None:
        """Accumulate busy (io/compute) seconds charged against a node."""
        if seconds:
            self.busy_seconds[node_id] = self.busy_seconds.get(node_id, 0.0) + seconds

    def _watch_nodes(self) -> None:
        """Wire each node's memory changes into its per-node gauge."""
        for node in self.nodes:
            node.memory_gauge = self.obs.gauge("node_memory_in_use", node=node.id)
            node.memory_gauge.set(node.mem_used)

    def _wire_trace(self) -> None:
        """Derive the registry's counters from the trace.

        Every replayable counter is a fold of the committed events
        (:class:`~repro.obs.bridge.TraceFold`), run by the registry over
        the events appended since it was last read — so a run whose
        counters nobody reads pays no fold.  The one thing the trace cannot
        say about itself is counted here: a raising subscriber is detached
        by the bus (never fatal to the job) and shows up as
        ``live_subscriber_errors`` so dashboards and CI can spot a broken
        monitor.
        """
        self.obs.fold_from(self.trace.events, TraceFold(self.obs))
        counter = self.obs.counter("live_subscriber_errors")
        self.trace.on_subscriber_error = (
            lambda callback, exc, c=counter: c.inc()
        )

    # ------------------------------------------------------------ topology
    @property
    def num_workers(self) -> int:
        return len(self.alive_nodes)

    @property
    def alive_nodes(self) -> List[Node]:
        """Nodes currently accepting work (decommissioned ones excluded)."""
        if not self._dead:
            return self.nodes
        return [n for n in self.nodes if n.id not in self._dead]

    def node(self, node_id: str) -> Node:
        for node in self.nodes:
            if node.id == node_id:
                return node
        raise KeyError(node_id)

    def node_for_partition(self, index: int) -> Node:
        alive = self.alive_nodes
        return alive[index % len(alive)]

    # ------------------------------------------------------------ datasets
    def dataset_ids(self) -> List[str]:
        return list(self._records)

    def has_dataset(self, dataset_id: str) -> bool:
        return dataset_id in self._records

    def record(self, dataset_id: str) -> DatasetRecord:
        return self._records[dataset_id]

    def live_dataset_count(self) -> int:
        return len(self._records)

    def register_dataset(self, dataset: Dataset) -> Dict[str, float]:
        """Place a dataset's partitions round-robin; returns per-node seconds.

        Storing charges memory-write time (or disk-write time when the
        partition cannot fit in memory at all) on the receiving node.
        """
        per_node: Dict[str, float] = {}
        nodes: List[str] = []
        for partition in dataset.partitions:
            node = self.node_for_partition(partition.index)
            seconds = self._store(node, partition)
            per_node[node.id] = per_node.get(node.id, 0.0) + seconds
            nodes.append(node.id)
        self._records[dataset.id] = DatasetRecord(
            dataset.id, dataset.producer, nodes, [p.nominal_bytes for p in dataset.partitions]
        )
        self.trace.emit(
            "dataset_registered",
            dataset=dataset.id,
            producer=dataset.producer,
            nbytes=self._records[dataset.id].nbytes,
            partitions=len(nodes),
        )
        return per_node

    def _store(self, node: Node, partition: Partition) -> float:
        nbytes = partition.nominal_bytes
        key = partition.key
        in_memory = nbytes <= node.mem_capacity
        seconds = self._ensure_space(node, nbytes) if in_memory else 0.0
        node.put(key, partition.data, nbytes, self.clock.now, in_memory=in_memory)
        self.trace.emit(
            "partition_stored",
            dataset=key[0],
            index=key[1],
            node=node.id,
            nbytes=nbytes,
            tier="memory" if in_memory else "disk",
        )
        if in_memory:
            return seconds + self.cost_model.mem_write_time(nbytes)
        return self.cost_model.disk_write_time(nbytes)

    def register_composite(
        self, dataset_id: str, member_ids: List[str], producer: Optional[str] = None
    ) -> None:
        """Fuse member datasets into one logical dataset (zero-copy ``⊕``).

        The members' records are absorbed: the composite's partitions point
        at the members' node slots, so no data moves and memory accounting
        is unchanged.  This is how a choose keeping several branches hands
        their datasets downstream.
        """
        keys: List[PartitionKey] = []
        nodes: List[str] = []
        sizes: List[int] = []
        for member_id in member_ids:
            record = self._records.pop(member_id)
            keys.extend(record.partition_keys)
            nodes.extend(record.partition_nodes)
            sizes.extend(record.partition_bytes)
        self._records[dataset_id] = DatasetRecord(
            dataset_id, producer, nodes, sizes, partition_keys=keys
        )
        self.trace.emit(
            "composite_registered",
            dataset=dataset_id,
            members=list(member_ids),
            producer=producer,
        )

    def load_partition(self, dataset_id: str, index: int) -> Tuple[Any, float, str]:
        """Read one partition; returns ``(payload, seconds, node_id)``.

        A memory-resident partition is a *hit* (memory-read time); a
        disk-resident one is a *miss* (streamed from disk at disk-read
        time).
        """
        record = self._records[dataset_id]
        node = self.node(record.partition_nodes[index])
        key: PartitionKey = record.partition_keys[index]
        slot = node.slot(key)
        nbytes = slot.nbytes
        hit = slot.in_memory
        node.touch(key, self.clock.now)
        # a miss streams the partition from disk.  It is *not* promoted back
        # into memory — tasks stream spilled inputs (as Spark does); data
        # only re-enters memory as part of newly produced outputs.  An
        # eviction of still-needed data therefore costs one disk read per
        # future access, which is exactly what AMM's preference weighs.
        seconds = (
            self.cost_model.mem_read_time(nbytes)
            if hit
            else self.cost_model.disk_read_time(nbytes)
        )
        self.trace.emit(
            "dataset_access",
            dataset=dataset_id,
            index=index,
            node=node.id,
            hit=hit,
            nbytes=nbytes,
            seconds=seconds,
            reload=not hit and slot.evicted,
        )
        return slot.payload, seconds, node.id

    def peek_payloads(self, dataset_id: str) -> List[Any]:
        """Read payloads without cost accounting (test/debug helper)."""
        record = self._records[dataset_id]
        out = []
        for key, node_id in zip(record.partition_keys, record.partition_nodes):
            out.append(self.node(node_id).slot(key).payload)
        return out

    def materialize(self, dataset_id: str, producer: Optional[str] = None) -> Dataset:
        """Rebuild a :class:`Dataset` view over a registered dataset.

        Does not charge access costs — callers that model reads (the choose
        evaluator, the sink) account for them explicitly.
        """
        record = self._records[dataset_id]
        parts = []
        for index, (key, node_id) in enumerate(
            zip(record.partition_keys, record.partition_nodes)
        ):
            slot = self.node(node_id).slot(key)
            parts.append(Partition(dataset_id, index, slot.payload, slot.nbytes))
        return Dataset(parts, dataset_id=dataset_id, producer=producer or record.producer)

    def discard_dataset(self, dataset_id: str) -> None:
        """Free a dataset everywhere (memory and disk) at zero cost (R3)."""
        record = self._records.pop(dataset_id, None)
        if record is None:
            return
        for key, node_id in zip(record.partition_keys, record.partition_nodes):
            self.node(node_id).remove(key)
        self.trace.emit("dataset_discarded", dataset=dataset_id)

    def pin_dataset(self, dataset_id: str) -> None:
        """Mark every partition as pinned (Spark ``cache()`` emulation)."""
        record = self._records[dataset_id]
        record.pinned = True
        for key, node_id in zip(record.partition_keys, record.partition_nodes):
            self.node(node_id).slot(key).pinned = True

    # -------------------------------------------------------------- memory
    def _ensure_space(self, node: Node, nbytes: int) -> float:
        """Evict until ``nbytes`` fit in memory; returns spill seconds.

        Victims come from one policy ``eviction_round`` per call: the
        ranking inputs cannot change while a store is in flight, so the
        policy ranks the candidates once instead of re-sorting them per
        eviction.  The round runs dry when its tier is exhausted (e.g. all
        unpinned slots evicted); the node is then re-consulted, which is
        how the pinned-slots-as-last-resort fallback engages.
        """
        seconds = 0.0
        round_ = None
        while node.free_memory() < nbytes:
            if round_ is None:
                candidates = node.eviction_candidates()
                if not candidates:
                    # Nothing evictable: the caller's partition goes to disk
                    # via the capacity check; protected slots stay resident.
                    break
                round_ = self.policy.eviction_round(node, candidates)
            # the ranking snapshot reflects the candidates before the
            # demotion mutates the node, so the validator sees exactly
            # what the policy ranked
            victim, ranking = round_.pop()
            if victim is None:
                round_ = None
                if not node.eviction_candidates():
                    break
                continue
            spilled = self.policy.should_spill(victim)
            self.trace.emit(
                "partition_evicted",
                node=node.id,
                dataset=victim.dataset_id,
                index=victim.key[1],
                nbytes=victim.nbytes,
                spilled=spilled,
                policy=self.policy.name,
                alpha=getattr(self.policy, "_alpha", None),
                ranking=ranking,
            )
            node.demote(victim.key).evicted = True
            if spilled:
                seconds += self.cost_model.disk_write_time(victim.nbytes)
            # else: the policy knows the data is dead — dropped for free
        return seconds

    @contextlib.contextmanager
    def protect(self, dataset_ids: Iterable[str]):
        """Shield the given datasets' partitions from eviction for the
        duration (inputs of the currently executing stage)."""
        grouped: Dict[str, List[PartitionKey]] = {}
        for dataset_id in dataset_ids:
            record = self._records.get(dataset_id)
            if record is None:
                continue
            for key, node_id in zip(record.partition_keys, record.partition_nodes):
                grouped.setdefault(node_id, []).append(key)
        for node_id, node_keys in grouped.items():
            self.node(node_id).protected.update(node_keys)
        try:
            yield
        finally:
            for node_id, node_keys in grouped.items():
                self.node(node_id).protected.difference_update(node_keys)

    # -------------------------------------------------------------- faults
    def fail_node(
        self, node_id: str, permanent: bool = False, reason: str = "injected"
    ) -> FailureReport:
        """Crash a node and report what its failure cost the cluster.

        A *transient* failure (the default) wipes the node's memory: slots
        with a checkpoint copy fall back to stable storage (reloadable),
        purely memory-resident slots are lost; local disk spills survive
        the restart.  A *permanent* failure decommissions the node — only
        checkpointed partitions survive, re-fetched from stable storage
        onto the surviving nodes as disk copies, and the node drops out of
        placement until :meth:`reset` (graceful degradation).
        """
        node = self.node(node_id)
        report = FailureReport(node_id=node_id, permanent=permanent)
        if node_id in self._dead:
            return report  # already decommissioned: nothing left to lose
        if permanent:
            self._dead.add(node_id)
            survivors = self.alive_nodes
            if not survivors:
                self._dead.discard(node_id)
                raise FaultError(
                    f"no surviving workers after permanent failure of {node_id!r}"
                )
            for key, slot in sorted(node.slots.items()):
                if slot.checkpointed:
                    target = survivors[key[1] % len(survivors)]
                    moved = target.put(
                        key, slot.payload, slot.nbytes, self.clock.now, in_memory=False
                    )
                    moved.checkpointed = True
                    moved.pinned = slot.pinned
                    self._repoint(key, target.id)
                    report.relocated.append(key)
                else:
                    report.lost.append(key)
            node.slots.clear()
            node.protected.clear()
            node.mem_used = 0
            node._notify()
        else:
            report.reload, report.lost = node.fail_memory()
        self.trace.emit(
            "node_failed",
            node=node_id,
            permanent=permanent,
            lost=len(report.lost),
            reloadable=len(report.reloadable),
        )
        if permanent:
            self.trace.emit("node_decommissioned", node=node_id, reason=reason)
        return report

    def mark_checkpointed(self, dataset_id: str) -> None:
        """Flag a dataset's partitions as checkpoint-backed (§5).

        Checkpointed partitions survive node failures: a restarted node
        reloads them from stable storage instead of triggering a lineage
        recompute.
        """
        record = self._records.get(dataset_id)
        if record is None:
            return
        for key, node_id in zip(record.partition_keys, record.partition_nodes):
            node = self.node(node_id)
            if node.has(key):
                node.slot(key).checkpointed = True

    def _locate(self, key: PartitionKey) -> Tuple[Optional[DatasetRecord], int]:
        """The record (and position) whose partitions include ``key``."""
        for record in self._records.values():
            for pos, candidate in enumerate(record.partition_keys):
                if candidate == key:
                    return record, pos
        return None, -1

    def key_available(self, key: PartitionKey) -> Optional[Tuple[str, int]]:
        """The live dataset (id, position) referencing a partition key, when
        its bytes are readable now: the home node must be alive and still
        hold the slot (a failure may have destroyed it while the record
        awaits recovery).  A key admitted under one dataset id may later be
        owned by another (a choose absorbing branch tails into a composite),
        so the result cache resolves its reads through this (R3)."""
        record, pos = self._locate(key)
        if record is None:
            return None
        node_id = record.partition_nodes[pos]
        if node_id in self._dead or not self.node(node_id).has(key):
            return None
        return record.dataset_id, pos

    def key_in_memory(self, key: PartitionKey) -> bool:
        """Whether a partition key is memory-resident (cost estimation)."""
        record, pos = self._locate(key)
        if record is None:
            return False
        node = self.node(record.partition_nodes[pos])
        return node.has(key) and node.slot(key).in_memory

    def _repoint(self, key: PartitionKey, node_id: str) -> None:
        """Update every record referencing ``key`` to its new home node."""
        for record in self._records.values():
            for pos, candidate in enumerate(record.partition_keys):
                if candidate == key:
                    record.partition_nodes[pos] = node_id

    def recover_reload(self, key: PartitionKey, promote: bool = True) -> float:
        """Reload one checkpoint-resident partition after a failure.

        Charges a disk read from the checkpoint copy; with ``promote`` the
        slot re-enters memory (its pre-failure residency), evicting under
        pressure like any other store.  Returns the charged seconds.
        """
        record, pos = self._locate(key)
        if record is None:
            return 0.0
        node = self.node(record.partition_nodes[pos])
        if not node.has(key):
            return 0.0
        slot = node.slot(key)
        seconds = self.cost_model.disk_read_time(slot.nbytes)
        if promote and not slot.in_memory:
            seconds += self._ensure_space(node, slot.nbytes)
            if node.free_memory() >= slot.nbytes:
                node.promote(key, self.clock.now)
                seconds += self.cost_model.mem_write_time(slot.nbytes)
        self.note_busy(node.id, seconds)
        self.trace.emit(
            "recovery",
            dataset=record.dataset_id,
            index=pos,
            nbytes=slot.nbytes,
            node=node.id,
            action="reload",
        )
        return seconds

    def restore_partitions(
        self,
        dataset: Dataset,
        into: Optional[str] = None,
        keys: Optional[Iterable[PartitionKey]] = None,
    ) -> Dict[str, float]:
        """Re-store recomputed partitions into an existing dataset record.

        Used by lineage recovery: the record — and therefore any composite
        or choose alias pointing at it — keeps its identity; only the node
        slots named by ``keys`` (default: all of the dataset's) are filled
        back in.  Partitions homed on a decommissioned node are re-placed
        round-robin across the survivors.  Returns per-node store seconds.
        """
        record = self._records[into or dataset.id]
        wanted = set(keys) if keys is not None else None
        per_node: Dict[str, float] = {}
        for partition in dataset.partitions:
            key = partition.key
            if wanted is not None and key not in wanted:
                continue
            try:
                pos = record.partition_keys.index(key)
            except ValueError:
                raise FaultError(
                    f"recomputed partition {key} does not belong to dataset "
                    f"{record.dataset_id!r}"
                ) from None
            node = self.node(record.partition_nodes[pos])
            if node.id in self._dead:
                node = self.node_for_partition(partition.index)
                record.partition_nodes[pos] = node.id
            seconds = self._store(node, partition)
            per_node[node.id] = per_node.get(node.id, 0.0) + seconds
            if record.pinned:
                node.slot(key).pinned = True
        return per_node

    def missing_partitions(self, dataset_id: str) -> List[PartitionKey]:
        """Partition keys of a registered dataset with no backing slot."""
        record = self._records[dataset_id]
        return [
            key
            for key, node_id in zip(record.partition_keys, record.partition_nodes)
            if not self.node(node_id).has(key)
        ]

    # ------------------------------------------------------------ snapshot
    def snapshot_state(self) -> ExecutionState:
        """The Appendix A state ``(D, δ, μ)`` at this instant."""
        sizes: Dict[Tuple[str, str], int] = {}
        in_memory: Dict[str, frozenset] = {}
        for node in self.nodes:
            mem_ids = set()
            for slot in node.slots.values():
                sizes[(node.id, slot.dataset_id)] = (
                    sizes.get((node.id, slot.dataset_id), 0) + slot.nbytes
                )
                if slot.in_memory:
                    mem_ids.add(slot.dataset_id)
            in_memory[node.id] = frozenset(mem_ids)
        return ExecutionState(
            datasets=frozenset(self._records),
            sizes=sizes,
            in_memory=in_memory,
            memory_limits={n.id: n.mem_capacity for n in self.nodes},
        )

    def reset(self) -> None:
        """Clear all datasets, metrics and the clock (cold start)."""
        for node in self.nodes:
            node.slots.clear()
            node.mem_used = 0
            node.protected.clear()
        self._records.clear()
        self._dead.clear()
        self.busy_seconds = {}
        self.clock.reset()
        self.obs = MetricsRegistry()
        self.metrics = Metrics().bind(self.obs)
        self.trace = Trace(clock=self.clock)
        self._watch_nodes()
        self._wire_trace()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Cluster(workers={self.num_workers}, "
            f"policy={self.policy.name}, datasets={len(self._records)})"
        )
