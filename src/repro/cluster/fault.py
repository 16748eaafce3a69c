"""Checkpoint-based fault tolerance (§5 of the paper).

SEEP recovers failed operators from checkpoints; for MDFs the crucial
addition is that the *master* keeps the small evaluator scores of choose
operators, so a failure during branch exploration never forces re-running
whole branches just to recompute scores.

The simulated mechanism:

* the master snapshots choose scores (:class:`ChooseScoreStore`) as they
  arrive — recovery of a choose decision is free;
* a node failure wipes the node's memory; partitions with a checkpoint
  copy simply reload, partitions without any copy are recomputed from
  lineage by the engine (:class:`repro.engine.recovery.RecoveryManager`),
  and already-dead data (``acc = 0``) is dropped free.

:class:`FailureInjector` deterministically schedules failures — whole-node
crashes (:class:`FailureEvent`, optionally permanent) and transient task
failures retried with backoff (:class:`TaskFailureEvent`) — for tests and
the failure-injection benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cluster import Cluster, FailureReport
from .node import PartitionKey


class ChooseScoreStore:
    """Master-held store of choose evaluator scores (tiny, survives workers).

    Keyed by ``(choose_name, branch_id)``; exactly the state §5 says the
    master maintains so branch results never need recomputing just to
    recover a selection decision.
    """

    def __init__(self):
        self._scores: Dict[Tuple[str, str], float] = {}

    def put(self, choose_name: str, branch_id: str, score: float) -> None:
        self._scores[(choose_name, branch_id)] = score

    def get(self, choose_name: str, branch_id: str) -> Optional[float]:
        return self._scores.get((choose_name, branch_id))

    def has(self, choose_name: str, branch_id: str) -> bool:
        return (choose_name, branch_id) in self._scores

    def scores_for(self, choose_name: str) -> Dict[str, float]:
        return {
            branch: score
            for (choose, branch), score in self._scores.items()
            if choose == choose_name
        }

    def __len__(self) -> int:
        return len(self._scores)


@dataclass
class CheckpointConfig:
    """Periodic checkpointing of stage outputs (§5's fault-tolerance cost).

    Every ``interval_stages``-th executed stage writes its output dataset
    to stable storage.  The write overlaps with execution, so only
    ``overhead_fraction`` of the full disk-write time is charged.  With
    checkpointing disabled (the default) recovery relies on the spill
    copies that eviction produces anyway — the optimistic end of the
    spectrum; enabling it makes the recovery guarantee explicit and paid
    for.
    """

    interval_stages: int = 1
    overhead_fraction: float = 0.1

    def __post_init__(self):
        if self.interval_stages < 1:
            raise ValueError("interval_stages must be >= 1")
        if not 0.0 <= self.overhead_fraction <= 1.0:
            raise ValueError("overhead_fraction must be in [0, 1]")


@dataclass
class FailureEvent:
    """A scheduled node failure: fires before executing stage ``stage_index``.

    ``permanent`` decommissions the node (its partition shares rebalance
    across the survivors) instead of restarting it.
    """

    stage_index: int
    node_id: str
    fired: bool = False
    permanent: bool = False


@dataclass
class TaskFailureEvent:
    """A transient task failure: the node's tasks of stage ``stage_index``
    fail ``attempts`` times before succeeding.  The engine retries with
    backoff up to ``EngineConfig.max_task_retries``; beyond that the node
    is declared dead and decommissioned."""

    stage_index: int
    node_id: str
    attempts: int = 1
    fired: bool = False


class FailureInjector:
    """Deterministically injects failures at chosen stage boundaries."""

    def __init__(
        self,
        events: Optional[List[FailureEvent]] = None,
        task_events: Optional[List[TaskFailureEvent]] = None,
    ):
        self.events = events or []
        self.task_events = task_events or []

    @classmethod
    def at_stages(
        cls, pairs: List[Tuple[int, str]], permanent: bool = False
    ) -> "FailureInjector":
        return cls(
            [
                FailureEvent(stage_index, node_id, permanent=permanent)
                for stage_index, node_id in pairs
            ]
        )

    @classmethod
    def task_failures(cls, triples: List[Tuple[int, str, int]]) -> "FailureInjector":
        """Injector of transient task failures: ``(stage_index, node, attempts)``."""
        return cls(
            task_events=[
                TaskFailureEvent(stage_index, node_id, attempts)
                for stage_index, node_id, attempts in triples
            ]
        )

    def maybe_fail(self, cluster: Cluster, stage_index: int) -> List[FailureReport]:
        """Fire any due node failure; returns one report per failed node."""
        reports: List[FailureReport] = []
        for event in self.events:
            if not event.fired and event.stage_index == stage_index:
                event.fired = True
                reports.append(
                    cluster.fail_node(event.node_id, permanent=event.permanent)
                )
        return reports

    def due_task_failures(self, stage_index: int) -> List[TaskFailureEvent]:
        """Fire (and return) the task failures due at this stage boundary."""
        due: List[TaskFailureEvent] = []
        for event in self.task_events:
            if not event.fired and event.stage_index == stage_index:
                event.fired = True
                due.append(event)
        return due

    def unfired(self) -> List[Tuple[str, object]]:
        """Events that never fired (scheduled past the last stage index)."""
        out: List[Tuple[str, object]] = []
        for event in self.events:
            if not event.fired:
                out.append(("node", event))
        for task_event in self.task_events:
            if not task_event.fired:
                out.append(("task", task_event))
        return out


def recover_partitions(cluster: Cluster, lost: List[PartitionKey]) -> float:
    """Charge the recovery cost for partitions lost from a node's memory.

    Cluster-level approximation used by substrate tests and standalone
    simulations: partitions with a surviving disk/checkpoint copy reload
    (a plain recovery, *not* a re-execution); partitions without any copy
    count one ``recovery_reexecutions`` each, their upstream re-execution
    modelled as a disk reload at checkpoint bandwidth.  The engine's
    :class:`repro.engine.recovery.RecoveryManager` is the real successor:
    it replays actual lineage and uses the same counting rules.
    """
    seconds = 0.0
    for dataset_id, index in lost:
        if not cluster.has_dataset(dataset_id):
            continue
        record = cluster.record(dataset_id)
        nbytes = record.partition_bytes[index]
        node_id = record.partition_nodes[index]
        key = record.partition_keys[index]
        seconds += cluster.cost_model.disk_read_time(nbytes)
        # a surviving disk copy reloads — no upstream work needed
        action = "reload" if cluster.node(node_id).has(key) else "recompute"
        cluster.trace.emit(
            "recovery",
            dataset=dataset_id,
            index=index,
            nbytes=nbytes,
            node=node_id,
            action=action,
        )
    return seconds
