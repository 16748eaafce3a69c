"""Worker-side stage execution on the simulated cluster.

A stage is a pipelined chain of narrow operators, optionally headed by a
source (which reads the job input from distributed storage) or a wide
operator or join (which shuffle all partitions).  Whatever its
:attr:`~repro.core.stages.Stage.kind`, :meth:`StageExecutor.execute` runs
it through the same three steps:

1. **gather** the input partitions — memory hits cost memory-read time,
   misses cost disk-read time (a source has none to gather and reads the
   job input instead),
2. **compute**: run the real operator functions partition by partition
   (after the shuffle and the global head, if the head is wide), charging
   the operator cost model against the node's compute rate, and
3. **land** the output partitions — stored, which may evict under
   pressure, or handed back unstored for the choose to judge first.

Per-node times are combined into stage *wall* times (the slowest node
gates the stage), after straggler stretching and speculative mitigation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..cluster.cluster import Cluster
from ..cluster.metrics import Metrics
from ..cluster.stragglers import apply_stragglers
from ..core.datasets import Dataset, Partition, concat_payloads, split_payload
from ..core.errors import SchedulingError
from ..core.operators import Operator
from ..core.stages import Stage
from .backends import ExecutionBackend, make_backend, run_stage
from .job import EngineConfig

#: base of the exponential backoff charged between task retry attempts
#: (seconds; attempt i waits ``RETRY_BACKOFF · 2^i``)
RETRY_BACKOFF = 0.05


def _split_bytes(total: int, count: int) -> List[int]:
    """Split ``total`` nominal bytes across ``count`` partitions exactly.

    The remainder lands on the first partitions so that
    ``sum(_split_bytes(t, n)) == max(0, t)`` always holds (the old
    ``total // count`` stamp leaked up to ``count - 1`` bytes per stage).
    """
    count = max(1, count)
    base, extra = divmod(max(0, int(total)), count)
    return [base + 1 if i < extra else base for i in range(count)]


@dataclass
class StageTimes:
    """Wall-clock components of one executed stage (simulated seconds)."""

    io: float = 0.0
    compute: float = 0.0
    network: float = 0.0
    overhead: float = 0.0
    #: straggler/retry-adjusted per-node seconds the walls were taken from
    #: (``io``/``compute`` are their maxima); recorded on the trace so the
    #: profiler can attribute busy vs idle time per node
    per_node_io: Dict[str, float] = field(default_factory=dict)
    per_node_compute: Dict[str, float] = field(default_factory=dict)
    #: tasks launched per node and straggler backups among the stage's
    #: shares; recorded on the trace, which is where ``tasks_executed`` and
    #: ``speculative_tasks`` are counted from
    per_node_tasks: Dict[str, int] = field(default_factory=dict)
    speculative_tasks: int = 0

    @property
    def total(self) -> float:
        return self.io + self.compute + self.network + self.overhead


@dataclass
class StageOutcome:
    """Result of executing one stage.

    With ``defer_store=True`` the produced dataset is returned in
    ``pending`` instead of being registered on the cluster: the master
    evaluates the branch result in-flight first and only materialises it
    if the choose keeps it (R3: losers are never stored at all).
    """

    output_dataset_id: Optional[str]
    times: StageTimes
    num_tasks: int
    pending: Optional[Dataset] = None


#: one gathered (or source-read, or shuffled) partition: payload, nominal
#: bytes, and the node it is charged on
_Part = Tuple[Any, int, str]


class _Tally:
    """Per-node charges of one stage, in the order they were incurred.

    Float accumulation order per node is part of the byte-identity
    contract, so every step of a stage adds to the one tally in execution
    order and :meth:`StageExecutor._wall` closes it.
    """

    def __init__(self) -> None:
        self.io: Dict[str, float] = {}
        self.compute: Dict[str, float] = {}
        self.tasks: Dict[str, int] = {}
        self.network = 0.0

    def add_io(self, node_id: str, seconds: float) -> None:
        self.io[node_id] = self.io.get(node_id, 0.0) + seconds

    def add_compute(self, node_id: str, seconds: float) -> None:
        self.compute[node_id] = self.compute.get(node_id, 0.0) + seconds

    def read(self, node_id: str, seconds: float) -> None:
        """One input partition read on ``node_id``: its I/O plus one task."""
        self.add_io(node_id, seconds)
        self.tasks[node_id] = self.tasks.get(node_id, 0) + 1

    @property
    def num_tasks(self) -> int:
        return sum(self.tasks.values())


class StageExecutor:
    """Executes stages against a cluster under an :class:`EngineConfig`."""

    def __init__(self, cluster: Cluster, config: EngineConfig):
        self.cluster = cluster
        self.config = config
        #: node id -> pending transient task-failure attempts, consumed by
        #: the next executed stage (retry-with-backoff, §5)
        self._pending_task_faults: Dict[str, int] = {}
        #: who may run a stage's payload transform ahead of its turn.
        #: Resolved from ``config.backend`` (a registry name or a ready
        #: instance); instances are caller-owned and survive :meth:`close`
        #: (minus this run's unclaimed prefetches), named backends are
        #: created and closed here.
        spec = getattr(config, "backend", "serial")
        self.backend = make_backend(spec)
        self._owns_backend = not isinstance(spec, ExecutionBackend)

    def close(self) -> None:
        """Release backend resources (process pools) at the end of a run."""
        if self._owns_backend:
            self.backend.close()
        else:  # stage ids repeat across runs: never serve a dead run's work
            self.backend.drop_prefetched(None)

    def inject_task_faults(self, faults: Dict[str, int]) -> None:
        """Schedule transient task failures for the next executed stage."""
        for node_id, attempts in faults.items():
            self._pending_task_faults[node_id] = (
                self._pending_task_faults.get(node_id, 0) + attempts
            )

    # ------------------------------------------------------------- helpers
    def _wall(self, tally: _Tally, consume_faults: bool = False) -> StageTimes:
        """Combine per-node times into stage walls, honouring stragglers.

        ``consume_faults`` is True only for real stage-execution walls:
        injected transient task failures are scheduled "for the next
        executed stage" and must not be drained by choose evaluations or
        cache-hit serving walls in between.
        """
        per_node_io, per_node_compute = tally.io, tally.compute
        profile = self.config.stragglers
        speculative_tasks = 0
        if profile is not None:
            backups = Metrics()
            per_node_io = apply_stragglers(
                per_node_io, profile, self.config.speculation, backups
            )
            per_node_compute = apply_stragglers(
                per_node_compute, profile, self.config.speculation, backups
            )
            speculative_tasks = backups.speculative_tasks
        if consume_faults and self._pending_task_faults:
            faults, self._pending_task_faults = self._pending_task_faults, {}
            per_node_io = dict(per_node_io)
            per_node_compute = dict(per_node_compute)
            for node_id, attempts in sorted(faults.items()):
                if attempts <= 0:
                    continue
                # each failed attempt redoes the node's full IO + compute
                # share, plus exponential backoff between attempts
                node_io = per_node_io.get(node_id, 0.0)
                node_compute = per_node_compute.get(node_id, 0.0)
                backoff = sum(
                    RETRY_BACKOFF * (2 ** i) for i in range(attempts)
                )
                per_node_io[node_id] = node_io * (1 + attempts)
                per_node_compute[node_id] = node_compute * (1 + attempts) + backoff
                self.cluster.trace.emit(
                    "task_retried",
                    node=node_id,
                    attempts=attempts,
                    seconds=(node_io + node_compute) * attempts + backoff,
                )
        io = max(per_node_io.values(), default=0.0)
        compute = max(per_node_compute.values(), default=0.0)
        overhead = tally.num_tasks * self.config.task_overhead
        for per_node in (per_node_io, per_node_compute):
            for node_id, seconds in per_node.items():
                self.cluster.note_busy(node_id, seconds)
        return StageTimes(
            io=io,
            compute=compute,
            network=tally.network,
            overhead=overhead,
            per_node_io=dict(per_node_io),
            per_node_compute=dict(per_node_compute),
            per_node_tasks=tally.tasks,
            speculative_tasks=speculative_tasks,
        )

    def _charge_chain(
        self, ops: List[Operator], nbytes: int, node_id: str, tally: _Tally
    ) -> int:
        """Charge a narrow chain's modelled compute for one partition.

        Control-plane half of a chain: accumulates the per-operator compute
        times operator by operator (float accumulation order is part of
        the byte-identity contract) and returns the chain's nominal output
        bytes.  The data-plane half — actually transforming the payloads —
        is :func:`run_stage`, on turn or prefetched (taken in
        :meth:`execute`).
        """
        cur_bytes = nbytes
        for op in ops:
            tally.add_compute(
                node_id, self.cluster.cost_model.compute_time(op.compute_cost(cur_bytes))
            )
            cur_bytes = op.output_bytes(cur_bytes)
        return cur_bytes

    # ------------------------------------------------------ result cache
    def _chain_cost_estimate(self, ops: List[Operator], nbytes: int) -> float:
        """Modelled compute seconds of one partition through a narrow chain."""
        cost_model = self.cluster.cost_model
        total, cur = 0.0, nbytes
        for op in ops:
            total += cost_model.compute_time(op.compute_cost(cur))
            cur = op.output_bytes(cur)
        return total

    def _input_read_estimate(self, record) -> float:
        """Modelled serial seconds to read every partition of a dataset."""
        cost_model = self.cluster.cost_model
        total = 0.0
        for key, nbytes in zip(record.partition_keys, record.partition_bytes):
            if self.cluster.key_in_memory(key):
                total += cost_model.mem_read_time(nbytes)
            else:
                total += cost_model.disk_read_time(nbytes)
        return total

    def _recompute_estimate(
        self, stage: Stage, input_ids: List[str]
    ) -> Optional[float]:
        """Modelled serial cost of running the stage cold.

        Drives the profitability gate and the ``saved_seconds`` a hit
        reports.  Serial sums on both sides of the comparison (the store
        cost is identical on both and omitted).  ``None`` when the input
        size cannot be known without executing (a source without
        ``nominal_bytes``), in which case the gate is skipped.
        """
        cost_model = self.cluster.cost_model
        head = stage.head
        if stage.kind == "source":
            if head.nominal_bytes is None:
                return None
            nparts = self.cluster.num_workers * self.config.partitions_per_worker
            per_part = max(1, head.nominal_bytes // nparts)
            return nparts * (
                cost_model.disk_read_time(per_part)
                + self._chain_cost_estimate(stage.ops[1:], per_part)
            )
        records = [self.cluster.record(i) for i in input_ids]
        total = sum(self._input_read_estimate(r) for r in records)
        if stage.kind == "narrow":
            for nbytes in records[0].partition_bytes:
                total += self._chain_cost_estimate(stage.ops, nbytes)
            return total
        # wide / join: all-to-all shuffle, global head, pipelined rest
        total_bytes = sum(r.nbytes for r in records)
        workers = max(1, self.cluster.num_workers)
        total += cost_model.network_time(int(total_bytes / workers))
        total += cost_model.compute_time(head.compute_cost(total_bytes))
        per_part = max(1, head.output_bytes(total_bytes) // workers)
        total += workers * self._chain_cost_estimate(stage.ops[1:], per_part)
        return total

    def _hit_read_estimate(self, hit) -> float:
        """Modelled serial cost of serving the hit's bytes by residency."""
        cost_model = self.cluster.cost_model
        if hit.tier == "store":
            return sum(cost_model.disk_read_time(b) for b in hit.partition_bytes)
        total = 0.0
        for (owner, pos), nbytes in zip(hit.locations, hit.partition_bytes):
            record = self.cluster.record(owner)
            if self.cluster.key_in_memory(record.partition_keys[pos]):
                total += cost_model.mem_read_time(nbytes)
            else:
                total += cost_model.disk_read_time(nbytes)
        return total

    def _try_cache(
        self,
        stage: Stage,
        fingerprint: Optional[str],
        input_ids: List[str],
        defer_store: bool,
    ) -> Optional[StageOutcome]:
        """Serve the stage from the result cache, or return ``None`` (miss).

        A hit is served only when the modelled read cost beats the
        modelled recompute cost: under the paper's cost model a
        disk-resident entry can be slower than recomputing a cheap
        operator, and a cache that slows the job down is worse than no
        cache.
        """
        cache = self.config.cache
        if cache is None or fingerprint is None:
            return None
        hit = cache.lookup(fingerprint, self.cluster)
        if hit is None:
            cache.note_miss(fingerprint, self.cluster, stage.id, "cold")
            return None
        recompute = self._recompute_estimate(stage, input_ids)
        saved_seconds = 0.0
        if recompute is not None:
            read_cost = self._hit_read_estimate(hit)
            if read_cost >= recompute:
                cache.note_miss(fingerprint, self.cluster, stage.id, "not-profitable")
                return None
            saved_seconds = max(0.0, recompute - read_cost)
        return self._serve_hit(stage, hit, defer_store, saved_seconds)

    def _serve_hit(
        self, stage: Stage, hit, defer_store: bool, saved_seconds: float
    ) -> StageOutcome:
        """Materialise a cache hit as the stage's output dataset.

        Cluster-tier bytes are read through the normal ``load_partition``
        path (charged by residency, attributed to the live owning dataset
        so R3 keeps holding); store-tier bytes are charged a disk read per
        partition but touch no live slot, so no per-node byte counters
        move (the trace records no access to back them).  Either way the
        output is a fresh first-class dataset: it stores (and evicts)
        exactly like a cold stage's output would.
        """
        cluster = self.cluster
        tally = _Tally()
        payloads: List[Any] = []
        owners = sorted({owner for owner, _ in hit.locations or ()})
        with cluster.protect(owners):
            if hit.tier == "cluster":
                for owner, pos in hit.locations:
                    payload, seconds, node_id = cluster.load_partition(owner, pos)
                    tally.read(node_id, seconds)
                    payloads.append(payload)
            else:
                # a store hit is a fresh load: its payloads are this run's own
                payloads = hit.payloads
                for index, nbytes in enumerate(hit.partition_bytes):
                    tally.read(
                        cluster.node_for_partition(index).id,
                        cluster.cost_model.disk_read_time(nbytes),
                    )
            self.config.cache.note_hit(
                hit, cluster, stage.id, f"d:{stage.tail.name}", saved_seconds
            )
            return self._land(
                stage, payloads, hit.partition_bytes, tally, defer_store, hit.fingerprint
            )

    def _maybe_admit(self, fingerprint: Optional[str], output: Dataset) -> None:
        """Remember a freshly registered stage output in the result cache."""
        cache = self.config.cache
        if cache is not None and fingerprint is not None:
            cache.admit(fingerprint, output, self.cluster)

    # ------------------------------------------------------------- execute
    def execute(
        self,
        stage: Stage,
        input_ids: List[str],
        defer_store: bool = False,
        fingerprint: Optional[str] = None,
    ) -> StageOutcome:
        """Run one stage that is neither explore nor choose.

        ``input_ids`` are the datasets the head reads: none for a source,
        one for a narrow or wide head, ``[left, right]`` for a join.  The
        stage is served from the result cache when ``fingerprint`` hits;
        otherwise its inputs are gathered, the chain is computed — behind
        the shuffle and the global head when the head is wide or a join —
        and the output lands.
        """
        if not input_ids and stage.kind != "source":
            raise SchedulingError(f"stage {stage.id} has no input dataset")
        cached = self._try_cache(stage, fingerprint, input_ids, defer_store)
        if cached is not None:
            self.backend.drop_prefetched(stage.id)
            return cached
        tally = _Tally()
        with self._gather(input_ids, tally) as operands:
            # data plane: a prefetched stage already ran its whole chain
            # (global head included) off-turn, so only the identical
            # charges remain to be made
            done = self.backend.take_prefetched(stage.id)
            if stage.kind == "source":
                parts, chain = self._read_source(stage, tally), stage.ops[1:]
            elif stage.kind == "narrow":
                (parts,), chain = operands, stage.ops
            else:
                parts = self._shuffle(stage, operands, tally, done)
                chain = stage.ops[1:]
            out_bytes = [
                self._charge_chain(chain, nbytes, node_id, tally)
                for _, nbytes, node_id in parts
            ]
            if done is None:
                done = [payload for payload, _, _ in parts]
                if chain:
                    done = run_stage("narrow", chain, done)
            return self._land(
                stage, done, out_bytes, tally, defer_store, fingerprint, consume_faults=True
            )

    @contextmanager
    def _gather(
        self, input_ids: List[str], tally: _Tally
    ) -> Iterator[List[List[_Part]]]:
        """Read every partition of every input, one list per input dataset.

        Each partition is read where it lives (normal hit/miss accounting)
        and counts as one task on that node.  The inputs stay shielded from
        eviction until the ``with`` block exits, so storing the stage's
        own output cannot spill what it is still reading.
        """
        with self.cluster.protect(input_ids):
            operands: List[List[_Part]] = []
            for dataset_id in input_ids:
                record = self.cluster.record(dataset_id)
                parts: List[_Part] = []
                for index in range(record.num_partitions):
                    payload, seconds, node_id = self.cluster.load_partition(
                        dataset_id, index
                    )
                    tally.read(node_id, seconds)
                    parts.append((payload, record.partition_bytes[index], node_id))
                operands.append(parts)
            yield operands

    def _read_source(self, stage: Stage, tally: _Tally) -> List[_Part]:
        """Read the job input from distributed storage: one disk read a task."""
        nparts = self.cluster.num_workers * self.config.partitions_per_worker
        raw = stage.head.generate(nparts, producer=stage.tail.name)
        parts: List[_Part] = []
        for partition in raw.partitions:
            node = self.cluster.node_for_partition(partition.index)
            self.cluster.trace.emit(
                "source_read",
                dataset=raw.id,
                index=partition.index,
                node=node.id,
                nbytes=partition.nominal_bytes,
            )
            tally.read(
                node.id, self.cluster.cost_model.disk_read_time(partition.nominal_bytes)
            )
            parts.append((partition.data, partition.nominal_bytes, node.id))
        return parts

    def _shuffle(
        self,
        stage: Stage,
        operands: List[List[_Part]],
        tally: _Tally,
        prefetched: Optional[List[Any]],
    ) -> List[_Part]:
        """Wide or join head: shuffle all inputs, run the head in-process.

        Returns the head's output re-partitioned across the workers, ready
        for the rest of the chain: ``apply_global`` over the partitions,
        or, a join being a wide head with two inputs, ``apply_join`` over
        the two concatenated operands.  With ``prefetched`` payloads (head and rest already applied
        off-turn) only the charges are made and the payload slots stay
        empty.
        """
        cluster = self.cluster
        head = stage.head
        total_bytes = sum(nbytes for parts in operands for _, nbytes, _ in parts)
        # all-to-all shuffle: every byte crosses the network once; each
        # node sends its share in parallel
        share = total_bytes / max(1, cluster.num_workers)
        tally.network = cluster.cost_model.network_time(int(share))
        # global computation is spread across the workers
        per_worker_compute = cluster.cost_model.compute_time(
            head.compute_cost(total_bytes) / cluster.num_workers
        )
        for node in cluster.alive_nodes:
            tally.add_compute(node.id, per_worker_compute)
        if prefetched is not None:
            mid: List[Any] = [None] * len(prefetched)
        elif stage.kind == "join":
            left, right = (
                concat_payloads([payload for payload, _, _ in parts])
                for parts in operands
            )
            mid = split_payload(head.apply_join(left, right), cluster.num_workers)
        else:
            mid = head.apply_global([payload for payload, _, _ in operands[0]])
        part_bytes = _split_bytes(head.output_bytes(total_bytes), len(mid))
        return [
            (payload, part_bytes[index], cluster.node_for_partition(index).id)
            for index, payload in enumerate(mid)
        ]

    def _land(
        self,
        stage: Stage,
        payloads: List[Any],
        part_bytes: List[int],
        tally: _Tally,
        defer_store: bool,
        fingerprint: Optional[str],
        consume_faults: bool = False,
    ) -> StageOutcome:
        """Turn computed payloads into the stage's output and close its wall.

        Stored, the output is a first-class dataset (its store may evict,
        the result cache admits it under ``fingerprint``); deferred, it is
        handed back in ``pending`` untouched by the cluster.
        """
        output = Dataset(
            [
                Partition("", index, payload, part_bytes[index])
                for index, payload in enumerate(payloads)
            ],
            dataset_id=f"d:{stage.tail.name}",
            producer=stage.tail.name,
        )
        if not defer_store:
            store_seconds = self.cluster.register_dataset(output)
            self._maybe_admit(fingerprint, output)
            for node_id, seconds in store_seconds.items():
                tally.add_io(node_id, seconds)
        times = self._wall(tally, consume_faults)
        return StageOutcome(
            output.id, times, tally.num_tasks, pending=output if defer_store else None
        )

    def _store_times(self, store_seconds: Dict[str, float]) -> StageTimes:
        """Charge a store made outside any stage wall (commit / restore)."""
        for node_id, seconds in store_seconds.items():
            self.cluster.note_busy(node_id, seconds)
        return StageTimes(
            io=max(store_seconds.values(), default=0.0),
            per_node_io=dict(store_seconds),
        )

    def commit_store(
        self, dataset: Dataset, fingerprint: Optional[str] = None
    ) -> StageTimes:
        """Materialise a deferred stage output (charge the store)."""
        store_seconds = self.cluster.register_dataset(dataset)
        self._maybe_admit(fingerprint, dataset)
        return self._store_times(store_seconds)

    def commit_restore(
        self,
        dataset: Dataset,
        into: str,
        keys: Optional[List[Tuple[str, int]]] = None,
    ) -> StageTimes:
        """Store a re-executed stage's output back into an existing record.

        Recovery counterpart of :meth:`commit_store`: the dataset id is
        already registered — only the (missing) partitions in ``keys`` are
        written back into their original slots, so surviving partitions
        keep their residency and the record's identity is preserved.
        """
        return self._store_times(
            self.cluster.restore_partitions(dataset, into=into, keys=keys)
        )

    # ------------------------------------------------------------ evaluate
    def evaluate(
        self, evaluator, dataset: Union[Dataset, str]
    ) -> Tuple[float, StageTimes]:
        """Run a choose evaluator over a branch result (worker side).

        §4.2: "the evaluator function is executed by worker nodes and
        applied directly to the result datasets of each branch".  A pending
        :class:`Dataset` is scored in flight, pipelined with the tail stage
        that produced it: nothing is re-read (it may never be stored) and
        no task is launched.  A registered dataset id is read back first
        like by any consumer (normal hit/miss accounting, one task per
        partition).  Either way the evaluator's compute cost is charged on
        the node holding each partition — or, with the
        ``evaluator_on_master`` ablation, the branch result crosses the
        network to the master and the evaluation runs serially there.
        """
        tally = _Tally()
        pipelined = isinstance(dataset, Dataset)
        if pipelined:
            nodes = [
                self.cluster.node_for_partition(p.index).id for p in dataset.partitions
            ]
        else:
            dataset_id = dataset
            with self._gather([dataset_id], tally) as (parts,):
                nodes = [node_id for _, _, node_id in parts]
                dataset = Dataset(
                    [
                        Partition(dataset_id, index, payload, nbytes)
                        for index, (payload, nbytes, _) in enumerate(parts)
                    ],
                    dataset_id=dataset_id,
                    producer=self.cluster.record(dataset_id).producer,
                )
        for partition, node_id in zip(dataset.partitions, nodes):
            cost = evaluator.cost_factor * partition.nominal_bytes
            tally.add_compute(node_id, self.cluster.cost_model.compute_time(cost))
        score = evaluator.score(dataset)
        if self.config.evaluator_on_master:
            tally.network = self.cluster.cost_model.network_time(dataset.nominal_bytes)
            tally.compute = {"master": sum(tally.compute.values())}
            tally.tasks = {"master": tally.num_tasks}
        self.cluster.trace.emit(
            "choose_evaluation",
            evaluator=evaluator.name,
            dataset=dataset.id,
            pipelined=pipelined,
        )
        return score, self._wall(tally)
