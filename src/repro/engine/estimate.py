"""Static cost estimation for MDFs (a pre-run planner).

§4.1 notes that a schedule's true cost can only be assessed in retrospect
(it depends on eviction decisions and pruned branches).  What *can* be
computed statically from the MDF structure and the nominal size model is
a pair of bounds:

* an **optimistic** bound — every read is a memory hit, every branch the
  selection can skip is skipped;
* a **pessimistic** bound — every read comes from disk, every branch
  executes.

The real engine, whatever its policy choices, lands between the two
(benchmarked in ``tests/engine/test_estimate.py``).  The estimator also
reports the peak simultaneously-live nominal bytes, which tells a user
whether a cluster's memory will be under pressure *before* running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster.costmodel import CostModel
from ..core.mdf import MDF
from ..core.stages import StageGraph


@dataclass
class StageEstimate:
    """Static per-stage cost components."""

    stage_id: str
    ops: List[str]
    input_bytes: int
    output_bytes: int
    compute_units: float
    is_wide: bool
    #: modelled wall seconds under all-memory reads / all-disk reads; the
    #: cost-aware schedulers (HEFT list scheduling, work stealing) rank
    #: ready stages by these
    optimistic_seconds: float = 0.0
    pessimistic_seconds: float = 0.0


@dataclass
class CostEstimate:
    """Static bounds on an MDF's execution cost.

    ``optimistic_seconds`` assumes all-memory reads; ``pessimistic_seconds``
    assumes all-disk reads and writes; real runs land in between (given the
    same no-pruning assumption).  ``peak_live_bytes`` is the largest total
    nominal size of simultaneously needed datasets under eager release — a
    lower bound on the working set.
    """

    num_stages: int
    num_branches: int
    total_compute_units: float
    total_read_bytes: int
    total_write_bytes: int
    peak_live_bytes: int
    optimistic_seconds: float
    pessimistic_seconds: float
    stages: List[StageEstimate] = field(default_factory=list)

    def fits_in_memory(self, workers: int, mem_per_worker: int) -> bool:
        """Whether the peak working set fits the cluster's total memory."""
        return self.peak_live_bytes <= workers * mem_per_worker


def estimate_mdf(
    mdf: MDF,
    workers: int,
    cost_model: Optional[CostModel] = None,
    task_overhead: float = 0.0005,
    partitions_per_worker: int = 1,
) -> CostEstimate:
    """Statically estimate an MDF's execution cost (no-pruning assumption)."""
    cost_model = cost_model or CostModel()
    mdf.validate()
    stage_graph = StageGraph(mdf)
    order = stage_graph.topological_stages()

    output_bytes: Dict[str, int] = {}  # tail op name -> nominal output bytes
    stage_estimates: List[StageEstimate] = []
    total_compute = 0.0
    total_read = 0
    total_write = 0
    optimistic = 0.0
    pessimistic = 0.0

    # reference counts for the peak-live estimate: tail op name -> readers
    # still to run, and reader op name -> the tails whose output it reads
    remaining_readers: Dict[str, int] = {}
    reads_from: Dict[str, List[str]] = {}
    live_bytes = 0
    peak_live = 0

    tasks_per_stage = workers * partitions_per_worker

    for stage in order:
        head = stage.head
        if stage.kind == "choose":
            # selection is master-side metadata work; the kept dataset is
            # an alias of a branch output (size of one branch, optimistic)
            branch_sizes = [
                output_bytes.get(p.name, 0) for p in mdf.pre(head)
            ]
            output_bytes[head.name] = max(branch_sizes, default=1)
            continue
        if stage.kind == "explore":
            (pred,) = mdf.pre(head)
            output_bytes[head.name] = output_bytes.get(pred.name, 0)
            continue

        if stage.kind == "source":
            in_bytes = int(head.nominal_bytes or 1)
            chain = stage.ops[1:]
            source_read = in_bytes
        elif stage.kind == "join":
            in_bytes = sum(
                output_bytes.get(name, 0) for name in head.input_names
            ) or 1
            chain = stage.ops
            source_read = 0
        else:
            (pred,) = mdf.pre(head)
            in_bytes = output_bytes.get(pred.name, 1)
            chain = stage.ops
            source_read = 0

        compute = 0.0
        cur = in_bytes
        for op in chain:
            compute += op.compute_cost(cur)
            cur = op.output_bytes(cur)
        out_bytes = cur
        output_bytes[stage.tail.name] = out_bytes

        total_compute += compute
        total_read += in_bytes
        total_write += out_bytes
        is_wide = stage.kind in ("wide", "join")

        compute_wall = cost_model.compute_time(compute / workers)
        overhead = tasks_per_stage * task_overhead
        network = (
            cost_model.network_time(in_bytes // workers) if is_wide else 0.0
        )
        opt_io = (
            cost_model.disk_read_time(source_read // workers)
            + cost_model.mem_read_time((in_bytes - source_read) // workers)
            + cost_model.mem_write_time(out_bytes // workers)
        )
        pes_io = (
            cost_model.disk_read_time(in_bytes // workers)
            + cost_model.disk_write_time(out_bytes // workers)
        )
        stage_opt = compute_wall + opt_io + overhead + network
        stage_pes = compute_wall + pes_io + overhead + network
        optimistic += stage_opt
        pessimistic += stage_pes

        stage_estimates.append(
            StageEstimate(
                stage.id,
                [op.name for op in stage.ops],
                in_bytes,
                out_bytes,
                compute,
                is_wide,
                optimistic_seconds=stage_opt,
                pessimistic_seconds=stage_pes,
            )
        )

        # live-set tracking (eager-release lower bound)
        live_bytes += out_bytes
        readers = mdf.effective_consumers(stage.tail)
        remaining_readers[stage.tail.name] = len(readers)
        for reader in readers:
            reads_from.setdefault(reader, []).append(stage.tail.name)
        peak_live = max(peak_live, live_bytes)
        # consuming the input decrements its producer's reader count
        for name in reads_from.get(head.name, ()):
            remaining_readers[name] -= 1
            if remaining_readers[name] <= 0:
                live_bytes -= output_bytes.get(name, 0)

    num_branches = sum(len(s.branches) for s in mdf.scopes.values())
    return CostEstimate(
        num_stages=len(stage_graph),
        num_branches=num_branches,
        total_compute_units=total_compute,
        total_read_bytes=total_read,
        total_write_bytes=total_write,
        peak_live_bytes=peak_live,
        optimistic_seconds=optimistic,
        pessimistic_seconds=pessimistic,
        stages=stage_estimates,
    )
