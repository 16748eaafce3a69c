"""Stage derivation (Appendix A execution model).

Stages group operators with only *narrow* dependencies so their execution
can be pipelined on a worker.  Explore and choose operators always form
singleton stages: the paper's scheduler treats them specially (explore
starts branch-aware traversal, choose splits into a worker-side evaluator
and a master-side selection).

The derived :class:`StageGraph` exposes pre/post-sets over stages (``•T``
and ``T•``), which is exactly the structure Algorithm 1 operates on.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from .choose import ChooseOperator
from .dataflow import DataflowGraph
from .explore import Branch, ExploreOperator
from .mdf import MDF
from .operators import Join, Operator, Source

_stage_counter = itertools.count()


def _kind_of(head: Operator) -> str:
    """The one stage-kind decision: everything downstream reads ``Stage.kind``."""
    if isinstance(head, ExploreOperator):
        return "explore"
    if isinstance(head, ChooseOperator):
        return "choose"
    if isinstance(head, Source):
        return "source"
    if isinstance(head, Join):
        return "join"
    return "narrow" if head.narrow else "wide"


class Stage:
    """A maximal chain of narrow-dependency operators.

    Attributes
    ----------
    ops:
        The operator chain in execution order.
    branch_id:
        Innermost branch the stage belongs to (None outside explore scopes).
    kind:
        ``source | narrow | wide | join | explore | choose`` — fixed by the
        head operator (only narrow operators are ever appended behind it).
        ``explore`` and ``choose`` are the paper's two special stages;
        ``source`` reads the job input, ``narrow`` pipelines its one
        input partition-wise, ``wide`` and ``join`` shuffle theirs first.
    head, is_choose, is_explore:
        Set once, with ``kind``: the head never changes.  ``tail`` stays a
        property, because building a stage appends behind the head.
    """

    def __init__(self, ops: List[Operator], branch_id: Optional[str] = None):
        self.index = next(_stage_counter)
        self.id = f"stage-{self.index}"
        self.ops = ops
        self.branch_id = branch_id
        self.head = ops[0]
        self.kind = _kind_of(self.head)
        self.is_choose = self.kind == "choose"
        self.is_explore = self.kind == "explore"

    @property
    def tail(self) -> Operator:
        return self.ops[-1]

    def __repr__(self) -> str:  # pragma: no cover
        names = "+".join(op.name for op in self.ops)
        return f"Stage({self.id}: {names})"


class StageGraph:
    """Stages of a dataflow graph with stage-level pre/post-sets."""

    def __init__(self, graph: DataflowGraph):
        self.graph = graph
        self.stages: List[Stage] = []
        self._stage_of: Dict[str, Stage] = {}
        self._build()
        #: ``•T`` and ``T•`` per stage, computed once: the graph is fixed
        self._pre: Dict[Stage, FrozenSet[Stage]] = {
            stage: self._neighbours(stage, self.graph.pre(stage.head))
            for stage in self.stages
        }
        self._post: Dict[Stage, FrozenSet[Stage]] = {
            stage: self._neighbours(stage, self.graph.post(stage.tail))
            for stage in self.stages
        }
        scopes = graph.scopes.values() if isinstance(graph, MDF) else ()
        #: tail stage id -> the branch whose result that stage produces
        self._branch_ending_at: Dict[str, Branch] = {
            self.stage_of(branch.ops[-1]).id: branch
            for scope in scopes
            for branch in scope.branches
        }

    # ------------------------------------------------------------- building
    def _starts_new_stage(self, op: Operator) -> bool:
        """True when ``op`` cannot be appended to its predecessor's stage."""
        if isinstance(op, (ExploreOperator, ChooseOperator)):
            return True
        if not op.narrow:
            return True  # wide dependency: shuffle boundary
        if self.graph.in_degree(op) != 1:
            return True
        (pred,) = self.graph.pre(op)
        if isinstance(pred, (ExploreOperator, ChooseOperator)):
            return True
        if self.graph.out_degree(pred) != 1:
            return True  # fan-out point: each successor starts its own stage
        return False

    def _build(self) -> None:
        for op in self.graph.topological_order():
            if self._starts_new_stage(op):
                branch_id = None
                if isinstance(self.graph, MDF):
                    branch_id = self.graph.branch_of(op)
                stage = Stage([op], branch_id)
                # renumber per graph: stage ids must be deterministic across
                # re-derivations of the same dataflow (golden decision traces
                # compare byte-for-byte), not process-lifetime unique
                stage.index = len(self.stages)
                stage.id = f"stage-{stage.index}"
                self.stages.append(stage)
                self._stage_of[op.name] = stage
            else:
                (pred,) = self.graph.pre(op)
                stage = self._stage_of[pred.name]
                stage.ops.append(op)
                self._stage_of[op.name] = stage

    # -------------------------------------------------------------- queries
    def stage_of(self, op: Operator) -> Stage:
        return self._stage_of[op.name]

    def branch_stage_ids(self, branch: Branch) -> Set[str]:
        """Ids of the stages a branch owns, nested scopes included."""
        return {self.stage_of(op).id for op in self.graph.branch_operators(branch)}

    def branch_ending_at(self, stage: Stage) -> Optional[Branch]:
        """The branch ``stage`` is the tail of (it produces the branch's
        result, which the matching choose scores), or ``None``."""
        return self._branch_ending_at.get(stage.id)

    def _neighbours(self, stage: Stage, ops: Iterable[Operator]) -> FrozenSet[Stage]:
        """The stages of ``ops``, ``stage`` itself left out."""
        return frozenset(self._stage_of[op.name] for op in ops) - {stage}

    def pre(self, stage: Stage) -> FrozenSet[Stage]:
        """``•T``: stages that must execute before ``stage``."""
        return self._pre[stage]

    def post(self, stage: Stage) -> FrozenSet[Stage]:
        """``T•``: stages that read this stage's output."""
        return self._post[stage]

    def initial_stages(self) -> List[Stage]:
        return [s for s in self.stages if not self.pre(s)]

    def final_stages(self) -> List[Stage]:
        return [s for s in self.stages if not self.post(s)]

    def topological_stages(self) -> List[Stage]:
        """Stages in a topological order (BFS baseline execution order)."""
        order: List[Stage] = []
        done: Set[str] = set()
        pending = list(self.stages)
        while pending:
            progressed = False
            for stage in list(pending):
                if all(p.id in done for p in self.pre(stage)):
                    order.append(stage)
                    done.add(stage.id)
                    pending.remove(stage)
                    progressed = True
            if not progressed:  # pragma: no cover - guarded by DAG validation
                raise RuntimeError("stage graph contains a cycle")
        return order

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:  # pragma: no cover
        return f"StageGraph(|T|={len(self.stages)})"
