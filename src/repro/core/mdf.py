"""The meta-dataflow graph (Definition 3.1).

An MDF is a dataflow graph with two distinguished vertex sets: explore
operators (``|•v| = 1``, ``|v•| > 1``) and choose operators (``|•v| > 1``,
``|v•| = 1``).  A path between an explore and its matching choose is a
*branch*, representing one setting of an explorable.  Scopes may nest:
a branch can itself contain further explore/choose pairs.

The MDF tracks its scopes explicitly (explore → matching choose → ordered
branches) because branch order is semantically meaningful: the scheduler's
sorted hints and the monotone/convex pruning reason over the order of the
explorable's domain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from .choose import ChooseOperator
from .dataflow import DataflowGraph
from .errors import ValidationError
from .explore import Branch, ExploreOperator
from .operators import Operator


class Scope:
    """One exploration scope: an explore, its matching choose, its branches."""

    def __init__(self, explore: ExploreOperator, choose: Optional[ChooseOperator] = None):
        self.explore = explore
        self.choose = choose
        self.branches: List[Branch] = []

    @property
    def closed(self) -> bool:
        return self.choose is not None

    def __repr__(self) -> str:  # pragma: no cover
        choose = self.choose.name if self.choose else "<open>"
        return f"Scope({self.explore.name} -> {choose}, |branches|={len(self.branches)})"


class MDF(DataflowGraph):
    """A meta-dataflow: dataflow graph + explore/choose scope structure."""

    def __init__(self, name: str = "mdf"):
        super().__init__()
        self.name = name
        self.scopes: Dict[str, Scope] = {}  # keyed by explore name
        self._branch_of: Dict[str, str] = {}  # operator name -> innermost branch id

    # ------------------------------------------------------------ explores
    @property
    def explores(self) -> List[ExploreOperator]:
        return [s.explore for s in self.scopes.values()]

    @property
    def chooses(self) -> List[ChooseOperator]:
        return [s.choose for s in self.scopes.values() if s.choose is not None]

    def is_explore(self, op: Operator) -> bool:
        return isinstance(op, ExploreOperator)

    def is_choose(self, op: Operator) -> bool:
        return isinstance(op, ChooseOperator)

    def open_scope(self, explore: ExploreOperator, upstream: Operator) -> Scope:
        """Register an explore fed by ``upstream`` and open its scope."""
        self.add_operator(explore)
        self.add_edge(upstream, explore)
        scope = Scope(explore)
        self.scopes[explore.name] = scope
        # The explore itself belongs to the enclosing branch, if any.
        if upstream.name in self._branch_of:
            self._branch_of[explore.name] = self._branch_of[upstream.name]
        return scope

    def add_branch(self, explore: ExploreOperator, ops: Sequence[Operator]) -> Branch:
        """Attach one branch (ordered operator chain) to an open scope.

        The branch's parameter combination is taken from the explore's grid
        in declaration order; branches must therefore be added in grid order.
        Operators inside the chain are expected to already be wired to each
        other (nested scopes included); only the edge from the explore to the
        first operator is added here.
        """
        scope = self.scopes[explore.name]
        if scope.closed:
            raise ValidationError(f"scope of {explore.name!r} already closed")
        index = len(scope.branches)
        if index >= explore.fanout:
            raise ValidationError(
                f"explore {explore.name!r} expects {explore.fanout} branches"
            )
        ops = list(ops)
        if not ops:
            raise ValidationError("a branch needs at least one operator")
        params = explore.params_for_branch(index)
        branch = Branch(explore.name, index, params, ops)
        self.add_edge(explore, ops[0])
        enclosing = self._branch_of.get(explore.name)
        for op in ops:
            # Innermost wins: do not overwrite assignments made by nested
            # scopes that were built before this outer branch is registered.
            if op.name not in self._branch_of or self._branch_of[op.name] == enclosing:
                self._branch_of[op.name] = branch.id
        scope.branches.append(branch)
        return branch

    def close_scope(self, explore: ExploreOperator, choose: ChooseOperator) -> Scope:
        """Close a scope: wire every branch tail into the choose operator."""
        scope = self.scopes[explore.name]
        if scope.closed:
            raise ValidationError(f"scope of {explore.name!r} already closed")
        if len(scope.branches) != explore.fanout:
            raise ValidationError(
                f"explore {explore.name!r} has {len(scope.branches)} branches, "
                f"expected {explore.fanout}"
            )
        self.add_operator(choose)
        for branch in scope.branches:
            self.add_edge(branch.ops[-1], choose)
        scope.choose = choose
        if explore.name in self._branch_of:
            self._branch_of[choose.name] = self._branch_of[explore.name]
        return scope

    # -------------------------------------------------------------- lookups
    def scope_of_choose(self, choose: ChooseOperator) -> Scope:
        for scope in self.scopes.values():
            if scope.choose is not None and scope.choose.name == choose.name:
                return scope
        raise KeyError(choose.name)

    def matching_choose(self, explore: ExploreOperator) -> ChooseOperator:
        scope = self.scopes[explore.name]
        if scope.choose is None:
            raise ValidationError(f"scope of {explore.name!r} is not closed")
        return scope.choose

    def branch_of(self, op: Operator) -> Optional[str]:
        """Innermost branch id containing ``op`` (None for scope-free ops)."""
        return self._branch_of.get(op.name)

    def branch_operators(self, branch: Branch) -> List[Operator]:
        """All operators of a branch, including nested scope structures.

        These are exactly the operators strictly between the branch's
        explore and the matching choose along this branch, i.e. the chain
        operators plus any nested explores/chooses and their branch
        operators.
        """
        result: List[Operator] = []
        seen: Set[str] = set()

        def visit(op: Operator) -> None:
            if op.name in seen:
                return
            seen.add(op.name)
            result.append(op)
            if isinstance(op, ExploreOperator):
                scope = self.scopes[op.name]
                for nested in scope.branches:
                    for inner in nested.ops:
                        visit(inner)
                if scope.choose is not None:
                    visit(scope.choose)

        for op in branch.ops:
            visit(op)
        return result

    def effective_consumers(self, op: Operator) -> Set[str]:
        """Names of the operators that actually read ``op``'s output.

        Explore operators forward their input zero-copy (Definition 3.2),
        so the real readers of a dataset feeding an explore are the branch
        heads.
        """
        out: Set[str] = set()
        for succ in self.post(op):
            if isinstance(succ, ExploreOperator):
                out |= self.effective_consumers(succ)
            else:
                out.add(succ.name)
        return out

    def nesting_depth(self, op: Operator) -> int:
        """Number of enclosing scopes around ``op`` (0 outside all scopes)."""
        depth = 0
        branch_id = self._branch_of.get(op.name)
        while branch_id is not None:
            depth += 1
            explore_name = branch_id.split("#", 1)[0]
            branch_id = self._branch_of.get(explore_name)
        return depth

    # ----------------------------------------------------------- validation
    def validate(self) -> None:
        """Definition 3.1 checks on top of the base DAG validation."""
        super().validate()
        for scope in self.scopes.values():
            explore = scope.explore
            if self.in_degree(explore) != 1:
                raise ValidationError(
                    f"explore {explore.name!r} must have exactly one input "
                    f"(has {self.in_degree(explore)})"
                )
            if self.out_degree(explore) <= 1:
                raise ValidationError(
                    f"explore {explore.name!r} must have more than one output "
                    f"(has {self.out_degree(explore)})"
                )
            if not scope.closed:
                raise ValidationError(f"explore {explore.name!r} has no matching choose")
            choose = scope.choose
            if self.in_degree(choose) <= 1:
                raise ValidationError(
                    f"choose {choose.name!r} must have more than one input "
                    f"(has {self.in_degree(choose)})"
                )
            if self.out_degree(choose) != 1:
                raise ValidationError(
                    f"choose {choose.name!r} must have exactly one output "
                    f"(has {self.out_degree(choose)})"
                )
            for branch in scope.branches:
                head, tail = branch.ops[0], branch.ops[-1]
                if (
                    head.name not in self._succ[explore.name]
                    or choose.name not in self._succ[tail.name]
                ):
                    raise ValidationError(
                        f"branch {branch.id!r} is not a path from "
                        f"{explore.name!r} to {choose.name!r}"
                    )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MDF({self.name!r}, |V|={len(self)}, "
            f"explores={len(self.scopes)})"
        )
