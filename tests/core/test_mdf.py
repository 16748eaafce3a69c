"""Tests for the MDF graph: scopes, branches, nesting, Definition 3.1."""

import pytest

from repro.core.choose import ChooseOperator
from repro.core.errors import ValidationError
from repro.core.evaluators import SizeEvaluator
from repro.core.explore import ExploreOperator, ParameterGrid
from repro.core.mdf import MDF
from repro.core.operators import Identity, Sink, Source
from repro.core.selection import Min, TopK


def make_simple_mdf(num_branches=3):
    """src -> explore -> [branch ops] -> choose -> sink, built by hand."""
    mdf = MDF("hand-built")
    src = Source.from_data([1, 2, 3], name="src")
    mdf.add_operator(src)
    explore = ExploreOperator(ParameterGrid(t=list(range(num_branches))), name="exp")
    mdf.open_scope(explore, src)
    branch_ops = []
    for i in range(num_branches):
        op = Identity(name=f"branch-{i}")
        mdf.add_branch(explore, [op])
        branch_ops.append(op)
    choose = ChooseOperator(SizeEvaluator(), Min(), name="ch")
    mdf.close_scope(explore, choose)
    sink = Sink(name="out")
    mdf.add_edge(choose, sink)
    return mdf, src, explore, branch_ops, choose, sink


class TestScopeConstruction:
    def test_valid_mdf(self):
        mdf, *_ = make_simple_mdf()
        mdf.validate()

    def test_scopes_registered(self):
        mdf, _, explore, _, choose, _ = make_simple_mdf()
        assert mdf.matching_choose(explore) is choose
        assert len(mdf.scopes) == 1

    def test_branch_params_in_grid_order(self):
        mdf, _, explore, _, _, _ = make_simple_mdf()
        scope = mdf.scopes[explore.name]
        assert [b.params["t"] for b in scope.branches] == [0, 1, 2]

    def test_branch_of(self):
        mdf, src, explore, branch_ops, choose, sink = make_simple_mdf()
        assert mdf.branch_of(branch_ops[0]) == f"{explore.name}#0"
        assert mdf.branch_of(src) is None
        assert mdf.branch_of(sink) is None

    def test_too_many_branches_rejected(self):
        mdf, _, explore, _, _, _ = make_simple_mdf()
        with pytest.raises(ValidationError):
            mdf.add_branch(explore, [Identity(name="extra")])

    def test_close_requires_all_branches(self):
        mdf = MDF()
        src = Source.from_data([1], name="s")
        mdf.add_operator(src)
        explore = ExploreOperator(ParameterGrid(t=[1, 2]), name="e")
        mdf.open_scope(explore, src)
        mdf.add_branch(explore, [Identity(name="b0")])
        with pytest.raises(ValidationError, match="branches"):
            mdf.close_scope(explore, ChooseOperator(SizeEvaluator(), Min(), name="c"))

    def test_empty_branch_rejected(self):
        mdf, _, explore, _, _, _ = make_simple_mdf()
        fresh = MDF()
        src = Source.from_data([1], name="s")
        fresh.add_operator(src)
        exp = ExploreOperator(ParameterGrid(t=[1, 2]), name="e")
        fresh.open_scope(exp, src)
        with pytest.raises(ValidationError):
            fresh.add_branch(exp, [])

    def test_double_close_rejected(self):
        mdf, _, explore, _, choose, _ = make_simple_mdf()
        with pytest.raises(ValidationError, match="closed"):
            mdf.close_scope(explore, choose)


class TestValidation:
    def test_unclosed_scope_invalid(self):
        mdf = MDF()
        src = Source.from_data([1], name="s")
        mdf.add_operator(src)
        explore = ExploreOperator(ParameterGrid(t=[1, 2]), name="e")
        mdf.open_scope(explore, src)
        mdf.add_branch(explore, [Identity(name="b0")])
        mdf.add_branch(explore, [Identity(name="b1")])
        with pytest.raises(ValidationError, match="matching choose"):
            mdf.validate()

    def test_choose_needs_single_output(self):
        mdf, _, _, _, choose, _ = make_simple_mdf()
        mdf.add_edge(choose, Sink(name="second-out"))
        with pytest.raises(ValidationError, match="exactly one output"):
            mdf.validate()

    def test_branch_not_wired_into_the_choose(self):
        """Every branch is checked itself, not the scope once per branch:
        the choose keeps two inputs, so only the third branch is broken."""
        mdf, _, _, branch_ops, choose, _ = make_simple_mdf(num_branches=3)
        tail = branch_ops[2]
        mdf._succ[tail.name].discard(choose.name)
        mdf._pred[choose.name].discard(tail.name)
        with pytest.raises(ValidationError, match="exp#2"):
            mdf.validate()

    def test_explore_needs_multiple_outputs(self):
        # single-branch explores violate |v•| > 1
        mdf = MDF()
        src = Source.from_data([1], name="s")
        mdf.add_operator(src)
        explore = ExploreOperator(ParameterGrid(t=[1]), name="e")
        mdf.open_scope(explore, src)
        op = Identity(name="only")
        mdf.add_branch(explore, [op])
        choose = ChooseOperator(SizeEvaluator(), Min(), name="c")
        # close_scope is unreachable: choose in-degree would be 1 too
        mdf.add_edge(op, choose)
        mdf.add_edge(choose, Sink(name="out"))
        mdf.scopes[explore.name].choose = choose
        with pytest.raises(ValidationError):
            mdf.validate()


class TestNesting:
    def build_nested(self):
        mdf = MDF("nested")
        src = Source.from_data([1], name="s")
        mdf.add_operator(src)
        outer = ExploreOperator(ParameterGrid(a=[1, 2]), name="outer")
        mdf.open_scope(outer, src)
        inner_chooses = []
        for i in (0, 1):
            head = Identity(name=f"head-{i}")
            mdf.add_edge(outer, head)
            inner = ExploreOperator(ParameterGrid(b=[1, 2]), name=f"inner-{i}")
            mdf.open_scope(inner, head)
            inner_ops = []
            for j in (0, 1):
                op = Identity(name=f"leaf-{i}-{j}")
                mdf.add_branch(inner, [op])
                inner_ops.append(op)
            ichoose = ChooseOperator(SizeEvaluator(), TopK(1), name=f"ic-{i}")
            mdf.close_scope(inner, ichoose)
            inner_chooses.append(ichoose)
            mdf.add_branch(outer, [head, inner, ichoose])
        ochoose = ChooseOperator(SizeEvaluator(), TopK(1), name="oc")
        mdf.close_scope(outer, ochoose)
        mdf.add_edge(ochoose, Sink(name="out"))
        return mdf, outer, inner_chooses

    def test_nested_validates(self):
        mdf, *_ = self.build_nested()
        mdf.validate()

    def test_nesting_depth(self):
        mdf, outer, _ = self.build_nested()
        leaf = mdf.operator("leaf-0-0")
        inner = mdf.operator("inner-0")
        assert mdf.nesting_depth(outer) == 0
        assert mdf.nesting_depth(inner) == 1
        assert mdf.nesting_depth(leaf) == 2

    def test_branch_operators_include_nested(self):
        mdf, outer, _ = self.build_nested()
        scope = mdf.scopes["outer"]
        ops = {op.name for op in mdf.branch_operators(scope.branches[0])}
        assert {"head-0", "inner-0", "leaf-0-0", "leaf-0-1", "ic-0"} <= ops
        assert "head-1" not in ops

    def test_innermost_branch_wins(self):
        mdf, outer, _ = self.build_nested()
        leaf = mdf.operator("leaf-1-0")
        assert mdf.branch_of(leaf) == "inner-1#0"

    def test_scope_of_choose(self):
        mdf, outer, inner_chooses = self.build_nested()
        scope = mdf.scope_of_choose(inner_chooses[0])
        assert scope.explore.name == "inner-0"
