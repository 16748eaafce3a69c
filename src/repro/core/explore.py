"""Explore operators and explorable parameter grids (Definition 3.2).

An explore operator marks the opening of an exploration scope: it has one
input and ``o > 1`` outputs, and simply forwards its input dataset to every
branch.  Each branch corresponds to one point of the explorable's parameter
grid (the cartesian product of the per-parameter choices, mirroring the
paper's ``EXPLORE(t=seq(...), k=seq(...))`` syntax).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

from .operators import Operator


class ParameterGrid:
    """The cartesian product of per-parameter choice sequences.

    ``ParameterGrid(t=[1.5, 2.0], k=["gaussian", "top-hat"])`` yields four
    combinations in a deterministic order (row-major over the declaration
    order of the parameters).  Combination order matters: monotone/convex
    pruning and sorted scheduling hints rely on branches being ordered by
    the explorable's domain.
    """

    def __init__(self, **params: Sequence[Any]):
        if not params:
            raise ValueError("a parameter grid needs at least one parameter")
        for key, values in params.items():
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ValueError(f"parameter {key!r} must be a non-empty sequence")
        self.params: Dict[str, List[Any]] = {k: list(v) for k, v in params.items()}

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Sequence[Any]]) -> "ParameterGrid":
        return cls(**dict(mapping))

    @property
    def names(self) -> List[str]:
        return list(self.params.keys())

    def __len__(self) -> int:
        n = 1
        for values in self.params.values():
            n *= len(values)
        return n

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        keys = list(self.params.keys())
        for combo in itertools.product(*(self.params[k] for k in keys)):
            yield dict(zip(keys, combo))

    def combinations(self) -> List[Dict[str, Any]]:
        """All parameter combinations as a list of dicts."""
        return list(self)

    def __repr__(self) -> str:  # pragma: no cover
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"ParameterGrid({inner})"


def format_params(params: Mapping[str, Any]) -> str:
    """Compact, deterministic rendering of a parameter combination."""
    return ",".join(f"{k}={params[k]}" for k in params)


class ExploreOperator(Operator):
    """Opens an exploration scope (``|•v| = 1``, ``|v•| > 1``).

    Its operator function forwards the input dataset to all branches
    (Definition 3.2), which the engine implements zero-copy: all branches
    read the *same* stored dataset, which is exactly why explore fan-out
    creates the reuse and memory-pressure patterns §4 optimises for.
    """

    def __init__(self, grid: ParameterGrid, name: Optional[str] = None):
        super().__init__(name=name, cost_factor=0.0)
        self.grid = grid
        #: combination index -> parameter dict, fixed at construction
        self.branch_params: List[Dict[str, Any]] = grid.combinations()

    @property
    def fanout(self) -> int:
        return len(self.branch_params)

    def apply_partition(self, data: Any) -> Any:
        return data

    def params_for_branch(self, index: int) -> Dict[str, Any]:
        return self.branch_params[index]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Explore({self.name}, fanout={self.fanout})"


class Branch:
    """One explore→choose path: a parameter combination plus its operators.

    ``ops`` is the chain strictly between the explore and the choose (it may
    contain nested explore/choose structures).  ``order_key`` is the position
    in the grid's deterministic order, which sorted scheduling hints and the
    monotone/convex pruners rely on.  ``id`` (``<explore>#<index>``) is set
    once: nothing renames a branch.
    """

    def __init__(self, explore_name: str, index: int, params: Dict[str, Any], ops: List[Operator]):
        self.explore_name = explore_name
        self.index = index
        self.params = params
        self.ops = ops
        self.id = f"{explore_name}#{index}"

    @property
    def order_key(self) -> int:
        return self.index

    def __repr__(self) -> str:  # pragma: no cover
        return f"Branch({self.id}, {format_params(self.params)})"
