"""Dataflow operators (Appendix A of the paper).

Every vertex of a dataflow graph is an :class:`Operator` with an operator
function ``f_v : D^i -> D^o``.  Operators declare

* whether their downstream dependency is *narrow* (partition-wise, e.g. map
  and filter) or *wide* (requires all partitions, e.g. group-by) — this
  drives stage derivation,
* a *cost model* (``cost_factor`` compute units per input byte plus a
  ``fixed_cost``) used by the simulated cluster to charge compute time, and
* a *size model* (``selectivity``: output nominal bytes per input nominal
  byte) used to propagate paper-scale dataset sizes through the graph.

Concrete operators used by the workloads live in ``repro.workloads``; this
module provides the generic building blocks.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional

from .datasets import (
    Dataset,
    Partition,
    PayloadSplitter,
    concat_payloads,
    split_payload,
)
from .errors import ExecutionError

_op_counter = itertools.count()


def _auto_name(prefix: str) -> str:
    return f"{prefix}-{next(_op_counter)}"


class Operator:
    """Base class for all dataflow operators.

    Parameters
    ----------
    name:
        Unique operator name within a graph (auto-generated if omitted).
    cost_factor:
        Compute cost units charged per input nominal byte.
    fixed_cost:
        Compute cost units charged per task regardless of input size.
    selectivity:
        Ratio of output nominal bytes to input nominal bytes.
    """

    #: narrow operators run partition-wise; wide operators see all partitions
    narrow: bool = True

    def __init__(
        self,
        name: Optional[str] = None,
        cost_factor: float = 1.0,
        fixed_cost: float = 0.0,
        selectivity: float = 1.0,
    ):
        self.name = name if name is not None else _auto_name(type(self).__name__.lower())
        self.cost_factor = float(cost_factor)
        self.fixed_cost = float(fixed_cost)
        self.selectivity = float(selectivity)

    # ------------------------------------------------------------------ cost
    def compute_cost(self, input_bytes: int) -> float:
        """Compute cost units for processing ``input_bytes`` of input."""
        return self.fixed_cost + self.cost_factor * input_bytes

    def output_bytes(self, input_bytes: int) -> int:
        """Nominal output size for ``input_bytes`` of input."""
        return max(1, int(self.selectivity * input_bytes))

    # ------------------------------------------------------------- execution
    def apply_partition(self, data: Any) -> Any:
        """Transform one partition payload (narrow operators only)."""
        raise NotImplementedError(f"{type(self).__name__} is not a narrow operator")

    def apply_global(self, payloads: List[Any]) -> List[Any]:
        """Transform all partition payloads at once (wide operators only)."""
        raise NotImplementedError(f"{type(self).__name__} is not a wide operator")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class Source(Operator):
    """Reads or generates the input dataset of a dataflow.

    ``fn`` is called once per partition as ``fn(partition_index,
    num_partitions)`` and must return that partition's payload.  Pass a
    plain payload via :meth:`from_data` to split it automatically.
    ``nominal_bytes`` fixes the total nominal size of the produced dataset
    (paper-scale sizes); when omitted the real payload size is used.
    """

    def __init__(
        self,
        fn: Callable[[int, int], Any],
        name: Optional[str] = None,
        nominal_bytes: Optional[int] = None,
        cost_factor: float = 0.0,
        fixed_cost: float = 0.0,
    ):
        super().__init__(name=name, cost_factor=cost_factor, fixed_cost=fixed_cost)
        self.fn = fn
        self.nominal_bytes = nominal_bytes
        #: partitions memoized per (num_partitions, per-part bytes): repeated
        #: ``generate`` calls (sibling branches, warm re-runs) reuse the same
        #: Partition objects instead of re-invoking ``fn`` per partition
        self._generated: dict = {}

    @classmethod
    def from_data(
        cls,
        data: Any,
        name: Optional[str] = None,
        nominal_bytes: Optional[int] = None,
    ) -> "Source":
        """Build a source that splits an in-memory payload into partitions."""
        return cls(PayloadSplitter(data), name=name, nominal_bytes=nominal_bytes)

    def generate(self, num_partitions: int, producer: Optional[str] = None) -> Dataset:
        """Materialise the source dataset with ``num_partitions`` partitions."""
        per_part = (
            None
            if self.nominal_bytes is None
            else max(1, self.nominal_bytes // num_partitions)
        )
        ds_id = f"ds-src-{self.name}"
        parts = self._generated.get((num_partitions, per_part))
        if parts is None:
            parts = [
                Partition(ds_id, i, self.fn(i, num_partitions), per_part)
                for i in range(num_partitions)
            ]
            self._generated[(num_partitions, per_part)] = parts
        return Dataset(parts, dataset_id=ds_id, producer=producer or self.name)


class Map(Operator):
    """Element-wise transformation: ``fn`` is applied to every element."""

    def __init__(self, fn: Callable[[Any], Any], name: Optional[str] = None, **kwargs):
        super().__init__(name=name, **kwargs)
        self.fn = fn

    def apply_partition(self, data: Any) -> Any:
        try:
            return [self.fn(x) for x in data]
        except Exception as exc:  # noqa: BLE001 - wrap operator failures
            raise ExecutionError(self.name, str(exc)) from exc


class Filter(Operator):
    """Keeps elements for which the predicate holds."""

    def __init__(
        self,
        predicate: Callable[[Any], bool],
        name: Optional[str] = None,
        selectivity: float = 0.8,
        **kwargs,
    ):
        super().__init__(name=name, selectivity=selectivity, **kwargs)
        self.predicate = predicate

    def apply_partition(self, data: Any) -> Any:
        try:
            import numpy as np

            if isinstance(data, np.ndarray):
                mask = np.fromiter(
                    (bool(self.predicate(x)) for x in data), dtype=bool, count=len(data)
                )
                return data[mask]
            return [x for x in data if self.predicate(x)]
        except ExecutionError:
            raise
        except Exception as exc:  # noqa: BLE001
            raise ExecutionError(self.name, str(exc)) from exc


class Transform(Operator):
    """Whole-partition transformation: ``fn(payload) -> payload``.

    The workhorse narrow operator for workloads whose natural unit is a
    partition (e.g. vectorised numpy computation, masking a window of a
    time series partition).
    """

    def __init__(self, fn: Callable[[Any], Any], name: Optional[str] = None, **kwargs):
        super().__init__(name=name, **kwargs)
        self.fn = fn

    def apply_partition(self, data: Any) -> Any:
        try:
            return self.fn(data)
        except ExecutionError:
            raise
        except Exception as exc:  # noqa: BLE001
            raise ExecutionError(self.name, str(exc)) from exc


class FlatMap(Operator):
    """Maps each element to zero or more output elements."""

    def __init__(self, fn: Callable[[Any], List[Any]], name: Optional[str] = None, **kwargs):
        super().__init__(name=name, **kwargs)
        self.fn = fn

    def apply_partition(self, data: Any) -> Any:
        try:
            out: List[Any] = []
            for x in data:
                out.extend(self.fn(x))
            return out
        except Exception as exc:  # noqa: BLE001
            raise ExecutionError(self.name, str(exc)) from exc


class Aggregate(Operator):
    """Wide operator: ``fn`` receives the full concatenated payload.

    The result is re-partitioned across the cluster.  Used for model fitting
    and global statistics where a partition-wise computation would be wrong.
    """

    narrow = False

    def __init__(
        self,
        fn: Callable[[Any], Any],
        name: Optional[str] = None,
        selectivity: float = 0.1,
        **kwargs,
    ):
        super().__init__(name=name, selectivity=selectivity, **kwargs)
        self.fn = fn

    def apply_global(self, payloads: List[Any]) -> List[Any]:
        try:
            merged = concat_payloads(payloads)
            result = self.fn(merged)
            return split_payload(result, len(payloads))
        except Exception as exc:  # noqa: BLE001
            raise ExecutionError(self.name, str(exc)) from exc


class GroupBy(Operator):
    """Wide operator: groups elements by a key function.

    Produces one ``(key, [elements])`` pair per group, spread over the same
    number of partitions as the input: the i-th key seen goes to partition
    ``i % n``.  Not by ``hash(key)``: string hashes change with the
    process's hash seed, and the output must not.
    """

    narrow = False

    def __init__(
        self,
        key_fn: Callable[[Any], Any],
        name: Optional[str] = None,
        selectivity: float = 1.0,
        **kwargs,
    ):
        super().__init__(name=name, selectivity=selectivity, **kwargs)
        self.key_fn = key_fn

    def apply_global(self, payloads: List[Any]) -> List[Any]:
        try:
            groups: dict = {}
            for payload in payloads:
                for x in payload:
                    groups.setdefault(self.key_fn(x), []).append(x)
            n = max(1, len(payloads))
            out: List[List[Any]] = [[] for _ in range(n)]
            for i, group in enumerate(groups.items()):
                out[i % n].append(group)
            return out
        except Exception as exc:  # noqa: BLE001
            raise ExecutionError(self.name, str(exc)) from exc


class Join(Operator):
    """Wide two-input operator: ``fn(left_payload, right_payload)``.

    Appendix A's operator functions are ``f_v : D^i -> D^o``; joins are the
    common ``i = 2`` case (sensor fusion, enrichment, feature joins).  Both
    inputs are gathered (a shuffle), ``fn`` receives their fully
    concatenated payloads in declaration order, and the result is
    re-partitioned.  ``input_names`` fixes the left/right order — graph
    edges are unordered, so the builder records which operand is which.
    """

    narrow = False

    def __init__(
        self,
        fn: Callable[[Any, Any], Any],
        name: Optional[str] = None,
        selectivity: float = 1.0,
        **kwargs,
    ):
        super().__init__(name=name, selectivity=selectivity, **kwargs)
        self.fn = fn
        #: operator names of the (left, right) operands, set by the builder
        self.input_names: List[str] = []

    def apply_join(self, left: Any, right: Any) -> Any:
        try:
            return self.fn(left, right)
        except Exception as exc:  # noqa: BLE001
            raise ExecutionError(self.name, str(exc)) from exc


class Sink(Operator):
    """Terminal operator collecting the final result of a dataflow.

    ``fn`` receives the fully concatenated payload; its return value becomes
    the job output.  The default sink returns the payload unchanged.
    """

    def __init__(
        self,
        fn: Optional[Callable[[Any], Any]] = None,
        name: Optional[str] = None,
        **kwargs,
    ):
        super().__init__(name=name, cost_factor=kwargs.pop("cost_factor", 0.0), **kwargs)
        self.fn = fn if fn is not None else (lambda payload: payload)

    def apply_partition(self, data: Any) -> Any:
        return data

    def finalize(self, dataset: Dataset) -> Any:
        """Run the sink function on the collected dataset payload."""
        try:
            return self.fn(dataset.collect())
        except Exception as exc:  # noqa: BLE001
            raise ExecutionError(self.name, str(exc)) from exc


class Identity(Operator):
    """Pass-through operator (used when collapsing graphs and in tests)."""

    def __init__(self, name: Optional[str] = None, **kwargs):
        super().__init__(name=name, cost_factor=kwargs.pop("cost_factor", 0.0), **kwargs)

    def apply_partition(self, data: Any) -> Any:
        return data
