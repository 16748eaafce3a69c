"""Labeled metrics registry: typed instruments with fixed label dimensions.

The job-global :class:`~repro.cluster.metrics.Metrics` bag answers *how
much* — total evictions, total bytes — but none of the paper's §6.2–§6.4
questions: *which branch* burned the memory budget, *which node* was the
eviction hotspot, *which stage* paid the spill.  This registry records the
same quantities as labeled time series, Prometheus-style:

* :class:`Counter` — monotone accumulation (bytes, tasks, evictions): a
  counter family is one ``{label tuple: float}`` table and a ``Counter`` is
  a handle on one of its cells,
* :class:`Gauge` — instantaneous values (memory in use, live branches),
* :class:`Histogram` — fixed log-scale buckets with p50/p95/p99 estimates
  (recovery charge per failure, the service's latency series).

Every instrument child carries the registry's label dimensions — by
default the five engine dimensions ``{node, branch, stage, dataset,
policy}`` (unset labels are ``""``); a registry built for a different
altitude (the service plane uses ``{tenant, workload, status, policy}``)
passes its own ``label_names``.  A child carries exactly the labels it is
given: attributing low-level observations to the executing stage and
branch is the trace fold's job (:mod:`repro.obs.bridge`), so neither the
cluster substrate nor the registry needs to know about branches.

Registries cross process boundaries as plain-dict snapshots
(:meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.from_snapshot`)
and merge (:meth:`MetricsRegistry.merge`): counters add, gauges ratchet to
the maximum, histograms add bucket counts (identical bounds required) so
a merged histogram is *exactly* the histogram a single process observing
every value would have built.  (The multi-tenant service needs less: it
keeps one total per family per ``{tenant, workload}``, so its workers
ship :func:`repro.service.obs.job_view_totals` instead.)
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: the default (engine) label dimensions, in canonical order
LABEL_NAMES: Tuple[str, ...] = ("node", "branch", "stage", "dataset", "policy")

LabelValues = Tuple[str, ...]


def labels_dict(
    values: LabelValues, names: Tuple[str, ...] = LABEL_NAMES
) -> Dict[str, str]:
    """A label tuple as a ``{name: value}`` dict, empty values omitted."""
    return {name: value for name, value in zip(names, values) if value}


class Counter:
    """A monotonically increasing accumulator for one label set: a handle
    on one cell of its family's ``{label tuple: float}`` table
    (:meth:`MetricsRegistry.cells`), so two handles on the same labels see
    each other's writes.  A bare ``Counter()`` owns a one-cell table."""

    __slots__ = ("_cells", "_labels")
    kind = "counter"

    def __init__(self, cells: Optional[Dict[LabelValues, float]] = None, labels: LabelValues = ()):
        self._cells = {labels: 0.0} if cells is None else cells
        self._labels = labels

    @property
    def value(self) -> float:
        return self._cells[self._labels]

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self._cells[self._labels] += amount


class Gauge:
    """An instantaneous value for one label set."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Ratchet: keep the maximum ever set (peak gauges)."""
        if value > self.value:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def merge(self, other: "Gauge") -> None:
        """Cross-process gauge merge keeps the maximum (peak semantics).

        Instantaneous values from two processes cannot be summed
        meaningfully after the fact; peaks (the only gauges the service
        rolls up) ratchet.
        """
        self.set_max(other.value)


#: default histogram buckets: log-scale (powers of four) from 1 µs up to
#: ~1073 simulated seconds, wide enough for task latencies and stage walls
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(1e-6 * 4**i for i in range(16))


class Histogram:
    """Fixed-bucket histogram with quantile estimates.

    Buckets are upper bounds (a final +Inf bucket is implicit).  Quantiles
    are estimated by linear interpolation inside the containing bucket —
    exact enough for the log-scale reporting the benchmarks need.
    """

    __slots__ = ("bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, bounds: Optional[Iterable[float]] = None):
        self.bounds: Tuple[float, ...] = tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bucket bounds must be sorted")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if cumulative + bucket_count >= target:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
                if bucket_count == 0:
                    return lo
                return lo + (hi - lo) * (target - cumulative) / bucket_count
            cumulative += bucket_count
        return self.bounds[-1]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in (bucket counts add, exactly).

        Requires identical bucket bounds — merged bucket counts are then
        equal to the counts a single histogram observing every value
        would hold, so quantile estimates after a merge are *identical*
        to a single-process run's (the cross-process parity invariant
        ``tests/obs/test_registry_merge.py`` asserts).
        """
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} buckets)"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.sum += other.sum
        self.count += other.count


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank ``q``-quantile (0 <= q <= 1) of non-empty ``values``:
    no interpolation, no numpy — the one percentile the service plane, the
    bench reports and the wall-clock harness all quote."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class ExactHistogram(Histogram):
    """A histogram that additionally retains every observation.

    The service-plane latency/queue-wait series need *exact* nearest-rank
    percentiles (:func:`nearest_rank`, as the benchmarks report), which
    bucketed estimates cannot give.  Service job counts are small
    (thousands, not billions), so keeping the raw values is cheap; the
    bucketed view is still maintained for the Prometheus exposition.
    """

    __slots__ = ("values",)

    def __init__(self, bounds: Optional[Iterable[float]] = None):
        super().__init__(bounds)
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        super().observe(value)
        self.values.append(float(value))

    def quantile(self, q: float) -> float:
        """Exact nearest-rank ``q``-quantile over the retained values."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.values:
            return float("nan")
        return nearest_rank(self.values, q)

    def merge(self, other: "Histogram") -> None:
        super().merge(other)
        if isinstance(other, ExactHistogram):
            self.values.extend(other.values)
        else:  # pragma: no cover - degenerate pairing, keep counts honest
            raise ValueError("cannot merge a bucket-only histogram into an exact one")


class Family:
    """All children (label sets) of one named instrument: :class:`Gauge` /
    :class:`Histogram` objects or, in a counter family, the cells' floats."""

    __slots__ = ("kind", "children", "_factory")

    def __init__(self, kind: str, factory: Optional[Callable[[], Any]]):
        self.kind = kind
        self.children: Dict[LabelValues, Any] = {}
        self._factory = factory  # None for counters: a cell is born 0.0

    def child(self, labels: LabelValues):
        if self.kind == "counter":
            self.children.setdefault(labels, 0.0)
            return Counter(self.children, labels)
        instrument = self.children.get(labels)
        if instrument is None:
            instrument = self._factory()
            self.children[labels] = instrument
        return instrument


class MetricsRegistry:
    """Per-job store of labeled instruments.

    The cluster owns one registry per run (reset with the cluster, like the
    decision trace); the trace fold writes its counters, a few direct
    instruments the rest.  Aggregation helpers power the derived
    :class:`~repro.cluster.metrics.Metrics` view and the exporters.

    **Fold on read.**  A cluster's registry is a lazy view of its trace
    (:meth:`fold_from`): every access — a handle, a query, a snapshot, a
    merge — first folds the events appended since the last access, in
    emission order, with one cursor.  A run nobody reads pays no fold; a
    run that is read pays it once, in one batch.  A handle is a view of
    its cell as of the access that made it: after later events, fetch it
    again from the registry.

    ``label_names`` defaults to the engine dimensions; pass a different
    tuple to build a registry for another altitude (the service plane
    uses ``repro.service.obs.SERVICE_LABEL_NAMES``).
    """

    def __init__(self, label_names: Tuple[str, ...] = LABEL_NAMES):
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._families: Dict[str, Family] = {}
        #: what this registry is a lazy fold of (:meth:`fold_from`): an
        #: append-only event list, the fold over it, and how many of its
        #: events are folded.  Each access checks ``_events[_folded:]``
        #: inline, so an access with nothing to fold makes no extra call.
        self._events: Sequence[Any] = ()
        self._fold: Any = None
        self._folded = 0

    def fold_from(self, events: List[Any], fold: Any) -> None:
        """Make this registry a lazy fold of ``events`` from now on.

        ``events`` is a list that only grows (a cluster's ``trace.events``)
        and ``fold`` has ``fold(events, registry)``
        (:class:`~repro.obs.bridge.TraceFold`).  Before any access the
        registry hands the fold the events it has not folded yet; the fold
        holds no reference back, so the registry and its trace die with
        their cluster, without waiting for the cyclic GC.
        """
        self._events, self._fold, self._folded = events, fold, 0

    def _fold_in(self, pending: List[Any]) -> None:
        """Fold ``pending``, the events past the cursor.  The cursor moves
        first, so the fold's own accesses find nothing pending."""
        self._folded += len(pending)
        self._fold.fold(pending, self)

    def _resolve(self, labels: Dict[str, Optional[str]]) -> LabelValues:
        """Keyword labels as a full tuple in ``label_names`` order."""
        for name in labels:
            if name not in self.label_names:
                raise ValueError(
                    f"unknown label {name!r} (allowed: {self.label_names})"
                )
        return tuple(str(labels.get(name) or "") for name in self.label_names)

    def _family(self, name: str, kind: str, factory: Optional[Callable[[], Any]] = None) -> Family:
        pending = self._events[self._folded:]
        if pending:
            self._fold_in(pending)
        family = self._families.get(name)
        if family is None:
            family = Family(kind, factory)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"instrument {name!r} already registered as a {family.kind}, "
                f"cannot re-register as a {kind}"
            )
        return family

    # -------------------------------------------------------------- instruments
    def counter(self, name: str, **labels: Optional[str]) -> Counter:
        """A handle on the counter cell for exactly the given labels (the
        cell exists, at 0.0, from this call on)."""
        return self._family(name, "counter").child(self._resolve(labels))

    def cells(self, name: str) -> Dict[LabelValues, float]:
        """Counter family ``name`` as its live ``{label tuple: float}``
        table, keyed by full tuples in ``label_names`` order.  The trace
        fold adds to it in place; a writer keeps amounts >= 0 itself."""
        pending = self._events[self._folded:]
        if pending:
            self._fold_in(pending)
        family = self._families.get(name)
        if family is None or family.kind != "counter":
            family = self._family(name, "counter")
        return family.children

    def gauge(self, name: str, **labels: Optional[str]) -> Gauge:
        """The gauge child for exactly the given labels."""
        family = self._family(name, "gauge", Gauge)
        return family.child(self._resolve(labels))

    def histogram(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        exact: bool = False,
        **labels: Optional[str],
    ) -> Histogram:
        """The histogram child for exactly the given labels.

        ``exact=True`` makes children :class:`ExactHistogram`\\ s, which
        retain every observation for exact nearest-rank quantiles (the
        service latency series).  All children of one family share the
        same exactness (set on first use).
        """
        bounds = tuple(buckets) if buckets is not None else None
        cls = ExactHistogram if exact else Histogram
        family = self._family(name, "histogram", lambda: cls(bounds))
        return family.child(self._resolve(labels))

    # --------------------------------------------------------------- queries
    def names(self) -> List[str]:
        pending = self._events[self._folded:]
        if pending:
            self._fold_in(pending)
        return sorted(self._families)

    def kind_of(self, name: str) -> Optional[str]:
        pending = self._events[self._folded:]
        if pending:
            self._fold_in(pending)
        family = self._families.get(name)
        return family.kind if family is not None else None

    def series(self, name: str) -> Dict[LabelValues, Any]:
        """All children of one instrument, keyed by their label tuples
        (counter cells as :class:`Counter` handles)."""
        pending = self._events[self._folded:]
        if pending:
            self._fold_in(pending)
        family = self._families.get(name)
        if family is None:
            return {}
        return {labels: family.child(labels) for labels in family.children}

    def _amounts(self, name: str) -> Iterable[Tuple[LabelValues, float]]:
        """``(labels, amount)`` per child: counter cells, gauge values,
        histogram sums."""
        pending = self._events[self._folded:]
        if pending:
            self._fold_in(pending)
        family = self._families.get(name)
        children = family.children.items() if family is not None else ()
        if family is None or family.kind == "counter":
            return children
        if family.kind == "histogram":
            return ((labels, h.sum) for labels, h in children)
        return ((labels, g.value) for labels, g in children)

    def _matches(self, labels: LabelValues, where: Dict[str, str]) -> bool:
        return all(
            labels[self.label_names.index(name)] == value
            for name, value in where.items()
        )

    def value(self, name: str, **where: str) -> float:
        """Sum of matching children (counter values / histogram sums)."""
        total = 0.0
        for labels, amount in self._amounts(name):
            if self._matches(labels, where):
                total += amount
        return total

    def max_value(self, name: str, **where: str) -> float:
        """Maximum over matching children (peak gauges); 0.0 when empty."""
        values = [
            amount
            for labels, amount in self._amounts(name)
            if self._matches(labels, where)
        ]
        return max(values, default=0.0)

    def aggregate(self, name: str, by: Tuple[str, ...]) -> Dict[Tuple[str, ...], float]:
        """Totals of one instrument grouped by a subset of label dimensions.

        The group key preserves the order of ``by``; children differing only
        in the other dimensions are summed.  This is what the per-branch /
        per-node breakdown tables and the trace-consistency checks consume.
        """
        indices = [self.label_names.index(dim) for dim in by]
        out: Dict[Tuple[str, ...], float] = {}
        for labels, amount in self._amounts(name):
            key = tuple(labels[i] for i in indices)
            out[key] = out.get(key, 0.0) + amount
        return out

    # --------------------------------------------------- snapshot / merge
    def snapshot(self, names: Optional[Iterable[str]] = None) -> Dict[str, Any]:
        """The registry as a plain JSON-serialisable dict.

        The snapshot is complete (bucket bounds, every count, retained
        exact-histogram values), so :meth:`from_snapshot` rebuilds an
        equivalent registry in another process.  ``names`` restricts the
        snapshot to a subset of instrument families.
        """
        wanted = set(names) if names is not None else None
        families: Dict[str, Any] = {}
        for name in self.names():
            if wanted is not None and name not in wanted:
                continue
            family = self._families[name]
            series: List[Dict[str, Any]] = []
            for labels in sorted(family.children):
                instrument = family.children[labels]
                entry: Dict[str, Any] = {"labels": list(labels)}
                if family.kind == "histogram":
                    entry["bounds"] = list(instrument.bounds)
                    entry["counts"] = list(instrument.counts)
                    entry["sum"] = instrument.sum
                    entry["count"] = instrument.count
                    if isinstance(instrument, ExactHistogram):
                        entry["values"] = list(instrument.values)
                else:
                    entry["value"] = instrument if family.kind == "counter" else instrument.value
                series.append(entry)
            families[name] = {"kind": family.kind, "series": series}
        return {"label_names": list(self.label_names), "families": families}

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict (cross-process)."""
        registry = cls(label_names=tuple(snapshot["label_names"]))
        for name, family_snap in snapshot["families"].items():
            kind = family_snap["kind"]
            for entry in family_snap["series"]:
                labels = tuple(entry["labels"])
                if kind == "histogram":
                    exact = "values" in entry
                    instrument = (ExactHistogram if exact else Histogram)(
                        entry["bounds"]
                    )
                    instrument.counts = [int(c) for c in entry["counts"]]
                    instrument.sum = float(entry["sum"])
                    instrument.count = int(entry["count"])
                    if exact:
                        instrument.values = [float(v) for v in entry["values"]]
                elif kind == "gauge":
                    instrument = Gauge()
                    instrument.value = float(entry["value"])
                else:
                    instrument = float(entry["value"])
                family = registry._family(
                    name, kind, {"counter": None, "gauge": Gauge}.get(kind, Histogram)
                )
                family.children[labels] = instrument
        return registry

    def merge(
        self,
        other: "MetricsRegistry",
        labels: Optional[Dict[str, str]] = None,
        names: Optional[Iterable[str]] = None,
    ) -> None:
        """Fold another registry in (counters add, gauges ratchet,
        histograms add bucket counts).

        With ``labels`` every child of ``other`` collapses onto that one
        label set in *this* registry's dimensions — the service plane
        collapses a job's per-stage children onto ``{tenant, workload}``.
        Without ``labels`` the registries must share label dimensions and
        children merge label-set by label-set.  ``names`` restricts the
        merge to a subset of families.  Children are merged in sorted
        label order, so repeated merges are deterministic.
        """
        if labels is None and other.label_names != self.label_names:
            raise ValueError(
                f"cannot merge registries with different label dimensions "
                f"{other.label_names} -> {self.label_names} without a "
                f"collapse label set"
            )
        target_labels: Optional[LabelValues] = None
        if labels is not None:
            target_labels = self._resolve(labels)
        wanted = set(names) if names is not None else None
        for name in other.names():
            if wanted is not None and name not in wanted:
                continue
            source = other._families[name]
            family = self._family(name, source.kind, source._factory)
            for child_labels in sorted(source.children):
                instrument = source.children[child_labels]
                key = target_labels if target_labels is not None else child_labels
                if source.kind == "counter":
                    family.children[key] = family.children.get(key, 0.0) + instrument
                    continue
                mine = family.children.get(key)
                if mine is None:
                    if source.kind == "histogram":
                        mine = type(instrument)(instrument.bounds)
                    else:
                        mine = type(instrument)()
                    family.children[key] = mine
                mine.merge(instrument)

    def __repr__(self) -> str:  # pragma: no cover
        children = sum(len(f.children) for f in self._families.values())
        return f"MetricsRegistry(instruments={len(self._families)}, series={children})"
