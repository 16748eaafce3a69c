"""Execution metrics collected by the simulated cluster.

The paper's evaluation reports completion times and the *memory hit ratio*:
the fraction of data accesses that read data residing in memory (§6.2).
This module tracks both, plus eviction counts, byte volumes, per-category
time breakdowns, and pruning statistics, so every figure of §6.2–§6.4 can
be regenerated.

A cluster's ``Metrics`` is a *derived view*: :meth:`Metrics.bind` attaches
it to the cluster's :class:`~repro.obs.registry.MetricsRegistry`, after
which every field read aggregates the labeled series (sum for counters,
max for peaks) and the fields are read-only — the registry is written by
the trace fold (:mod:`repro.obs.bridge`) and a few direct counters, never
through the view.  ``as_dict()`` consumers, ``merge()`` over baseline runs
and plain ``Metrics()`` literals keep working: an unbound instance is an
ordinary dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

#: fields merged/read by maximum instead of sum (gauge-backed peaks)
_MAX_FIELDS = frozenset({"peak_datasets_stored"})
#: fields reported as floats (everything else is an integer count)
_FLOAT_FIELDS = frozenset({"time_compute", "time_io", "time_network"})


@dataclass
class Metrics:
    """Counters accumulated over one job execution."""

    bytes_read_memory: int = 0
    bytes_read_disk: int = 0
    bytes_written_memory: int = 0
    bytes_written_disk: int = 0
    partition_hits: int = 0
    partition_misses: int = 0
    evictions: int = 0
    datasets_discarded: int = 0
    branches_pruned: int = 0
    branches_executed: int = 0
    stages_executed: int = 0
    tasks_executed: int = 0
    choose_evaluations: int = 0
    time_compute: float = 0.0
    time_io: float = 0.0
    time_network: float = 0.0
    peak_datasets_stored: int = 0
    recoveries: int = 0
    #: recoveries that re-executed a producing stage because no copy of the
    #: lost partition survived (checkpoint reloads are plain recoveries)
    recovery_reexecutions: int = 0
    #: stages re-run by lineage recovery after a node failure
    stages_reexecuted: int = 0
    #: transient task-failure attempts retried with backoff (§5)
    task_retries: int = 0
    speculative_tasks: int = 0

    # --------------------------------------------------------- registry view
    def bind(self, registry) -> "Metrics":
        """Turn this instance into a read-only live view over a registry.

        Bound, every field read aggregates the registry's labeled series
        under the same name, so the two observability layers cannot drift
        apart; assigning a field raises ``AttributeError``.
        """
        self.__class__ = _BoundMetrics
        self.__dict__["_registry"] = registry
        return self

    # ------------------------------------------------------------ aggregates
    @property
    def memory_hit_ratio(self) -> float:
        """Fraction of read bytes served from memory (1.0 when nothing read)."""
        total = self.bytes_read_memory + self.bytes_read_disk
        if total == 0:
            return 1.0
        return self.bytes_read_memory / total

    @property
    def total_time(self) -> float:
        return self.time_compute + self.time_io + self.time_network

    def merge(self, other: "Metrics") -> "Metrics":
        """Element-wise sum of two metric sets (peaks take the maximum).

        Iterates the dataclass fields so a newly added metric participates
        automatically instead of silently dropping out of merged reports.
        """
        merged = Metrics()
        for name in _FIELD_NAMES:
            mine, theirs = getattr(self, name), getattr(other, name)
            combined = max(mine, theirs) if name in _MAX_FIELDS else mine + theirs
            setattr(merged, name, combined)
        return merged

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reporting."""
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        data["memory_hit_ratio"] = self.memory_hit_ratio
        data["total_time"] = self.total_time
        return data


_FIELD_NAMES = tuple(f.name for f in fields(Metrics))


class _BoundMetrics(Metrics):
    """What :meth:`Metrics.bind` turns an instance into: every field a
    read-only property aggregating the bound registry."""


def _registry_view(name: str) -> property:
    def read(self):
        registry = self.__dict__["_registry"]
        value = (
            registry.max_value(name) if name in _MAX_FIELDS else registry.value(name)
        )
        return value if name in _FLOAT_FIELDS else int(value)

    return property(read, doc=f"``{name}`` aggregated over the bound registry")


for _name in _FIELD_NAMES:
    setattr(_BoundMetrics, _name, _registry_view(_name))
