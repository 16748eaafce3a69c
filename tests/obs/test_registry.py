"""Unit tests for the labeled metrics registry (instruments + aggregation)."""

import json
import math

import pytest

from repro.obs import DEFAULT_BUCKETS, LABEL_NAMES, MetricsRegistry, prometheus_text
from repro.obs.registry import Counter, Gauge, Histogram
from repro.service.obs import JOB_VIEW_FAMILIES, SERVICE_LABEL_NAMES

from ..golden.regenerate import record_failure_recovery, record_shared_store_cache


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_set_and_ratchet(self):
        g = Gauge()
        g.set(5)
        g.set_max(3)
        assert g.value == 5.0
        g.set_max(7)
        assert g.value == 7.0
        g.inc(1)
        g.dec(2)
        assert g.value == 6.0

    def test_histogram_observe_and_quantiles(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(6.5)
        assert 0.0 <= h.p50 <= 2.0
        assert h.quantile(1.0) >= h.quantile(0.5)

    def test_histogram_empty_quantile_is_nan(self):
        assert math.isnan(Histogram().p95)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_default_buckets_span_micro_to_kiloseconds(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] > 1000.0


class TestRegistry:
    def test_counter_children_keyed_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("tasks", node="w0").inc(2)
        reg.counter("tasks", node="w1").inc(3)
        reg.counter("tasks", node="w0").inc(1)
        assert reg.value("tasks") == 6.0
        assert reg.value("tasks", node="w0") == 3.0

    def test_unknown_label_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x", nope="y")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_aggregate_groups_and_sums(self):
        reg = MetricsRegistry()
        reg.counter("bytes", node="w0", dataset="d1").inc(10)
        reg.counter("bytes", node="w0", dataset="d2").inc(5)
        reg.counter("bytes", node="w1", dataset="d1").inc(1)
        assert reg.aggregate("bytes", ("node",)) == {("w0",): 15.0, ("w1",): 1.0}
        assert reg.aggregate("bytes", ()) == {(): 16.0}
        # total is granularity-independent
        assert sum(reg.aggregate("bytes", ("dataset",)).values()) == 16.0

    def test_max_value_over_children(self):
        reg = MetricsRegistry()
        reg.gauge("mem", node="w0").set(4)
        reg.gauge("mem", node="w1").set(9)
        assert reg.max_value("mem") == 9.0
        assert reg.max_value("missing") == 0.0

    def test_histogram_value_is_sum(self):
        reg = MetricsRegistry()
        reg.histogram("lat", stage="s0").observe(1.5)
        reg.histogram("lat", stage="s1").observe(2.5)
        assert reg.value("lat") == pytest.approx(4.0)

    def test_label_names_fixed(self):
        assert LABEL_NAMES == ("node", "branch", "stage", "dataset", "policy")


class TestCounterCells:
    """A counter family is one ``{label tuple: float}`` table; a ``Counter``
    is a handle on one cell of it."""

    def test_two_handles_on_one_cell_see_each_others_writes(self):
        reg = MetricsRegistry()
        first = reg.counter("tasks", node="w0")
        second = reg.counter("tasks", node="w0")
        first.inc(2)
        second.inc()
        assert first.value == second.value == 3.0
        (through_series,) = reg.series("tasks").values()
        through_series.inc(0.5)
        assert first.value == reg.value("tasks") == 3.5
        assert reg.cells("tasks") == {("w0", "", "", "", ""): 3.5}

    def test_the_cell_table_is_live(self):
        reg = MetricsRegistry()
        cells = reg.cells("bytes")
        assert reg.names() == ["bytes"] and reg.series("bytes") == {}
        cells[("w0", "", "", "", "")] = 4.0
        assert reg.counter("bytes", node="w0").value == 4.0
        assert reg.cells("bytes") is cells
        reg.gauge("mem")
        with pytest.raises(ValueError, match="already registered as a gauge"):
            reg.cells("mem")

    def test_counter_without_increment_is_in_the_snapshot_at_zero(self):
        reg = MetricsRegistry()
        reg.counter("errors", policy="t0")
        assert reg.snapshot()["families"]["errors"] == {
            "kind": "counter",
            "series": [{"labels": ["", "", "", "", "t0"], "value": 0.0}],
        }
        assert MetricsRegistry.from_snapshot(reg.snapshot()).value("errors") == 0.0

    def test_handle_rejects_negative_and_leaves_the_cell(self):
        reg = MetricsRegistry()
        counter = reg.counter("x")
        counter.inc(1)
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-0.5)
        assert counter.value == 1.0


def add_counters(expected, source, collapse=None):
    """What ``merge`` did when every child was an object of its own:
    families by name, children in sorted label order, each value added
    onto its (possibly collapsed) target, which starts at 0.0."""
    for name in source.names():
        if source.kind_of(name) == "counter":
            for labels, handle in sorted(source.series(name).items()):
                key = (name, collapse or labels)
                expected[key] = expected.get(key, 0.0) + handle.value


def counter_cells(registry):
    return {
        (name, labels): value
        for name in registry.names()
        if registry.kind_of(name) == "counter"
        for labels, value in registry.cells(name).items()
    }


@pytest.mark.parametrize(
    "record", [record_failure_recovery, record_shared_store_cache], ids=lambda r: r.__name__
)
class TestGoldenScenarioTransport:
    """merge and the snapshot round trip on two golden scenarios (a node
    failure; a cold + warm cache session, itself a merge), bit for bit
    against the object-per-child reference."""

    def test_merge_label_set_by_label_set(self, record):
        _, cluster = record()
        merged, expected = MetricsRegistry(), {}
        for _ in range(2):  # the second merge adds onto existing cells
            merged.merge(cluster.obs)
            add_counters(expected, cluster.obs)
        assert counter_cells(merged) == expected
        assert merged.names() == cluster.obs.names()

    def test_merge_collapsed_onto_one_service_label_set(self, record):
        _, cluster = record()
        service = MetricsRegistry(label_names=SERVICE_LABEL_NAMES)
        labels = {"tenant": "t0", "workload": "golden"}
        service.merge(cluster.obs, labels=labels, names=JOB_VIEW_FAMILIES)
        expected = {}
        add_counters(expected, cluster.obs, collapse=service._resolve(labels))
        expected = {k: v for k, v in expected.items() if k[0] in JOB_VIEW_FAMILIES}
        assert counter_cells(service) == expected and expected

    def test_snapshot_round_trip(self, record):
        _, cluster = record()
        snapshot = cluster.obs.snapshot()
        rebuilt = MetricsRegistry.from_snapshot(json.loads(json.dumps(snapshot)))
        assert rebuilt.snapshot() == snapshot
        assert prometheus_text(rebuilt) == prometheus_text(cluster.obs)
        assert counter_cells(rebuilt) == counter_cells(cluster.obs)
