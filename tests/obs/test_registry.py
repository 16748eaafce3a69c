"""Unit tests for the labeled metrics registry (instruments + aggregation)."""

import math

import pytest

from repro.obs import DEFAULT_BUCKETS, LABEL_NAMES, MetricsRegistry
from repro.obs.registry import Counter, Gauge, Histogram


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
