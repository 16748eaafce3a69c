"""The job-global ``Metrics`` as a derived view over the labeled registry."""

from dataclasses import fields

import pytest

from repro.cluster.metrics import _FLOAT_FIELDS, _MAX_FIELDS, Metrics
from repro.obs import MetricsRegistry


class TestUnbound:
    def test_plain_dataclass_behaviour(self):
        m = Metrics(partition_hits=3)
        m.evictions += 2
        assert m.partition_hits == 3
        assert m.evictions == 2

    def test_as_dict_covers_every_field(self):
        d = Metrics().as_dict()
        for f in fields(Metrics):
            assert f.name in d
        assert "memory_hit_ratio" in d and "total_time" in d


class TestBound:
    def test_reads_aggregate_registry(self):
        reg = MetricsRegistry()
        m = Metrics().bind(reg)
        reg.counter("evictions", node="w0", branch="b1").inc(2)
        reg.counter("evictions", node="w1").inc(3)
        assert m.evictions == 5
        assert isinstance(m.evictions, int)

    def test_writes_to_a_bound_view_raise(self):
        """The registry is written by the trace fold and the direct
        counters, never through the view."""
        reg = MetricsRegistry()
        m = Metrics().bind(reg)
        with pytest.raises(AttributeError):
            m.tasks_executed += 4
        with pytest.raises(AttributeError):
            m.peak_datasets_stored = 2
        assert reg.names() == []

    def test_peak_field_reads_max_and_ratchets(self):
        reg = MetricsRegistry()
        m = Metrics().bind(reg)
        reg.gauge("peak_datasets_stored").set_max(4)
        reg.gauge("peak_datasets_stored").set_max(2)  # ratchet: lower ignored
        assert m.peak_datasets_stored == 4

    def test_float_fields_stay_float(self):
        reg = MetricsRegistry()
        m = Metrics().bind(reg)
        reg.counter("time_io", node="w0").inc(0.25)
        assert m.time_io == pytest.approx(0.25)

    def test_hit_ratio_derives_from_registry(self):
        reg = MetricsRegistry()
        m = Metrics().bind(reg)
        reg.counter("bytes_read_memory", node="w0").inc(75)
        reg.counter("bytes_read_disk", node="w0").inc(25)
        assert m.memory_hit_ratio == pytest.approx(0.75)


class TestMerge:
    def test_merge_sums_counts_and_maxes_peaks(self):
        a = Metrics(evictions=2, peak_datasets_stored=5, time_io=1.0)
        b = Metrics(evictions=3, peak_datasets_stored=4, time_io=0.5)
        merged = a.merge(b)
        assert merged.evictions == 5
        assert merged.peak_datasets_stored == 5
        assert merged.time_io == pytest.approx(1.5)

    def test_merge_iterates_every_dataclass_field(self):
        """Regression: a newly added field must participate in merge()
        automatically instead of silently dropping out of merged reports."""
        ones = Metrics(**{f.name: 1 for f in fields(Metrics)})
        merged = ones.merge(ones)
        for f in fields(Metrics):
            expected = 1 if f.name in _MAX_FIELDS else 2
            assert getattr(merged, f.name) == expected, f.name

    def test_merge_of_bound_views(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        a, b = Metrics().bind(reg_a), Metrics().bind(reg_b)
        reg_a.counter("evictions", branch="x").inc(1)
        reg_b.counter("evictions", branch="y").inc(2)
        merged = a.merge(b)
        assert merged.evictions == 3

    def test_field_category_sets_are_subsets_of_fields(self):
        names = {f.name for f in fields(Metrics)}
        assert _MAX_FIELDS <= names
        assert _FLOAT_FIELDS <= names
