"""The exact nearest-rank percentile the wall-clock harness reports with."""

from repro.bench.loadgen import percentile


class TestPercentile:
    def test_exact_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 99) == 5.0
        assert percentile(values, 100) == 5.0
        assert percentile(values, 1) == 1.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_empty(self):
        assert percentile([], 50) is None
