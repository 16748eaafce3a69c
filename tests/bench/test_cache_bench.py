"""Tests for the cache benchmark surface: the ``cache_reuse`` figure
(scaled far below the defaults so the suite stays fast)."""

from repro.bench import ALL_FIGURES, cache_reuse


class TestCacheReuseFigure:
    def test_registered(self):
        assert "cache_reuse" in ALL_FIGURES

    def test_small_scale_passes_all_checks(self):
        result = cache_reuse(branch_count=4, trace_n=2_000)
        assert result.all_checks_pass, result.checks
        assert len(result.rows) == 2
        # warm hits recorded for both choose modes
        assert all(row[4] > 0 for row in result.rows)
