"""Tests for the cache benchmark surface: the ``cache_reuse`` figure,
which runs at its own small scale (16 branches, well under a second)."""

from repro.bench import ALL_FIGURES, cache_reuse


class TestCacheReuseFigure:
    def test_registered(self):
        assert "cache_reuse" in ALL_FIGURES

    def test_small_scale_passes_all_checks(self):
        result = cache_reuse()
        assert result.all_checks_pass, result.checks
        assert len(result.rows) == 2
        # warm hits recorded for both choose modes
        assert all(row[4] > 0 for row in result.rows)
