"""Cache × recovery interplay tests.

A node failure kills partitions the cache may be pointing at.  Lineage
recovery restores lost partitions byte-identically under their original
keys, so surviving entries refresh in place; entries whose backing is
truly gone (dead data dropped free, transients) are invalidated by the
post-recovery revalidation sweep.  The §5 exactness invariant — the failed
run finishes later than the clean run by precisely the charged recovery
seconds — must keep holding with the cache enabled.
"""

import pytest

from repro import Cluster, FailureInjector, GB, ResultCache, validate_trace
from repro.engine import EngineConfig, run_mdf
from repro.engine.job import outputs_digest

from ..conftest import build_filter_mdf


def fresh_cluster():
    return Cluster(num_workers=4, mem_per_worker=1 * GB)


def config(cache=None, **kw):
    return EngineConfig(pruning=False, cache=cache, **kw)


def failure_at(stage_index, node="worker-0", cache=None):
    return config(
        cache=cache, failures=FailureInjector.at_stages([(stage_index, node)])
    )


class TestExactnessWithCache:
    def test_failed_run_charges_exactly_recovery_seconds(self):
        """PR 3's 1e-9 exactness invariant survives the cache subsystem."""
        mdf = build_filter_mdf()
        clean = run_mdf(mdf, fresh_cluster(), config=config(cache=ResultCache()))
        cluster = fresh_cluster()
        failed = run_mdf(mdf, cluster, config=failure_at(2, cache=ResultCache()))
        charged = cluster.obs.value("recovery_seconds")
        assert charged > 0
        assert failed.completion_time == pytest.approx(
            clean.completion_time + charged, abs=1e-9
        )

    def test_same_output_despite_failure_with_cache(self):
        mdf = build_filter_mdf()
        clean = run_mdf(mdf, fresh_cluster(), config=config(cache=ResultCache()))
        failed = run_mdf(mdf, fresh_cluster(), config=failure_at(3, cache=ResultCache()))
        assert outputs_digest(failed.outputs) == outputs_digest(clean.outputs)

    def test_failure_run_validates_with_cache(self):
        result = run_mdf(
            build_filter_mdf(), fresh_cluster(), config=failure_at(2, cache=ResultCache())
        )
        assert validate_trace(result.events) == []


class TestInvalidationAndRefresh:
    def test_entries_for_dead_data_are_invalidated(self):
        """Whatever the failure kills for good must leave the cache too:
        after recovery no entry resolves to unreadable partitions."""
        cluster = fresh_cluster()
        cache = ResultCache()
        result = run_mdf(
            build_filter_mdf(), cluster, config=failure_at(2, cache=cache)
        )
        assert result is not None
        for fingerprint in list(cache._entries):
            entry = cache.entry(fingerprint)
            assert cache._resolve(entry, cluster) is not None

    def test_recovered_entries_still_serve_warm_runs(self):
        """Recovery restores partitions byte-identically under the original
        keys, so a warm re-run after a mid-run failure still hits."""
        mdf = build_filter_mdf()
        cluster = fresh_cluster()
        cache = ResultCache()
        cold = run_mdf(mdf, cluster, config=failure_at(2, cache=cache))
        hits_before = cache.stats.hits
        warm = run_mdf(mdf, cluster, config=config(cache=cache), reset=False)
        assert cache.stats.hits > hits_before
        assert outputs_digest(warm.outputs) == outputs_digest(cold.outputs)
        assert validate_trace(warm.events) == []

    def test_invalidate_events_traced_on_failure(self):
        """If revalidation drops entries it must say so in the trace."""
        cluster = fresh_cluster()
        cache = ResultCache()
        result = run_mdf(
            build_filter_mdf(), cluster, config=failure_at(2, cache=cache)
        )
        invalidates = [
            e for e in result.events if e.kind == "cache_invalidate"
        ]
        assert cache.stats.invalidations == len(invalidates)
        for event in invalidates:
            assert event.data["reason"] in (
                "node-failure",
                "dataset-discarded",
                "backing-lost",
            )

    def test_warm_run_with_failure_in_warm_phase(self):
        """A failure during the warm (cache-hitting) run must recover and
        still produce identical outputs."""
        mdf = build_filter_mdf()
        cluster = fresh_cluster()
        cache = ResultCache()
        cold = run_mdf(mdf, cluster, config=config(cache=cache))
        warm = run_mdf(
            mdf, cluster, config=failure_at(2, cache=cache), reset=False
        )
        assert outputs_digest(warm.outputs) == outputs_digest(cold.outputs)
        assert validate_trace(warm.events) == []
