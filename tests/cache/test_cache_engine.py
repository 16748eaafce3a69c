"""Engine-level tests for the lineage-fingerprint result cache.

The contract: cache **off** (the default) is byte-identical to a run
without the subsystem; cache **on** never changes outputs, only skips
work — across branches inside one run and across ``run_mdf`` calls.
"""

import pytest

from repro import (
    CallableEvaluator,
    Cluster,
    GB,
    MB,
    MDFBuilder,
    Min,
    ResultCache,
    prometheus_text,
    run_mdf,
    validate_trace,
)
from repro.cache import SharedCacheStore
from repro.engine import EngineConfig
from repro.obs.bridge import diff_registries, registry_from_trace

from ..conftest import build_filter_mdf


def fresh_cluster(workers=4):
    return Cluster(num_workers=workers, mem_per_worker=1 * GB)


class TestDisabledIsIdentity:
    def test_default_config_has_no_cache(self):
        assert EngineConfig().cache is None

    def test_disabled_run_traces_identically(self):
        """No cache (default) must emit exactly the events it always did."""
        mdf = build_filter_mdf()
        without = run_mdf(mdf, fresh_cluster())
        explicit = run_mdf(mdf, fresh_cluster(), config=EngineConfig(cache=None))
        assert [
            (e.kind, e.data) for e in without.events
        ] == [(e.kind, e.data) for e in explicit.events]

    def test_enabled_run_costs_the_same_simulated_time(self):
        """The cache itself is free: a cold cached run and an uncached run
        advance the simulated clock identically."""
        plain = run_mdf(build_filter_mdf(), fresh_cluster())
        cached = run_mdf(
            build_filter_mdf(),
            fresh_cluster(),
            config=EngineConfig(cache=ResultCache()),
        )
        assert cached.completion_time == pytest.approx(plain.completion_time)
        assert repr(cached.outputs) == repr(plain.outputs)


class TestWarmReuse:
    def run_twice(self, config=None, **kw):
        cluster = fresh_cluster()
        cache = ResultCache()
        config = config or EngineConfig(pruning=False, cache=cache, **kw)
        cold = run_mdf(build_filter_mdf(), cluster, config=config)
        warm = run_mdf(build_filter_mdf(), cluster, config=config, reset=False)
        return cold, warm, cache

    def test_warm_run_hits_and_is_faster(self):
        cold, warm, cache = self.run_twice()
        assert cache.stats.hits > 0
        warm_time = warm.completion_time - cold.completion_time
        assert warm_time < cold.completion_time
        assert repr(warm.outputs) == repr(cold.outputs)

    def test_warm_run_validates(self):
        _, warm, _ = self.run_twice()
        assert validate_trace(warm.events) == []

    def test_shared_prefix_reduction_at_least_25_percent(self):
        """The PR acceptance bar: a warm re-run of the explore workload
        completes in at most 75% of the cold simulated time."""
        cold, warm, _ = self.run_twice()
        warm_time = warm.completion_time - cold.completion_time
        assert warm_time <= 0.75 * cold.completion_time

    def test_two_store_hits_hand_out_independent_payloads(self, tmp_path):
        """A store hit is a fresh load owned by the run it was served to:
        scribbling over what the first warm run got, in place, does not
        change what the second one gets."""
        cache = ResultCache(store=SharedCacheStore(str(tmp_path)), cost_based=False)
        config = EngineConfig(pruning=False, cache=cache)
        cold = run_mdf(build_filter_mdf(), fresh_cluster(), config=config)
        scribbled = 0
        for _ in range(2):
            cache.clear()  # forget the cluster tier: the store serves
            cluster = fresh_cluster()
            warm = run_mdf(build_filter_mdf(), cluster, config=config)
            assert repr(warm.outputs) == repr(cold.outputs)
            for event in warm.events.filter("cache_hit"):
                assert event.data["tier"] == "store"
                if cluster.has_dataset(event.data["dataset"]):
                    for payload in cluster.peek_payloads(event.data["dataset"]):
                        payload.clear()
                        scribbled += 1
        assert scribbled

    def test_cross_branch_reuse_of_identical_branches(self):
        """Two branches with identical parameters fingerprint identically;
        the second one is served from the first one's result."""

        labels = iter("ab")

        def duplicated_mdf():
            builder = MDFBuilder("dup-mdf")
            src = builder.read_data(
                list(range(500)), name="src", nominal_bytes=64 * MB
            )
            src.explore(
                {"threshold": [50, 50]},
                lambda pipe, p: pipe.transform(
                    lambda xs, t=p["threshold"]: [x for x in xs if x < t],
                    name=f"filter-{next(labels)}",
                ),
            ).choose(
                CallableEvaluator(len, name="count"), Min(), name="choose"
            ).write(name="out")
            return builder.build()

        cluster = fresh_cluster()
        cache = ResultCache()
        result = run_mdf(
            duplicated_mdf(),
            cluster,
            config=EngineConfig(pruning=False, cache=cache),
        )
        assert cache.stats.hits >= 1
        assert result.output == list(range(50))
        assert validate_trace(result.events) == []


class TestObservability:
    def test_counters_surface_in_telemetry_export(self):
        cluster = fresh_cluster()
        cache = ResultCache()
        config = EngineConfig(pruning=False, cache=cache)
        run_mdf(build_filter_mdf(), cluster, config=config)
        run_mdf(build_filter_mdf(), cluster, config=config, reset=False)
        assert cluster.obs.value("cache_hits") == cache.stats.hits > 0
        assert cluster.obs.value("cache_misses") == cache.stats.misses > 0
        assert cluster.obs.value("cache_admissions") == cache.stats.admissions
        assert cluster.obs.value("cache_bytes_saved") == cache.stats.bytes_saved
        assert cluster.obs.value("cache_compute_seconds_saved") == pytest.approx(
            cache.stats.compute_seconds_saved
        )
        text = prometheus_text(cluster.obs)
        assert "cache_hits" in text and "cache_bytes_saved" in text

    def test_bridge_rebuilds_cache_counters_from_trace(self):
        cluster = fresh_cluster()
        config = EngineConfig(pruning=False, cache=ResultCache())
        run_mdf(build_filter_mdf(), cluster, config=config)
        warm = run_mdf(build_filter_mdf(), cluster, config=config, reset=False)
        rebuilt = registry_from_trace(warm.events)
        assert diff_registries(cluster.obs, rebuilt) == []

    def test_hit_events_carry_fingerprint_and_savings(self):
        cluster = fresh_cluster()
        config = EngineConfig(pruning=False, cache=ResultCache())
        run_mdf(build_filter_mdf(), cluster, config=config)
        warm = run_mdf(build_filter_mdf(), cluster, config=config, reset=False)
        hits = [e for e in warm.events if e.kind == "cache_hit"]
        assert hits
        for event in hits:
            assert len(event.data["fingerprint"]) == 40
            assert event.data["tier"] in ("cluster", "store")
            assert event.data["nbytes"] > 0
            assert event.data["saved_seconds"] >= 0.0
