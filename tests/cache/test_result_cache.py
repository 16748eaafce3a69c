"""Tests for the result cache's entry lifecycle (repro.cache.store).

Entries point at live cluster partitions — never payloads — so their
validity tracks the data's: registered → hit, evicted-to-disk → still a
hit (disk-residency read), discarded → invalidated.  The optional disk
store survives ``cluster.reset()`` and feeds the store tier.
"""

import pytest

from repro import Cluster, GB
from repro.cache import ResultCache, SharedCacheStore
from repro.core.datasets import Dataset


def fresh_cluster(workers=2):
    return Cluster(num_workers=workers, mem_per_worker=1 * GB)


def register(cluster, payload, dataset_id=None, nominal=1024):
    dataset = Dataset.from_data(payload, num_partitions=cluster.num_workers)
    dataset.partitions = [
        type(p)(dataset.id, p.index, p.data, nominal // len(dataset.partitions))
        for p in dataset.partitions
    ]
    cluster.register_dataset(dataset)
    return dataset


class TestClusterTier:
    def test_admit_then_hit(self):
        cluster = fresh_cluster()
        cache = ResultCache()
        dataset = register(cluster, list(range(10)))
        cache.admit("fp-1", dataset, cluster)
        hit = cache.lookup("fp-1", cluster)
        assert hit is not None and hit.tier == "cluster"
        assert hit.num_partitions == len(dataset.partitions)
        assert hit.total_bytes == sum(p.nominal_bytes for p in dataset.partitions)
        assert cache.stats.admissions == 1

    def test_unknown_fingerprint_misses(self):
        cache = ResultCache()
        assert cache.lookup("nope", fresh_cluster()) is None

    def test_discard_invalidates_eagerly(self):
        cluster = fresh_cluster()
        cache = ResultCache()
        dataset = register(cluster, list(range(10)))
        cache.admit("fp-1", dataset, cluster)
        cache.invalidate_dataset(dataset.id, cluster, reason="dataset-discarded")
        cluster.discard_dataset(dataset.id)
        assert cache.lookup("fp-1", cluster) is None
        assert cache.stats.invalidations == 1

    def test_lost_backing_invalidates_lazily(self):
        cluster = fresh_cluster()
        cache = ResultCache()
        dataset = register(cluster, list(range(10)))
        cache.admit("fp-1", dataset, cluster)
        cluster.discard_dataset(dataset.id)  # cache not told
        assert cache.lookup("fp-1", cluster) is None  # lazy path
        assert cache.stats.invalidations == 1
        assert len(cache) == 0

    def test_eviction_to_disk_keeps_entry_valid(self):
        """Evicted partitions are demoted, not lost: the entry survives and
        a hit is simply charged the disk-residency read."""
        cluster = Cluster(num_workers=1, mem_per_worker=1 * GB)
        cache = ResultCache()
        dataset = register(cluster, list(range(10)), nominal=512)
        cache.admit("fp-1", dataset, cluster)
        big = register(cluster, list(range(100)), nominal=2 * GB)  # force spill
        assert big is not None
        hit = cache.lookup("fp-1", cluster)
        assert hit is not None and hit.tier == "cluster"

    def test_revalidate_drops_only_unbacked_entries(self):
        cluster = fresh_cluster()
        cache = ResultCache()
        kept = register(cluster, list(range(10)))
        lost = register(cluster, list(range(10, 20)))
        cache.admit("fp-kept", kept, cluster)
        cache.admit("fp-lost", lost, cluster)
        cluster.discard_dataset(lost.id)
        cache.revalidate(cluster, reason="node-failure")
        assert cache.lookup("fp-kept", cluster) is not None
        assert cache.lookup("fp-lost", cluster) is None

    def test_readmission_replaces_previous_entry(self):
        cluster = fresh_cluster()
        cache = ResultCache()
        first = register(cluster, list(range(4)))
        second = register(cluster, list(range(4)))
        cache.admit("fp-1", first, cluster)
        cache.admit("fp-1", second, cluster)
        assert len(cache) == 1
        assert cache.entry("fp-1").dataset_id == second.id

    def test_clear_forgets_cluster_tier(self):
        cluster = fresh_cluster()
        cache = ResultCache()
        cache.admit("fp-1", register(cluster, list(range(4))), cluster)
        cache.clear()
        assert cache.lookup("fp-1", cluster) is None


class TestStoreTier:
    def test_store_survives_cluster_reset(self, tmp_path):
        cluster = fresh_cluster()
        cache = ResultCache(store=SharedCacheStore(str(tmp_path)))
        dataset = register(cluster, list(range(10)))
        cache.admit("fp-1", dataset, cluster)
        assert cache.stats.store_writes == 1
        cluster.reset()
        cache.clear()
        hit = cache.lookup("fp-1", cluster)
        assert hit is not None and hit.tier == "store"
        assert hit.payloads is not None and len(hit.payloads) == hit.num_partitions

    def test_store_survives_new_cache_instance(self, tmp_path):
        cluster = fresh_cluster()
        store = SharedCacheStore(str(tmp_path))
        cache = ResultCache(store=store)
        cache.admit("fp-1", register(cluster, list(range(10))), cluster)
        fresh = ResultCache(store=SharedCacheStore(str(tmp_path)))
        assert fresh.lookup("fp-1", fresh_cluster()) is not None

    def test_unpicklable_payload_skips_store(self, tmp_path):
        cluster = fresh_cluster()
        cache = ResultCache(store=SharedCacheStore(str(tmp_path)))
        dataset = register(cluster, [lambda x: x for _ in range(4)])
        cache.admit("fp-1", dataset, cluster)
        assert cache.stats.unpicklable_skipped == 1
        assert cache.stats.store_writes == 0
        # the cluster-tier entry still works
        assert cache.lookup("fp-1", cluster).tier == "cluster"

    def test_store_clear_and_len(self, tmp_path):
        store = SharedCacheStore(str(tmp_path))
        store.save("fp-1", [[1]], [8], None)
        store.save("fp-2", [[2]], [8], None)
        assert len(store) == 2
        store.clear()
        assert len(store) == 0
        assert store.load("fp-1") is None


class TestStats:
    def test_hit_rate(self):
        stats = ResultCache().stats
        assert stats.hit_rate == 0.0
        stats.hits, stats.misses = 3, 1
        assert stats.hit_rate == pytest.approx(0.75)

    def test_as_dict_round_trip(self):
        cache = ResultCache()
        d = cache.stats.as_dict()
        assert set(d) >= {"hits", "misses", "admissions", "invalidations"}
