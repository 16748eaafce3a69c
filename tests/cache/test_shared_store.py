"""Tests for the shared cross-tenant store tier (PR9 tentpole).

The owner inside each entry, per-tenant byte quotas with oldest-first eviction,
single-flight leases (claim / stale-break / bounded wait / release), and
the tenant-labelled hit/miss accounting the executor layers on top.
"""

import multiprocessing
import os
import pickle
import signal
import time

from repro import Cluster, GB, Validator
from repro.cache import ResultCache, SharedCacheStore, store as store_module
from repro.engine import EngineConfig, run_mdf
from repro.lab.workloads import get_workload


def fresh_cluster(workers=2):
    return Cluster(num_workers=workers, mem_per_worker=1 * GB)


def save_entry(store, fingerprint, nbytes=200, tenant=None):
    """Publish one entry; as another ``tenant`` through a handle of its
    own on the same directory, the way the service opens one per job."""
    if tenant is not None:
        store = SharedCacheStore(store.path, tenant=tenant)
    payload = [list(range(nbytes // 8))]
    assert store.save(fingerprint, payload, [nbytes], "producer")


def backdate(path, seconds):
    old = os.path.getmtime(path) - seconds
    os.utime(path, (old, old))


class TestOwnership:
    def test_owner_travels_inside_the_entry(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice")
        save_entry(store, "fp-1")
        assert store.owner_of("fp-1") == "alice"
        # a second handle (fresh process in real life) reads the same bytes,
        # and a load hands the owner over with the blob it just read
        other = SharedCacheStore(str(tmp_path), tenant="bob")
        assert other.owner_of("fp-1") == other.load("fp-1")[3] == "alice"
        assert sorted(os.listdir(tmp_path)) == [".lock", "fp-1.pkl"]  # one file

    def test_explicit_tenant_overrides_store_default(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice")
        save_entry(store, "fp-1", tenant="carol")
        assert store.owner_of("fp-1") == "carol"

    def test_unlabelled_entry_has_no_owner(self, tmp_path):
        """An entry from before the owner moved inside it — one pickle, the
        blob — is nobody's: a counted corrupt entry, never a hit."""
        store = SharedCacheStore(str(tmp_path), tenant="alice")
        blob = {"payloads": [[1]], "partition_bytes": [8], "producer": None}
        with open(store._file("fp-1"), "wb") as fh:
            pickle.dump(blob, fh)
        assert store.owner_of("fp-1") is None
        assert store.load("fp-1") is None and store.corrupt_entries == 1
        assert not store.contains("fp-1")

    def test_clear_removes_entries_and_flights(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice")
        save_entry(store, "fp-1")
        assert store.try_begin_flight("fp-2")
        store.clear()
        assert [n for n in os.listdir(tmp_path) if not n.startswith(".")] == []


class TestQuotas:
    def test_oldest_entry_evicted_first(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice", quota_bytes=None)
        for i, fp in enumerate(["fp-old", "fp-mid", "fp-new"]):
            save_entry(store, fp, nbytes=400)
            backdate(store._file(fp), (3 - i) * 100)  # old < mid < new
        sizes = sum(
            os.path.getsize(store._file(fp)) for fp in ["fp-mid", "fp-new"]
        )
        store.quota_bytes = sizes  # room for exactly the two newest
        store._enforce_quota("alice")
        assert not store.contains("fp-old")
        assert store.contains("fp-mid") and store.contains("fp-new")
        assert store.quota_evictions == 1

    def test_publish_triggers_enforcement(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice", quota_bytes=None)
        save_entry(store, "fp-a", nbytes=400)
        backdate(store._file("fp-a"), 100)
        store.quota_bytes = int(os.path.getsize(store._file("fp-a")) * 1.5)
        save_entry(store, "fp-b", nbytes=400)  # pushes alice over quota
        assert not store.contains("fp-a")  # oldest went
        assert store.contains("fp-b")  # the fresh publish survives

    def test_just_published_entry_kept_unless_it_alone_exceeds(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice", quota_bytes=8)
        kept = store.save("fp-huge", [list(range(500))], [4000], "producer")
        assert not store.contains("fp-huge")  # alone over quota: evicted
        assert not kept and store.quota_evictions == 1

    def test_quota_is_per_tenant(self, tmp_path):
        alice = SharedCacheStore(str(tmp_path), tenant="alice", quota_bytes=None)
        save_entry(alice, "fp-alice", nbytes=400)
        backdate(alice._file("fp-alice"), 100)
        bob = SharedCacheStore(
            str(tmp_path),
            tenant="bob",
            quota_bytes=int(os.path.getsize(alice._file("fp-alice")) * 1.2),
        )
        save_entry(bob, "fp-bob", nbytes=400)
        # bob is under *his* quota with one entry; alice's older, bigger
        # footprint is not his to evict
        assert bob.contains("fp-alice") and bob.contains("fp-bob")
        assert bob.quota_evictions == 0

    def test_tenant_usage_counts_only_owned_bytes(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice")
        save_entry(store, "fp-1", nbytes=400)
        save_entry(store, "fp-2", nbytes=400, tenant="bob")
        assert store.tenant_usage("alice") == os.path.getsize(store._file("fp-1"))
        assert store.tenant_usage("bob") == os.path.getsize(store._file("fp-2"))
        assert store.tenant_usage("nobody") == 0


class TestSingleFlight:
    def test_exactly_one_claimant_wins(self, tmp_path):
        a = SharedCacheStore(str(tmp_path), tenant="a")
        b = SharedCacheStore(str(tmp_path), tenant="b")
        assert a.try_begin_flight("fp-1")
        assert not b.try_begin_flight("fp-1")
        a.end_flight("fp-1")
        assert b.try_begin_flight("fp-1")

    def test_stale_lease_is_broken(self, tmp_path):
        a = SharedCacheStore(str(tmp_path), tenant="a")
        b = SharedCacheStore(str(tmp_path), tenant="b")
        assert a.try_begin_flight("fp-1")
        backdate(a._flight_file("fp-1"), store_module.FLIGHT_TIMEOUT + 1)  # crashed
        assert not a.flight_active("fp-1")
        assert b.try_begin_flight("fp-1")  # broke the stale lease

    def test_lease_of_a_killed_holder_is_broken_at_once(self, tmp_path):
        """A worker SIGKILLed holding a lease costs its siblings no
        ``FLIGHT_WAIT``: the lease names a pid that no longer exists."""
        ctx = multiprocessing.get_context("fork")
        claimed = ctx.Event()

        def hold():
            SharedCacheStore(str(tmp_path), tenant="dead").try_begin_flight("fp-1")
            claimed.set()
            time.sleep(60)

        holder = ctx.Process(target=hold)
        holder.start()
        assert claimed.wait(30)
        os.kill(holder.pid, signal.SIGKILL)
        holder.join()
        cache = ResultCache(store=SharedCacheStore(str(tmp_path), tenant="sibling"))
        started = time.monotonic()
        assert cache.lookup("fp-1", fresh_cluster()) is None
        assert time.monotonic() - started < store_module.FLIGHT_WAIT / 10
        assert cache.stats.singleflight_waits == 0
        assert cache.store.flight_active("fp-1")  # the sibling now holds it
        cache.finish_run()

    def test_empty_lease_counts_by_age(self, tmp_path):
        """A lease caught between create and write names no pid yet."""
        store = SharedCacheStore(str(tmp_path), tenant="a")
        open(store._flight_file("fp-1"), "w").close()
        assert store.flight_active("fp-1")
        assert not store.try_begin_flight("fp-1")
        backdate(store._flight_file("fp-1"), store_module.FLIGHT_TIMEOUT + 1)
        assert store.try_begin_flight("fp-1")

    def test_wait_returns_published_blob(self, tmp_path):
        a = SharedCacheStore(str(tmp_path), tenant="a")
        b = SharedCacheStore(str(tmp_path), tenant="b")
        assert a.try_begin_flight("fp-1")
        save_entry(a, "fp-1")  # publish while the lease is held
        loaded = b.wait_for_flight("fp-1")
        assert loaded is not None and loaded[2] == "producer"

    def test_wait_times_out_to_recompute(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "FLIGHT_WAIT", 0.05)
        a = SharedCacheStore(str(tmp_path), tenant="a")
        b = SharedCacheStore(str(tmp_path), tenant="b")
        assert a.try_begin_flight("fp-1")  # ...and never publishes
        started = time.monotonic()
        assert b.wait_for_flight("fp-1") is None
        assert time.monotonic() - started < 2.0  # bounded, not a deadlock

    def test_wait_stops_when_lease_released_without_publish(self, tmp_path):
        a = SharedCacheStore(str(tmp_path), tenant="a")
        b = SharedCacheStore(str(tmp_path), tenant="b")
        assert a.try_begin_flight("fp-1")
        a.end_flight("fp-1")  # failed run / persistence skipped
        started = time.monotonic()
        assert b.wait_for_flight("fp-1") is None
        assert time.monotonic() - started < 2.0  # no full-wait stall


class TestResultCacheIntegration:
    def test_miss_claims_flight_and_finish_run_releases(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice")
        cache = ResultCache(store=store)
        cluster = fresh_cluster()
        assert cache.lookup("fp-1", cluster) is None  # miss: we compute
        assert store.flight_active("fp-1")
        assert cache.lookup("fp-1", cluster) is None  # own flight: no wait
        cache.finish_run()
        assert not store.flight_active("fp-1")
        assert cache.lookup("fp-1", cluster) is None  # reclaims cleanly
        cache.finish_run()

    def test_admission_the_quota_evicted_is_not_a_store_write(self, tmp_path):
        """An entry that alone exceeds its tenant's quota is evicted by its
        own publish: the admission stays cluster-tier, nothing was written."""
        store = SharedCacheStore(str(tmp_path), tenant="alice", quota_bytes=100)
        cache = ResultCache(store=store)
        workload = get_workload("filter_min")
        cluster = workload.make_cluster()
        run_mdf(
            workload.make_mdf(), cluster, config=EngineConfig(cache=cache),
            observers=[Validator()],
        )
        admits = cluster.trace.filter("cache_admit")
        assert admits and {e.data["tier"] for e in admits} == {"cluster"}
        assert cache.stats.store_writes == 0
        assert store.quota_evictions == len(admits)
        assert sorted(os.listdir(tmp_path)) == [".lock", "usage.log"]

    def test_waiter_serves_other_jobs_publish_as_store_hit(self, tmp_path):
        writer = SharedCacheStore(str(tmp_path), tenant="alice")
        assert writer.try_begin_flight("fp-1")
        save_entry(writer, "fp-1")
        reader = ResultCache(store=SharedCacheStore(str(tmp_path), tenant="bob"))
        hit = reader.lookup("fp-1", fresh_cluster())
        assert hit is not None and hit.tier == "store"
        assert hit.owner_tenant == "alice"
        writer.end_flight("fp-1")

    def test_singleflight_wait_counted(self, tmp_path):
        """A lookup that resolves by waiting out another job's flight
        counts in ``singleflight_waits``."""
        import threading

        writer = SharedCacheStore(str(tmp_path), tenant="alice")
        reader = ResultCache(store=SharedCacheStore(str(tmp_path), tenant="bob"))
        cluster = fresh_cluster()
        assert writer.try_begin_flight("fp-1")

        def publish_later():
            time.sleep(0.05)
            save_entry(writer, "fp-1")
            writer.end_flight("fp-1")

        thread = threading.Thread(target=publish_later)
        thread.start()
        try:
            hit = reader.lookup("fp-1", cluster)
        finally:
            thread.join()
        assert hit is not None and hit.tier == "store"
        assert reader.stats.singleflight_waits == 1

    def test_cross_tenant_run_hits_and_labels(self, tmp_path):
        """Tenant alice's run populates the shared store; tenant bob's
        run hits it.  Every hit is bob's (a cache has its store's one
        tenant), so his run's folded ``cache_hits`` is his tenant's."""
        workload = get_workload("filter_min")

        def run(tenant):
            cache = ResultCache(
                store=SharedCacheStore(str(tmp_path), tenant=tenant),
                cost_based=False,  # cheap workload: let store hits serve
            )
            cluster = workload.make_cluster()
            result = run_mdf(
                workload.make_mdf(), cluster, scheduler="bas", memory="amm",
                config=EngineConfig(cache=cache), observers=[Validator()],
            )
            return result, cache, cluster

        cold, cold_cache, _ = run("alice")
        assert cold_cache.stats.store_writes > 0
        warm, warm_cache, cluster = run("bob")
        assert repr(warm.outputs) == repr(cold.outputs)
        assert warm_cache.stats.hits > 0
        assert warm_cache.stats.cross_tenant_hits == warm_cache.stats.hits
        assert cluster.obs.value("cache_hits") == warm_cache.stats.hits

    def test_unfingerprintable_miss_counts_for_the_tenant(self, tmp_path):
        """Every miss is counted — including the stage that cannot be
        fingerprinted at all — so the tenant's hits + misses are the
        job's consulted stages."""
        from repro import MB, MDFBuilder

        handle = (x for x in range(3))  # no canonical content: uncacheable

        def with_handle(xs):
            return [x + 1 for x in xs if handle is not None]

        b = MDFBuilder("opaque")
        (
            b.read_data(list(range(40)), name="src", nominal_bytes=8 * MB)
            .transform(lambda xs: [x * 2 for x in xs], name="dbl")
            .aggregate(with_handle, name="opaque")
            .write(name="out")
        )
        cache = ResultCache(store=SharedCacheStore(str(tmp_path), tenant="alice"))
        cluster = fresh_cluster()
        run_mdf(b.build(), cluster, config=EngineConfig(cache=cache),
                observers=[Validator()])
        events = cluster.trace.filter("cache_miss")
        assert "unfingerprintable" in {e.data["reason"] for e in events}
        assert cache.stats.misses == len(events)
        assert cluster.obs.value("cache_misses") == cache.stats.misses
