"""Tests for store hardening (PR9 satellites a + b).

Corrupt/truncated entries are quarantined — unlinked, counted, served as
a miss — and never crash a run; ``*.tmp`` leftovers of killed writers are
swept at store open once older than ``TMP_SWEEP_AGE`` and never served.
"""

import os
import pickle

from repro import Cluster, GB, Validator
from repro.cache import ResultCache, SharedCacheStore
from repro.engine import EngineConfig, run_mdf
from repro.lab.workloads import get_workload


def fresh_cluster(workers=2):
    return Cluster(num_workers=workers, mem_per_worker=1 * GB)


def save_entry(store, fingerprint="fp-1", payloads=None):
    payloads = payloads if payloads is not None else [[1, 2], [3, 4]]
    assert store.save(fingerprint, payloads, [64, 64], "producer")
    return payloads


class TestCorruptEntries:
    def test_truncated_entry_is_a_miss_and_unlinked(self, tmp_path):
        store = SharedCacheStore(str(tmp_path))
        save_entry(store)
        path = store._file("fp-1")
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])  # torn write
        assert store.load("fp-1") is None
        assert store.corrupt_entries == 1
        assert not os.path.exists(path)  # quarantined
        assert store.load("fp-1") is None  # now a plain miss
        assert store.corrupt_entries == 1  # not double counted

    def test_garbage_bytes_are_a_miss(self, tmp_path):
        store = SharedCacheStore(str(tmp_path))
        with open(store._file("fp-junk"), "wb") as fh:
            fh.write(b"not a pickle at all")
        assert store.contains("fp-junk")
        assert store.load("fp-junk") is None
        assert store.corrupt_entries == 1
        assert not store.contains("fp-junk")

    def test_wrong_shape_blob_is_corrupt(self, tmp_path):
        """A well-formed pickle that isn't a cache blob is still corrupt."""
        store = SharedCacheStore(str(tmp_path))
        with open(store._file("fp-shape"), "wb") as fh:
            pickle.dump("alice", fh)
            pickle.dump({"payloads": [1], "partition_bytes": [1, 2],
                         "producer": None}, fh)
        assert store.load("fp-shape") is None
        assert store.corrupt_entries == 1

    def test_missing_file_is_a_plain_miss_not_corruption(self, tmp_path):
        store = SharedCacheStore(str(tmp_path))
        assert store.load("never-saved") is None
        assert store.corrupt_entries == 0

    def test_resave_after_corruption_serves_again(self, tmp_path):
        store = SharedCacheStore(str(tmp_path))
        save_entry(store)
        with open(store._file("fp-1"), "wb") as fh:
            fh.write(b"xx")
        assert store.load("fp-1") is None
        payloads = save_entry(store)
        loaded = store.load("fp-1")
        assert loaded is not None and loaded[0] == payloads


class TestTmpSweep:
    def test_stale_tmp_swept_at_open_and_never_served(self, tmp_path):
        planted = tmp_path / "deadbeef.pkl.12345.tmp"
        planted.write_bytes(b"partial write from a killed process")
        old = os.path.getmtime(planted) - 3600
        os.utime(planted, (old, old))
        store = SharedCacheStore(str(tmp_path))
        assert store.tmps_swept == 1
        assert not planted.exists()
        assert not store.contains("deadbeef")  # tmp was never an entry
        assert len(store) == 0

    def test_young_tmp_survives_aged_sweep(self, tmp_path):
        """A tmp younger than the sweep age may belong to a live writer
        mid-publish — it must not be yanked out from under it."""
        planted = tmp_path / "cafe.pkl.999.tmp"
        planted.write_bytes(b"in-flight write")
        store = SharedCacheStore(str(tmp_path))
        assert store.tmps_swept == 0
        assert planted.exists()

    def test_clear_removes_tmps_too(self, tmp_path):
        store = SharedCacheStore(str(tmp_path))
        save_entry(store)
        (tmp_path / "aaaa.pkl.7.tmp").write_bytes(b"x")
        store.clear()
        assert os.listdir(tmp_path) == [".lock"]


class TestCorruptionRegression:
    def test_run_completes_with_recompute_after_corruption(self, tmp_path):
        """End to end: corrupt every store entry between runs; the rerun
        must recompute cleanly and produce identical outputs."""
        workload = get_workload("filter_min")
        store = SharedCacheStore(str(tmp_path))
        cache = ResultCache(store=store)

        def run():
            cluster = workload.make_cluster()
            config = EngineConfig(cache=cache)
            result = run_mdf(
                workload.make_mdf(), cluster, scheduler="bas", memory="amm",
                config=config, observers=[Validator()],
            )
            return result, cluster

        cold, _ = run()
        assert cache.stats.store_writes > 0
        for name in os.listdir(tmp_path):  # truncate every entry
            if name.endswith(".pkl"):
                full = os.path.join(tmp_path, name)
                blob = open(full, "rb").read()
                with open(full, "wb") as fh:
                    fh.write(blob[: max(1, len(blob) // 3)])
        cache.clear()
        rerun, _ = run()
        assert repr(rerun.outputs) == repr(cold.outputs)
        # the quarantined files were unlinked, then re-written by the rerun
        assert store.corrupt_entries > 0
