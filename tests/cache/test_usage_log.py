"""The shared store's quota ledger: ``usage.log`` against the directory scan.

The entry files are the truth — each starts with its owner — and
``SharedCacheStore._scan`` reads it the way every publish used to; the
process's ledger, folded from the log, has to give the same answer after
anything that can happen to a store, and a store whose every quota decision
comes from the scan (``ScanStore`` below — the implementation the log
replaced) has to evict the same entries in the same order.
"""

import builtins
import contextlib
import errno
import multiprocessing
import os
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SharedCacheStore
from repro.cache import store as store_module
from repro.cache.store import LOG_SLACK, USAGE_LOG

TENANTS = ("alice", "bob")
FINGERPRINTS = [f"fp-{i}" for i in range(6)]
QUOTA = 2600
ROOMY = 1 << 20


class Scripted:
    """A publish carries the mtime the script dictates — set on the tmp
    before the store stats it, so nothing happens behind its back — and
    evictions are recorded in order.  Two directories driven by one script
    then hold identical ``(fingerprint, bytes, mtime)`` and mtime ties,
    which fall back to fingerprint order, happen on purpose."""

    mtime = 0.0
    evicted = None

    def _publish(self, fingerprint, tmp):
        os.utime(tmp, (self.mtime, self.mtime))
        return super()._publish(fingerprint, tmp)

    def _evict(self, fingerprint):
        self.evicted.append(fingerprint)
        super()._evict(fingerprint)


class LogStore(Scripted, SharedCacheStore):
    pass


class ScanStore(Scripted, SharedCacheStore):
    def _owned(self, tenant):
        owned = sorted(
            (mtime, fingerprint, nbytes)
            for fingerprint, (owner, nbytes, mtime) in self._scan().items()
            if owner == tenant
        )
        return sum(nbytes for _, _, nbytes in owned), owned


def payload(size):
    return [list(range(size))]


def file_bytes(tenant, size):
    blob = {"payloads": payload(size), "partition_bytes": [size], "producer": "p"}
    parts = (tenant, blob)  # the owner, then the blob: two pickles, one file
    return sum(len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL)) for p in parts)


def damage(path, how):
    """Garbage; a write torn just after the entry's first pickle; or a
    well-formed entry of the format before this one — the blob, no owner."""
    with open(path, "rb") as fh:
        pickle.load(fh)
        owner_ends = fh.tell()
        entry = fh.read() if how == "ownerless" else b"not a pickle"
    if how == "torn":
        os.truncate(path, owner_ends)
    else:
        with open(path, "wb") as fh:
            fh.write(entry)


def views(path):
    """(log-derived, scanned) ``{fp: (tenant, bytes, mtime)}`` through a
    fresh handle, the way the next job would open the store."""
    store = SharedCacheStore(path)
    with store._lock:
        return dict(store._usage()), store._scan()


def scanned(path):
    """The scan alone: it leaves the process's ledger where it was."""
    store = SharedCacheStore(path)
    with store._lock:
        return store._scan()


def owned_bytes(usage, tenant):
    return sum(nbytes for owner, nbytes, _ in usage.values() if owner == tenant)


steps = st.one_of(
    st.tuples(
        st.just("save"),
        st.sampled_from(TENANTS),
        st.sampled_from(FINGERPRINTS),
        st.integers(20, 300),  # payload length: 100-odd to 900-odd file bytes
        st.integers(0, 3),  # mtime: ties on purpose
    ),
    st.tuples(
        st.just("corrupt"),
        st.sampled_from(FINGERPRINTS),
        st.sampled_from(("garbage", "torn", "ownerless")),
    ),
    st.tuples(st.just("shrink"), st.sampled_from(TENANTS), st.integers(0, QUOTA)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("log-deleted")),
    st.tuples(st.just("log-torn")),
    st.tuples(st.just("log-garbage")),
)


@settings(max_examples=60, deadline=None)
@given(script=st.lists(steps, min_size=1, max_size=30))
def test_log_agrees_with_scan_and_with_the_scanning_store(script, tmp_path_factory):
    log_dir = str(tmp_path_factory.mktemp("log"))
    scan_dir = str(tmp_path_factory.mktemp("scan"))
    evicted = {log_dir: [], scan_dir: []}

    def both(tenant="alice", quota=QUOTA):
        for cls, path in ((LogStore, log_dir), (ScanStore, scan_dir)):
            store = cls(path, tenant=tenant, quota_bytes=quota)  # one handle per job
            store.evicted = evicted[path]
            yield store

    for step in script:
        kind = step[0]
        if kind == "save":
            _, tenant, fingerprint, size, mtime = step
            kept = []
            for store in both(tenant):
                store.mtime = 1_000_000.0 + mtime
                kept.append(store.save(fingerprint, payload(size), [size], "p"))
                assert store.tenant_usage(tenant) <= QUOTA
            assert kept[0] == kept[1] == (file_bytes(tenant, size) <= QUOTA)
        elif kind == "corrupt":
            for store in both():
                if store.contains(step[1]):
                    damage(store._file(step[1]), step[2])
                    assert store.load(step[1]) is None  # never a served hit
                    assert store.corrupt_entries == 1
        elif kind == "shrink":
            for store in both(step[1], quota=step[2]):
                with store._lock:
                    store._enforce_quota(step[1])
                assert store.tenant_usage(step[1]) <= step[2]
        elif kind == "clear":
            for store in both():
                store.clear()
            assert USAGE_LOG not in os.listdir(log_dir)
        else:
            log = os.path.join(log_dir, USAGE_LOG)
            if not os.path.exists(log):
                continue
            if kind == "log-deleted":
                os.unlink(log)
            elif kind == "log-torn" and os.path.getsize(log):
                os.truncate(log, os.path.getsize(log) - 3)  # every line is longer
            elif kind == "log-garbage":
                with open(log, "ab") as fh:
                    fh.write(b"+ fp-0 alice many bytes\n\xff\xfe\n")
        from_log, from_files = views(log_dir)
        assert from_log == from_files
        assert from_log == scanned(scan_dir)
        assert evicted[log_dir] == evicted[scan_dir]
        fresh, oracle = SharedCacheStore(log_dir), ScanStore(log_dir)
        for tenant in TENANTS:
            with fresh._lock:  # what the next quota decision reads
                assert fresh._owned(tenant) == oracle._owned(tenant)
            assert fresh.tenant_usage(tenant) == owned_bytes(from_files, tenant)


def save(store, fingerprint, size=100):
    assert store.save(fingerprint, payload(size), [size], "p")


def log_lines(store):
    with open(store._log_file) as fh:
        return fh.read().splitlines()


class TestTheLog:
    def test_nobody_asking_means_no_log(self, tmp_path):
        """A store no quota-bound handle has opened keeps no ledger; the
        first one that asks builds it from the files."""
        store = SharedCacheStore(str(tmp_path), tenant="alice")
        save(store, "fp-1")
        assert USAGE_LOG not in os.listdir(tmp_path)
        assert store.tenant_usage("alice") == os.path.getsize(store._file("fp-1"))
        save(store, "fp-2")
        assert [line.split()[1] for line in log_lines(store)] == ["fp-1", "fp-2"]

    def test_a_publish_records_what_stat_would_say(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice", quota_bytes=ROOMY)
        save(store, "fp-1")
        stat = os.stat(store._file("fp-1"))
        assert log_lines(store) == [f"+ fp-1 alice {stat.st_size} {stat.st_mtime!r}"]

    def test_overwrite_by_another_tenant_moves_the_bytes(self, tmp_path):
        alice = SharedCacheStore(str(tmp_path), tenant="alice", quota_bytes=ROOMY)
        save(alice, "fp-1")
        bob = SharedCacheStore(str(tmp_path), tenant="bob", quota_bytes=ROOMY)
        save(bob, "fp-1", size=200)
        assert [line.split()[2] for line in log_lines(bob)] == ["alice", "bob"]
        assert alice.load("fp-1")[3] == alice.owner_of("fp-1") == "bob"
        assert alice.tenant_usage("alice") == 0
        assert bob.tenant_usage("bob") == os.path.getsize(bob._file("fp-1"))

    def test_eviction_and_quarantine_leave_tombstones(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice", quota_bytes=None)
        save(store, "fp-old")
        save(store, "fp-new")
        store.quota_bytes = os.path.getsize(store._file("fp-new"))
        with store._lock:
            store._enforce_quota("alice")
        assert log_lines(store)[-1] == "- fp-old"
        with open(store._file("fp-new"), "wb") as fh:
            fh.write(b"\x80garbage")
        assert store.load("fp-new") is None
        assert log_lines(store)[-1] == "- fp-new"
        # no phantom bytes left to count against the quota
        assert store.tenant_usage("alice") == 0

    def test_clear_deletes_the_log(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice")
        save(store, "fp-1")
        store.clear()
        assert os.listdir(tmp_path) == [".lock"]
        assert store.tenant_usage("alice") == 0

    def test_a_tenant_name_never_names_a_file(self, tmp_path):
        tenant = "../eve mallory\n- fp-1\n%41"
        store = SharedCacheStore(str(tmp_path), tenant=tenant, quota_bytes=ROOMY)
        save(store, "fp-1")
        save(store, "fp-2")
        names = [".lock", "fp-1.pkl", "fp-2.pkl", USAGE_LOG]
        assert sorted(os.listdir(tmp_path)) == names
        assert store.load("fp-1")[3] == tenant
        assert len(log_lines(store)) == 2  # one line per publish, whatever the name
        with store._lock:
            assert {owner for owner, _, _ in store._usage().values()} == {tenant}

    def test_dead_lines_are_compacted_away(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice", quota_bytes=None)
        save(store, "fp-keep")
        store.quota_bytes = 2 * os.path.getsize(store._file("fp-keep")) + 8
        longest = 0
        for i in range(3 * LOG_SLACK):
            save(store, f"fp-{i}")  # evicts the one before: a + and a - each
            longest = max(longest, len(log_lines(store)))
        assert longest <= 2 + LOG_SLACK + 2
        assert len(log_lines(store)) < longest
        assert views(str(tmp_path))[0] == views(str(tmp_path))[1]

    def test_a_file_deleted_behind_the_store_is_healed_by_a_rebuild(self, tmp_path):
        store = SharedCacheStore(str(tmp_path), tenant="alice", quota_bytes=ROOMY)
        save(store, "fp-gone")
        save(store, "fp-here")
        os.unlink(store._file("fp-gone"))
        here = os.path.getsize(store._file("fp-here"))
        assert store.tenant_usage("alice") > here  # still on the books
        store.quota_bytes = here
        with store._lock:
            store._enforce_quota("alice")  # evicting the phantom finds no file
        assert store.contains("fp-here") and store.tenant_usage("alice") == here
        store.quota_bytes = ROOMY
        save(store, "fp-gone")
        os.unlink(store._file("fp-gone"))
        os.unlink(store._log_file)  # ... or the next rebuild drops it
        assert store.tenant_usage("alice") == here

    def test_a_writer_lost_between_log_and_replace_leaks_nothing(self, tmp_path, monkeypatch):
        store = SharedCacheStore(str(tmp_path), tenant="alice", quota_bytes=ROOMY)
        save(store, "fp-0")
        real = os.replace

        def dies(src, dst):
            if dst.endswith("fp-lost.pkl"):
                raise OSError("killed here")
            return real(src, dst)

        monkeypatch.setattr(os, "replace", dies)
        assert not store.save("fp-lost", payload(100), [100], "p")
        monkeypatch.undo()
        assert not store.contains("fp-lost")
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []
        # the line without a file is reached by eviction like any other
        store.quota_bytes = os.path.getsize(store._file("fp-0"))
        save(store, "fp-1")
        assert store.quota_evictions == 2 and store.contains("fp-1")
        assert views(str(tmp_path))[0] == views(str(tmp_path))[1]

    def test_a_rewrite_cut_short_by_a_full_disk_leaves_no_tmp(self, tmp_path, monkeypatch):
        store = SharedCacheStore(str(tmp_path), tenant="alice", quota_bytes=ROOMY)
        save(store, "fp-1")
        os.unlink(store._log_file)
        real = builtins.open

        class FullDisk:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            writelines = write

        def opens(path, *args, **kwargs):
            fh = real(path, *args, **kwargs)
            return FullDisk(fh) if str(path).endswith(".tmp") else fh

        monkeypatch.setattr(builtins, "open", opens)
        with pytest.raises(OSError):
            store.tenant_usage("alice")
        monkeypatch.undo()
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []
        assert store.tenant_usage("alice") == os.path.getsize(store._file("fp-1"))


class Lost(BaseException):
    """The writer is gone: nothing of ``save`` runs after this, not even
    its ``except Exception`` clean-up."""


@pytest.mark.parametrize("overwrite", [True, False], ids=["overwrite", "new"])
@pytest.mark.parametrize("survives", range(4))
def test_a_publish_cut_short_never_parts_an_entry_from_its_owner(
    tmp_path, monkeypatch, overwrite, survives
):
    """Bob's publish is lost after ``survives`` of its file-system steps (the
    log's ``os.write``, each ``os.replace``) — over alice's entry of the same
    fingerprint, or on a fingerprint nobody has published."""
    path = str(tmp_path)
    alice = SharedCacheStore(path, tenant="alice", quota_bytes=ROOMY)
    save(alice, "fp-0")
    if overwrite:
        save(alice, "fp-1", size=10)
    steps = []

    def step(real):
        def counted(*args):
            if len(steps) == survives:
                raise Lost
            steps.append(real.__name__)
            return real(*args)

        return counted

    monkeypatch.setattr(os, "write", step(os.write))
    monkeypatch.setattr(os, "replace", step(os.replace))
    bob = SharedCacheStore(path, tenant="bob", quota_bytes=ROOMY)
    try:
        bob.save("fp-1", payload(20), [20], "p")
    except Lost:
        pass
    monkeypatch.undo()
    assert steps[:2] == ["write", "replace"][:survives]

    fresh = SharedCacheStore(path)
    loaded = fresh.load("fp-1")
    found = loaded and (loaded[0], fresh.owner_of("fp-1"))
    old = (payload(10), "alice") if overwrite else None
    assert found in (old, (payload(20), "bob"))  # never one's bytes, the other's name
    os.unlink(fresh._log_file)
    from_log, from_files = views(path)
    assert from_log == from_files
    entries = {n[: -len(".pkl")] for n in os.listdir(path) if n.endswith(".pkl")}
    assert entries == set(from_files)  # every file is somebody's ...
    for tenant in TENANTS:  # ... so that tenant's quota can reach it
        store = SharedCacheStore(path, tenant=tenant, quota_bytes=0)
        with store._lock:
            store._enforce_quota(tenant)
    assert [n for n in os.listdir(path) if n.endswith(".pkl")] == []


@contextlib.contextmanager
def another_process():
    """Run the block the way a handle in another process would: with a ledger
    of its own, none of what this process folded."""
    ours = store_module._ledger
    store_module._ledger = None
    try:
        yield
    finally:
        store_module._forget_ledger()
        store_module._ledger = ours


def preads(monkeypatch):
    """``(offset, bytes)`` of every ``os.pread`` from here on."""
    reads = []
    real = os.pread

    def pread(fd, length, offset):
        data = real(fd, length, offset)
        reads.append((offset, len(data)))
        return data

    monkeypatch.setattr(os, "pread", pread)
    return reads


def _publish_in_child(path):
    assert store_module._ledger is None  # dropped at the fork
    save(SharedCacheStore(path, tenant="bob", quota_bytes=ROOMY), "fp-child")


class TestTheLedger:
    """One ledger per process, folded from where it left off."""

    def test_a_warm_publish_reads_only_what_was_appended(self, tmp_path, monkeypatch):
        path = str(tmp_path)
        save(SharedCacheStore(path, tenant="alice", quota_bytes=ROOMY), "fp-0")
        log = os.path.join(path, USAGE_LOG)
        folded = os.path.getsize(log)
        reads = preads(monkeypatch)
        save(SharedCacheStore(path, tenant="alice", quota_bytes=ROOMY), "fp-1")  # next job
        assert reads == [(folded, os.path.getsize(log) - folded)]
        assert views(path)[0] == views(path)[1]

    @pytest.mark.parametrize("how", ["compaction", "rebuild"])
    def test_another_handles_new_log_is_read_from_its_start(self, tmp_path, how):
        """Another process rewrites the log (a new inode) and publishes on:
        the new file is longer than what this process folded, so its size
        alone does not tell that it is another file."""
        path = str(tmp_path)
        store = LogStore(path, tenant="alice", quota_bytes=ROOMY)
        store.evicted = []
        for i in range(3):  # same mtime and size: every line is as long
            save(store, f"fp-{i}")
        with store._lock:
            assert sorted(store._usage()) == ["fp-0", "fp-1", "fp-2"]
        inode = os.stat(store._log_file).st_ino
        with another_process():
            if how == "compaction":
                with store._lock:
                    store._evict("fp-0")
                for _ in range(LOG_SLACK + 1):
                    save(store, "fp-1")  # each leaves the one before a dead line
            else:
                os.unlink(store._file("fp-0"))
                os.unlink(store._log_file)
                store.tenant_usage("alice")
            for i in range(3, 6):
                save(store, f"fp-{i}")
        assert os.stat(store._log_file).st_ino != inode
        from_log, from_files = views(path)
        assert from_log == from_files
        assert sorted(from_log) == [f"fp-{i}" for i in range(1, 6)]

    def test_a_truncation_below_the_offset_starts_over(self, tmp_path):
        """Cut at a line boundary the log is a shorter history: the ledger
        says what a fresh process's fold of it says, and nothing rebuilds."""
        path = str(tmp_path)
        store = SharedCacheStore(path, tenant="alice", quota_bytes=ROOMY)
        for i in range(3):
            save(store, f"fp-{i}")
        first = log_lines(store)[0]
        os.truncate(store._log_file, len(first) + 1)
        inode = os.stat(store._log_file).st_ino
        with another_process():
            fresh = views(path)[0]
        assert list(fresh) == ["fp-0"]
        assert views(path)[0] == fresh
        assert os.stat(store._log_file).st_ino == inode
        os.unlink(store._log_file)  # the safe repair
        assert views(path)[0] == views(path)[1]

    def test_a_forked_child_folds_for_itself(self, tmp_path, monkeypatch):
        path = str(tmp_path)
        save(SharedCacheStore(path, tenant="alice", quota_bytes=ROOMY), "fp-0")
        folded = os.path.getsize(os.path.join(path, USAGE_LOG))
        assert store_module._ledger is not None
        child = multiprocessing.get_context("fork").Process(
            target=_publish_in_child, args=(path,)
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        reads = preads(monkeypatch)
        from_log, from_files = views(path)
        assert from_log == from_files and sorted(from_log) == ["fp-0", "fp-child"]
        assert reads[0][0] == folded  # the child's append, on the held file

    def test_two_directories_in_turn_stay_exact(self, tmp_path):
        paths = [str(tmp_path / name) for name in ("a", "b")]
        quota = 3 * file_bytes("alice", 100)
        for i in range(2 * LOG_SLACK):
            path = paths[i % 2]
            save(SharedCacheStore(path, tenant="alice", quota_bytes=quota), f"fp-{i}")
            for other in paths:
                from_log, from_files = views(other)
                assert from_log == from_files
                assert SharedCacheStore(other).tenant_usage("alice") <= quota

    def test_threads_on_their_own_directories_stay_exact(self, tmp_path):
        """Threads share the one ledger, each folding a directory of its own
        (one directory per thread: a store's tmp names are per process)."""
        paths = [str(tmp_path / name) for name in "abcd"]
        quota = 3 * file_bytes("alice", 100)
        errors = []

        def publish(path):
            try:
                for i in range(40):
                    save(SharedCacheStore(path, tenant="alice", quota_bytes=quota), f"fp-{i}")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=publish, args=(p,)) for p in paths]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and errors == []
        for path in paths:
            from_log, from_files = views(path)
            assert from_log == from_files
            assert owned_bytes(from_files, "alice") <= quota
