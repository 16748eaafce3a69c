"""Concurrency stress tests for the shared store (PR9 satellite c).

Real processes hammer one store directory with racing save/load/clear
calls: no torn reads (every load returns a well-formed blob or a miss),
no stray tmp files, no crashes.  The single-flight test proves an
in-flight fingerprint is computed exactly once across two concurrent
jobs (the loser serves the winner's publish).

Worker functions are module level — they cross the process boundary by
name (tests are an importable package).
"""

import multiprocessing
import os
import signal
import time

from repro.cache import SharedCacheStore
from repro.cache.store import TMP_SWEEP_AGE, USAGE_LOG

FINGERPRINTS = [f"fp-{i}" for i in range(6)]
TENANTS = [f"t{i}" for i in range(3)]
#: room for two or three of the hammer's entries per tenant: evictions race too
QUOTA = 600
CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def assert_ledger_is_the_directory(path):
    """The usage log, read by a fresh handle, says what the files say — each
    entry one file that names its owner, nothing else beside them — and
    nobody is over quota."""
    store = SharedCacheStore(path)
    with store._lock:
        from_log, from_files = store._usage(), store._scan()
    assert from_log == from_files
    names = [n for n in os.listdir(path) if n not in (".lock", USAGE_LOG)]
    assert sorted(names) == sorted(f"{fp}.pkl" for fp in from_files)
    for tenant in TENANTS:
        assert store.tenant_usage(tenant) <= QUOTA


def _hammer(args):
    """One stress worker: interleaved saves, loads and clears.

    Returns (loads_ok, corrupt_seen, errors).  Any exception is an
    error — the store's contract is that races never raise.
    """
    path, seed, iterations = args
    store = SharedCacheStore(path, tenant=TENANTS[seed % 3], quota_bytes=QUOTA)
    loads_ok = errors = 0
    for i in range(iterations):
        fp = FINGERPRINTS[(seed + i) % len(FINGERPRINTS)]
        try:
            op = (seed + i) % 7
            if op < 3:  # save (distinct payload per writer+round)
                payload = [[seed, i] * 40]
                store.save(fp, payload, [len(payload[0]) * 8], f"p{seed}")
            elif op < 6:  # load: a miss or a well-formed blob, never torn
                loaded = store.load(fp)
                if loaded is not None:
                    payloads, partition_bytes, producer, owner = loaded
                    assert isinstance(payloads, list)
                    assert len(payloads) == len(partition_bytes)
                    # the owner is the tenant of the writer whose payload it is
                    writer = payloads[0][0]
                    assert (producer, owner) == (f"p{writer}", TENANTS[writer % 3])
                    loads_ok += 1
            else:  # the rarest op: wipe everything mid-race
                store.clear()
        except Exception:  # noqa: BLE001 - counted, fails the test
            errors += 1
    return loads_ok, store.corrupt_entries, errors


def _flight_worker(args):
    """One 'job' in the exactly-once race: claim-or-wait on a fingerprint.

    The winner 'computes' (sleeps, then appends a line to the compute
    log), publishes, and releases; losers wait for the publish.  Returns
    (computed, served) flags.
    """
    path, log_path, seed = args
    store = SharedCacheStore(path, tenant=f"t{seed}")
    fp = "fp-expensive"
    if store.contains(fp):
        return (0, 1)
    if store.try_begin_flight(fp):
        time.sleep(0.3)  # the 'expensive' computation, long enough
        # that every other worker reaches the wait path first
        with open(log_path, "a") as fh:  # O_APPEND: atomic small writes
            fh.write(f"computed-by-{seed}\n")
        store.save(fp, [[seed] * 8], [64], f"p{seed}")
        store.end_flight(fp)
        return (1, 0)
    loaded = store.wait_for_flight(fp)
    return (0, 1 if loaded is not None else 0)


def _killed_mid_append(path):
    """A publisher SIGKILLed holding the flock, half a log line written."""
    store = SharedCacheStore(path, tenant=TENANTS[0], quota_bytes=QUOTA)

    def torn_append(text):
        with open(store._log_file, "a") as fh:
            fh.write(text[: len(text) // 2])
        os.kill(os.getpid(), signal.SIGKILL)

    store._log_append = torn_append
    store.save("fp-torn", [[0] * 40], [320], "p-killed")


def _killed_after_the_replace(path):
    """A publisher SIGKILLed holding the flock, its entry just moved into
    place over another tenant's."""
    store = SharedCacheStore(path, tenant=TENANTS[1], quota_bytes=QUOTA)
    real = os.replace

    def replace_then_die(src, dst):
        real(src, dst)
        os.kill(os.getpid(), signal.SIGKILL)

    os.replace = replace_then_die
    store.save("fp-before", [[2] * 40], [320], "p1")


def survivor_of(victim, path):
    """A handle on a store whose ``fp-before`` is TENANTS[0]'s, after
    ``victim`` was SIGKILLed publishing to it from a process of its own."""
    first = SharedCacheStore(path, tenant=TENANTS[0], quota_bytes=QUOTA)
    assert first.save("fp-before", [[1] * 40], [320], "p0")
    process = CTX.Process(target=victim, args=(path,))
    process.start()
    process.join(30)
    assert process.exitcode == -signal.SIGKILL
    return first


class TestConcurrentStress:
    def test_parallel_save_load_clear_races(self, tmp_path):
        path = str(tmp_path)
        procs, iterations = 4, 120
        with CTX.Pool(procs) as pool:
            results = pool.map(
                _hammer, [(path, seed, iterations) for seed in range(procs)]
            )
        total_loads = sum(r[0] for r in results)
        total_corrupt = sum(r[1] for r in results)
        total_errors = sum(r[2] for r in results)
        assert total_errors == 0, f"store raised under race: {results}"
        # atomic publishes mean a reader never sees a torn entry
        assert total_corrupt == 0, f"torn reads detected: {results}"
        assert total_loads > 0  # the race actually exercised loads
        # no tmp either: every publish or failure cleaned up
        assert_ledger_is_the_directory(path)

    def test_publisher_killed_mid_append_holding_the_lock(self, tmp_path):
        path = str(tmp_path)
        first = survivor_of(_killed_mid_append, path)
        with open(first._log_file) as fh:
            assert not fh.read().endswith("\n")  # the torn line is there
        # the kernel dropped the dead holder's flock; the next handle sweeps
        # its tmp (once old enough that no live writer can own it), finds the
        # log torn and rebuilds it from the files
        (tmp,) = [n for n in os.listdir(path) if n.endswith(".tmp")]
        os.utime(os.path.join(path, tmp), (0, time.time() - TMP_SWEEP_AGE - 1))
        survivor = SharedCacheStore(path, tenant=TENANTS[1], quota_bytes=QUOTA)
        assert survivor.tmps_swept == 1
        assert survivor.save("fp-after", [[2] * 40], [320], "p1")
        assert not survivor.contains("fp-torn")
        assert_ledger_is_the_directory(path)
        with survivor._lock:
            assert sorted(survivor._usage()) == ["fp-after", "fp-before"]

    def test_publisher_killed_after_the_replace_owns_what_it_published(self, tmp_path):
        path = str(tmp_path)
        first = survivor_of(_killed_after_the_replace, path)
        payloads, _, producer, owner = first.load("fp-before")
        assert (payloads, producer, owner) == ([[2] * 40], "p1", TENANTS[1])
        assert_ledger_is_the_directory(path)
        os.unlink(first._log_file)  # ... and the files alone say the same
        assert_ledger_is_the_directory(path)
        assert first.tenant_usage(TENANTS[0]) == 0

    def test_inflight_fingerprint_computed_exactly_once(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        log_path = str(tmp_path / "compute.log")
        with CTX.Pool(2) as pool:
            results = pool.map(
                _flight_worker,
                [(str(store_dir), log_path, seed) for seed in range(2)],
            )
        computes = [line for line in open(log_path)] if os.path.exists(
            log_path
        ) else []
        assert len(computes) == 1, f"computed {len(computes)} times: {computes}"
        assert sum(c for c, _ in results) == 1  # exactly one winner...
        assert sum(s for _, s in results) == 1  # ...and the loser was served
