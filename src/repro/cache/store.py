"""The lineage-fingerprint result cache (entries, tiers, lifecycle).

The cache maps a stage-output fingerprint (:mod:`repro.cache.fingerprint`)
to the *location* of bytes that stage already produced.  It has two tiers:

* **cluster tier** — the entry points at partition slots living on the
  simulated cluster as ordinary data: the node-store keys the output was
  registered under.  A hit is served by reading those partitions through
  the normal ``load_partition`` path, so it is charged memory- or
  disk-read cost by residency, it refreshes LRU/AMM recency, and the
  entries are evicted/demoted under the same ``pre(d)`` accounting as
  everything else (§4).  The cache holds **no payload references** in this
  tier — if the backing dataset is discarded the entry dies, it cannot pin
  memory.
* **store tier** (optional) — a :class:`SharedCacheStore` directory of
  pickled payloads that survives ``cluster.reset()`` and process restarts,
  for warm exploratory re-runs.  Hits are charged disk-read cost.

Entries never carry payloads, only fingerprints, dataset ids, node-store
keys and nominal sizes; validity is re-checked against the live cluster at
every lookup (``cluster.key_available``).  A recovered (recomputed)
partition restores the same key with byte-identical content, so its entry
*refreshes* for free; a discarded or failure-lost partition leaves the
entry unbacked and it is invalidated — eagerly by
:meth:`ResultCache.invalidate_dataset`/:meth:`ResultCache.revalidate`,
lazily at the next lookup.

The store tier is also the **shared cross-tenant tier** of the
multi-tenant job service (:mod:`repro.service`): many concurrent jobs —
different processes, different tenants — read and write one directory
safely (cross-process write locking on top of the per-writer-unique-tmp +
``os.replace`` atomicity), single-flight leases deduplicate concurrent
computation of the same fingerprint, and per-tenant byte quotas bound each
tenant's footprint with oldest-first eviction.  See ``docs/service.md``.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, TextIO, Tuple
from urllib.parse import quote, unquote

__all__ = [
    "CacheEntry",
    "CacheHit",
    "CacheStats",
    "SharedCacheStore",
    "ResultCache",
]


@dataclass
class CacheEntry:
    """Cluster-tier entry: where a fingerprint's bytes live right now."""

    fingerprint: str
    dataset_id: str
    #: node-store keys of the partitions at admission time, in index order
    keys: List[Tuple[str, int]]
    partition_bytes: List[int]
    producer: Optional[str]

    @property
    def total_bytes(self) -> int:
        return sum(self.partition_bytes)


@dataclass
class CacheHit:
    """A resolved lookup the executor can serve a stage from."""

    tier: str  # "cluster" | "store"
    fingerprint: str
    partition_bytes: List[int]
    producer: Optional[str]
    #: cluster tier: (live owning dataset id, partition position) per index
    locations: Optional[List[Tuple[str, int]]] = None
    #: store tier: the unpickled payloads per index
    payloads: Optional[List[Any]] = None
    #: store tier: the tenant whose run wrote the entry, read from the
    #: entry itself (None on the cluster tier).
    #: A hit whose owner differs from the reading cache's tenant is a
    #: *cross-tenant* hit — one user's explore warmed another's.
    owner_tenant: Optional[str] = None

    @property
    def total_bytes(self) -> int:
        return sum(self.partition_bytes)

    @property
    def num_partitions(self) -> int:
        return len(self.partition_bytes)


@dataclass
class CacheStats:
    """What one :class:`ResultCache` saw, counted once (survives
    ``cluster.reset()``).  The run's trace carries the same hits, misses,
    admissions and invalidations per stage, so its folded ``cache_*``
    counters agree with these; a store's corrupt entries are counted by the
    store (:attr:`SharedCacheStore.corrupt_entries`)."""

    hits: int = 0
    misses: int = 0
    admissions: int = 0
    invalidations: int = 0
    bytes_saved: int = 0
    compute_seconds_saved: float = 0.0
    store_hits: int = 0
    store_writes: int = 0
    #: admissions the store tier did not keep (``save()`` returned False:
    #: unpicklable payload, or an entry larger than its tenant's whole quota)
    unpicklable_skipped: int = 0
    #: store hits whose entry was written by a *different* tenant
    cross_tenant_hits: int = 0
    #: store misses that were resolved by waiting out another job's
    #: in-flight computation of the same fingerprint (single-flight)
    singleflight_waits: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return dict(vars(self))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: the store's append-only quota ledger (see ``_usage``)
USAGE_LOG = "usage.log"
#: the log is rewritten when its dead lines outnumber the live ones and this
LOG_SLACK = 64
#: a lease older than this is a stuck writer's (a dead pid's is broken at once)
FLIGHT_TIMEOUT = 30.0
#: a waiter recomputes after this; operators are pure, so giving up costs only time
FLIGHT_WAIT = 5.0
#: a waiter's poll interval, well under the cheapest stage worth waiting for
FLIGHT_POLL = 0.005
#: a tmp younger than this may be a live writer's mid-publish and is not swept
TMP_SWEEP_AGE = 60.0


def _unlink(path: str) -> None:
    """Remove a file that may already be gone."""
    try:
        os.unlink(path)
    except OSError:
        pass


def _tmp_name(path: str) -> str:
    """The writer's own tmp beside ``path``: one per process *and* thread,
    so two writers of one path — two processes, or two threads of one —
    never truncate each other's dump."""
    return f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"


@contextlib.contextmanager
def atomic_text(path: str) -> Iterator[TextIO]:
    """Open a text file that appears at ``path`` only when the block ends
    cleanly, so a concurrent reader sees the old or the new file, never a
    torn one (per-writer tmp + ``os.replace``), and a failed write (a full
    disk) leaves no tmp behind — the package's one text publish: the
    store's ``usage.log`` rewrite, the service's tickets, ``state.json``
    and metric exports.  Callers stream into it, one buffer-sized write at
    a time."""
    tmp = _tmp_name(path)
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise


def _lease_held(path: str) -> Optional[bool]:
    """Whether a live writer holds the lease (``None``: there is none).  A
    lease whose ``"<pid> <time>"`` names a pid gone from this host is stale
    at once, any lease (one still empty, too) after ``FLIGHT_TIMEOUT``."""
    try:
        with open(path) as fh:
            pid = fh.read().split(" ", 1)[0]
            age = time.time() - os.fstat(fh.fileno()).st_mtime
    except OSError:
        return None
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except (ValueError, PermissionError):  # no pid yet; another user's
        pass
    return age < FLIGHT_TIMEOUT


def _log_line(fingerprint: str, tenant: str, nbytes: int, mtime: float) -> str:
    return f"+ {fingerprint} {quote(tenant, safe='')} {nbytes} {mtime!r}\n"


class _Ledger(dict):
    """This process's fold of one ``usage.log``: ``{fingerprint: (tenant,
    file bytes, publish mtime)}``, plus what a quota decision reads — each
    tenant's byte total and its entries oldest first as ``(mtime,
    fingerprint, bytes)``, the order the directory scan's sort gives.

    It holds the log open, so the inode it folded cannot be reused while it
    lives: the path's ``(st_dev, st_ino)`` equal to :attr:`file` then means
    the path still names the file folded up to :attr:`offset`.
    """

    def __init__(self, path: str):
        super().__init__()
        self.fd = os.open(path, os.O_RDONLY)
        stat = os.fstat(self.fd)
        self.file = (stat.st_dev, stat.st_ino)
        #: bytes folded so far, and the lines in them
        self.offset = 0
        self.lines = 0
        self.totals: Dict[str, int] = {}
        self.order: Dict[str, List[Tuple[float, str, int]]] = {}

    def fold(self, size: int) -> None:
        """Apply the lines between :attr:`offset` and ``size``; a torn or
        malformed one raises ``ValueError``."""
        data = os.pread(self.fd, size - self.offset, self.offset)
        lines = data.decode().split("\n")
        if lines.pop():
            raise ValueError("torn last line")
        for line in lines:
            fields = line.split(" ")
            if fields[0] == "+" and len(fields) == 5:
                _, fingerprint, tenant, nbytes, mtime = fields
                self.add(fingerprint, unquote(tenant), int(nbytes), float(mtime))
            elif fields[0] == "-" and len(fields) == 2:
                self.drop(fields[1])
            else:
                raise ValueError(f"malformed line {line!r}")
        self.offset += len(data)
        self.lines += len(lines)

    def add(self, fingerprint: str, tenant: str, nbytes: int, mtime: float) -> None:
        self.drop(fingerprint)  # a later + supersedes the earlier one
        self[fingerprint] = (tenant, nbytes, mtime)
        self.totals[tenant] = self.totals.get(tenant, 0) + nbytes
        insort(self.order.setdefault(tenant, []), (mtime, fingerprint, nbytes))

    def drop(self, fingerprint: str) -> None:
        entry = self.pop(fingerprint, None)
        if entry is not None:
            tenant, nbytes, mtime = entry
            self.totals[tenant] -= nbytes
            owned = self.order[tenant]
            del owned[bisect_left(owned, (mtime, fingerprint, nbytes))]


#: the one ledger of this process, over whichever store it folded last: a
#: job opens a fresh store handle, so a per-handle ledger would re-read the
#: whole log at every job's first publish
_ledger: Optional[_Ledger] = None
#: serialises this process's threads folding different directories into the
#: one ledger (the store's ``flock`` already serialises one directory's)
_ledger_lock = threading.Lock()


def _forget_ledger() -> None:
    global _ledger
    if _ledger is not None:
        os.close(_ledger.fd)
        _ledger = None


def _forget_ledger_in_child() -> None:
    """A forked child folds for itself: the parent's ledger, and a lock some
    other parent thread may have held at the fork, are not its own."""
    global _ledger_lock
    _ledger_lock = threading.Lock()
    _forget_ledger()


if hasattr(os, "register_at_fork"):  # no fork, no inheritance
    os.register_at_fork(after_in_child=_forget_ledger_in_child)


class _StoreLock:
    """Cross-process exclusive lock over one store directory.

    ``fcntl.flock`` on a dedicated ``.lock`` file: advisory, held only
    around metadata mutations (publish, quarantine, quota eviction),
    released automatically by the kernel if the holder dies.  Falls back
    to no-op locking on platforms without :mod:`fcntl` — single-process
    use stays correct there.
    """

    def __init__(self, path: str):
        self._path = os.path.join(path, ".lock")
        self._fh = None
        try:
            import fcntl  # noqa: F401 - probe availability once

            self._fcntl = fcntl
        except ImportError:  # pragma: no cover - posix containers have it
            self._fcntl = None

    def __enter__(self) -> "_StoreLock":
        if self._fcntl is not None:
            self._fh = open(self._path, "a+")
            self._fcntl.flock(self._fh.fileno(), self._fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc) -> None:
        if self._fh is not None:
            self._fcntl.flock(self._fh.fileno(), self._fcntl.LOCK_UN)
            self._fh.close()
            self._fh = None


#: what :meth:`SharedCacheStore.load` returns: payloads, partition bytes,
#: producer, and the tenant that published the entry
Loaded = Tuple[List[Any], List[int], Optional[str], str]


class SharedCacheStore:
    """The store tier: one directory many processes and tenants share.

    ``<fp>.pkl`` is two consecutive pickles — the owning tenant (a
    ``str``), then the blob — so an entry and its owner are one file and
    one atomic ``os.replace`` publishes both.  Writes are best-effort (an
    unpicklable payload skips persistence and the entry stays cluster-tier
    only) and are *not* charged to the simulated clock — the store stands
    in for the shared artifact storage an exploratory platform writes
    behind the scenes, and charging it would perturb the cost-model
    comparisons the benchmarks assert on.

    * **Corrupt entries are misses** — a truncated file, garbage, a blob of
      the wrong shape or a first pickle that is not a ``str`` (a store
      written before the owner moved inside the entry) is never served and
      never raises: it is unlinked under the lock, counted in
      :attr:`corrupt_entries`, and the run recomputes the stage.
    * **Cross-process write locking** — publishes, quarantines and quota
      evictions happen under an exclusive ``flock``, so directory metadata
      never tears.  Pickling stays *outside* the lock: each writer (a
      process, or a thread of one) dumps into its own tmp file first, and
      tmps a killed writer left behind are swept at open once older than
      ``TMP_SWEEP_AGE``.
    * **Single-flight leases** — the first job to miss a fingerprint
      creates ``<fp>.flight`` (``O_CREAT | O_EXCL``); concurrent jobs
      missing the same fingerprint wait (bounded) for the computing job
      to publish instead of recomputing.  Leases are crash-safe: a lease
      whose holder's pid is gone, or older than ``FLIGHT_TIMEOUT`` real
      seconds, is broken and taken over.  Waits are bounded by
      ``FLIGHT_WAIT`` — on timeout the waiter simply recomputes (correct
      either way; operators are pure).
    * **Per-tenant byte quotas** — after each save the writing tenant's
      footprint is read from the process's ledger of ``usage.log``, which
      folds only the bytes appended since its last fold (:meth:`_usage`),
      and while it exceeds the quota its *oldest* entries (publish mtime)
      are evicted.  Quotas bound footprint, not sharing: any tenant may
      *read* any entry.
    """

    def __init__(
        self,
        path: str,
        tenant: str = "default",
        quota_bytes: Optional[int] = None,
    ):
        self.path = str(path)
        os.makedirs(self.path, exist_ok=True)
        self.tenant = str(tenant)
        self.quota_bytes = quota_bytes
        #: corrupt entry files detected (and unlinked)
        self.corrupt_entries = 0
        #: entries this store evicted to keep its tenant under quota
        self.quota_evictions = 0
        #: stale tmp files swept at open (crashed writers' leftovers)
        self.tmps_swept = self._sweep_tmps()
        self._lock = _StoreLock(self.path)
        self._log_file = os.path.join(self.path, USAGE_LOG)

    def obs_counters(self) -> Dict[str, int]:
        """Store-level counters the service observability plane exports
        (``service_store_*`` series; see :mod:`repro.service.obs`)."""
        return {
            "corrupt_entries": self.corrupt_entries,
            "tmps_swept": self.tmps_swept,
            "quota_evictions": self.quota_evictions,
        }

    def _file(self, fingerprint: str) -> str:
        return os.path.join(self.path, f"{fingerprint}.pkl")

    def _sweep_tmps(self) -> int:
        """Remove ``*.tmp`` leftovers of killed writers (open-time sweep)."""
        swept = 0
        now = time.time()
        for name in os.listdir(self.path):
            if not name.endswith(".tmp"):
                continue
            full = os.path.join(self.path, name)
            try:
                if now - os.path.getmtime(full) >= TMP_SWEEP_AGE:
                    os.unlink(full)
                    swept += 1
            except OSError:
                pass
        return swept

    def contains(self, fingerprint: str) -> bool:
        return os.path.exists(self._file(fingerprint))

    # ------------------------------------------------------------- entries
    def save(
        self,
        fingerprint: str,
        payloads: List[Any],
        partition_bytes: List[int],
        producer: Optional[str],
    ) -> bool:
        """Persist one entry; True when it is on disk afterwards."""
        blob = {
            "payloads": payloads,
            "partition_bytes": list(partition_bytes),
            "producer": producer,
        }
        # per-writer tmp name: two processes or threads publishing the same
        # fingerprint never interleave writes into one file (each replace
        # is atomic)
        tmp = _tmp_name(self._file(fingerprint))
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(self.tenant, fh, protocol=pickle.HIGHEST_PROTOCOL)
                pickle.dump(blob, fh, protocol=pickle.HIGHEST_PROTOCOL)
            return self._publish(fingerprint, tmp)
        except Exception:  # noqa: BLE001 - unpicklable payloads skip the tier
            _unlink(tmp)
            return False

    def _publish(self, fingerprint: str, tmp: str) -> bool:
        """Atomically move a fully written tmp into place; whether the
        entry is still there when the publish is over."""
        owner = self.tenant
        with self._lock:
            # logged before the replace makes it true: a writer killed in
            # between leaves a line without a file, which eviction reaches
            # and drops; the other order would leave a file nobody counts
            stat = os.stat(tmp)  # the rename keeps size and mtime
            self._log_append(_log_line(fingerprint, owner, stat.st_size, stat.st_mtime))
            os.replace(tmp, self._file(fingerprint))
            self._enforce_quota(owner, keep=fingerprint)
            # an entry that alone exceeds the quota was evicted again
            return self.contains(fingerprint)

    def load(self, fingerprint: str) -> Optional[Loaded]:
        """Unpickle one entry afresh: the payloads are the caller's own."""
        try:
            with open(self._file(fingerprint), "rb") as fh:
                owner = pickle.load(fh)
                if not isinstance(owner, str):
                    raise ValueError("entry does not start with its owner")
                blob = pickle.load(fh)
            payloads = blob["payloads"]
            partition_bytes = blob["partition_bytes"]
            if not isinstance(payloads, list) or not isinstance(partition_bytes, list):
                raise ValueError("malformed cache blob")
            if len(payloads) != len(partition_bytes):
                raise ValueError("cache blob payload/bytes length mismatch")
            return payloads, partition_bytes, blob["producer"], owner
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - truncated/corrupt entry: quarantine
            with self._lock:
                self._quarantine(fingerprint)
            return None

    def owner_of(self, fingerprint: str) -> Optional[str]:
        """Tenant that published an entry, read from the entry's first
        pickle alone (None when the file is missing or does not say)."""
        try:
            with open(self._file(fingerprint), "rb") as fh:
                owner = pickle.load(fh)
        except Exception:  # noqa: BLE001 - missing or torn: nobody's
            return None
        return owner if isinstance(owner, str) else None

    def _quarantine(self, fingerprint: str) -> None:
        """Unlink and count a corrupt entry; lock held."""
        self.corrupt_entries += 1
        _unlink(self._file(fingerprint))
        self._log_append(f"- {fingerprint}\n")

    def clear(self) -> None:
        with self._lock:
            for name in os.listdir(self.path):
                if name.endswith((".pkl", ".tmp", ".flight", USAGE_LOG)):
                    _unlink(os.path.join(self.path, name))

    def __len__(self) -> int:
        return sum(1 for n in os.listdir(self.path) if n.endswith(".pkl"))

    # ----------------------------------------------------------- usage log
    def _log_append(self, text: str) -> None:
        """Append, lock held.  A missing log stays missing: the next ``_usage``
        rebuilds it from the files, which by then show what ``text`` records."""
        try:
            fd = os.open(self._log_file, os.O_WRONLY | os.O_APPEND)
        except FileNotFoundError:
            return
        try:
            os.write(fd, text.encode())  # one write: a kill tears no line
        finally:
            os.close(fd)

    def _usage(self) -> _Ledger:
        """``{fingerprint: (tenant, file bytes, publish mtime)}`` of every
        owned entry: this process's ledger, brought up to date with the log;
        lock held.

        A later ``+`` of a fingerprint supersedes the earlier one (another
        tenant overwrote the entry), a ``-`` drops it.  Only the bytes
        appended since the last fold are read, while the path names the
        file the ledger holds open and that file has not shrunk below what
        was folded; otherwise the fold starts over from byte 0 of the file
        the path names now (another handle's rewrite, a truncation, another
        store directory).  A missing, torn or malformed log is rebuilt from
        the directory, and one whose dead lines outnumber its live ones is
        rewritten without them.
        """
        global _ledger
        with _ledger_lock:
            try:
                stat = os.stat(self._log_file)
                if (
                    _ledger is None
                    or _ledger.file != (stat.st_dev, stat.st_ino)
                    or stat.st_size < _ledger.offset
                ):
                    _forget_ledger()
                    _ledger = _Ledger(self._log_file)
                _ledger.fold(stat.st_size)
                if _ledger.lines - len(_ledger) <= max(len(_ledger), LOG_SLACK):
                    return _ledger
                usage: Dict[str, Tuple[str, int, float]] = _ledger
            except (OSError, ValueError):
                usage = self._scan()
            _forget_ledger()
            with atomic_text(self._log_file) as fh:
                fh.writelines(_log_line(fp, *entry) for fp, entry in usage.items())
            _ledger = _Ledger(self._log_file)
            _ledger.fold(os.fstat(_ledger.fd).st_size)
            return _ledger

    def _scan(self) -> Dict[str, Tuple[str, int, float]]:
        """What :meth:`_usage` answers, read from the files themselves: one
        ``listdir``, then the first pickle and a ``stat`` of each entry; lock
        held.  The recovery path of the log, and the oracle the tests hold it
        to.  An entry that does not say whose it is is quarantined, so every
        file left is one some tenant's quota counts."""
        usage = {}
        for name in os.listdir(self.path):
            if not name.endswith(".pkl"):
                continue
            fingerprint = name[: -len(".pkl")]
            owner = self.owner_of(fingerprint)
            if owner is None:
                self._quarantine(fingerprint)
                continue
            try:
                stat = os.stat(os.path.join(self.path, name))
            except OSError:
                continue
            usage[fingerprint] = (owner, stat.st_size, stat.st_mtime)
        return usage

    # -------------------------------------------------------------- quotas
    def tenant_usage(self, tenant: str) -> int:
        """Bytes of entry files currently owned by ``tenant``."""
        with self._lock:
            return self._owned(tenant)[0]

    def _owned(self, tenant: str) -> Tuple[int, List[Tuple[float, str, int]]]:
        """What a quota decision reads: ``tenant``'s bytes and its entries
        oldest first, ``(mtime, fingerprint, bytes)``; lock held."""
        ledger = self._usage()
        return ledger.totals.get(tenant, 0), ledger.order.get(tenant, [])

    def _enforce_quota(self, tenant: str, keep: Optional[str] = None) -> None:
        """Evict the tenant's oldest entries until its quota holds.

        Called with the store lock held.  The just-published entry
        (``keep``) is evicted only as a last resort — when it alone
        exceeds the quota.
        """
        if self.quota_bytes is None:
            return
        # within quota this returns at the first entry; ``owned`` is the
        # ledger's own list, which an eviction (an append) leaves as it is
        # until the next fold
        total, owned = self._owned(tenant)
        for _, fingerprint, nbytes in owned:
            if total <= self.quota_bytes:
                return
            if fingerprint == keep and total - nbytes <= self.quota_bytes:
                continue  # evicting an older sibling suffices
            self._evict(fingerprint)
            total -= nbytes
        if total > self.quota_bytes and keep is not None:
            self._evict(keep)

    def _evict(self, fingerprint: str) -> None:
        _unlink(self._file(fingerprint))
        self._log_append(f"- {fingerprint}\n")
        self.quota_evictions += 1

    # ------------------------------------------------------- single flight
    def _flight_file(self, fingerprint: str) -> str:
        return os.path.join(self.path, f"{fingerprint}.flight")

    def try_begin_flight(self, fingerprint: str) -> bool:
        """Claim the right to compute a fingerprint (True = we compute).

        The lease is a file created with ``O_CREAT | O_EXCL`` — exactly
        one concurrent claimant wins.  A stale lease (:func:`_lease_held`
        says no) is broken before retrying once.
        """
        path = self._flight_file(fingerprint)
        for _ in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                held = _lease_held(path)
                if held:
                    return False
                if held is False:  # stale lease: break it and retry the claim once
                    _unlink(path)
                continue  # None: the holder just released; retry the claim
            with os.fdopen(fd, "w") as fh:
                fh.write(f"{os.getpid()} {time.time():.3f}")
            return True
        return False

    def end_flight(self, fingerprint: str) -> None:
        """Release a lease taken with :meth:`try_begin_flight`."""
        _unlink(self._flight_file(fingerprint))

    def flight_active(self, fingerprint: str) -> bool:
        return bool(_lease_held(self._flight_file(fingerprint)))

    def wait_for_flight(self, fingerprint: str) -> Optional[Loaded]:
        """Wait (bounded) for another job's in-flight computation.

        Polls until the entry is published, the lease disappears without
        a publish (the computing job failed or skipped persistence), or
        ``FLIGHT_WAIT`` real seconds elapse.  Returns the loaded entry on
        publish, else ``None`` (the caller recomputes).
        """
        deadline = time.monotonic() + FLIGHT_WAIT
        while True:
            if self.contains(fingerprint):
                loaded = self.load(fingerprint)
                if loaded is not None:
                    return loaded
            if not self.flight_active(fingerprint):
                # one final check: the publish may have landed between the
                # contains() poll and the lease release
                return self.load(fingerprint) if self.contains(fingerprint) else None
            if time.monotonic() >= deadline:
                return None
            time.sleep(FLIGHT_POLL)


class ResultCache:
    """Fingerprint → cached stage output, shared across ``run_mdf`` calls.

    Pass one instance via ``EngineConfig(cache=ResultCache(...))``; reusing
    the same instance (and, for the cluster tier, ``run_mdf(...,
    reset=False)`` so prior outputs stay registered) is what makes warm
    re-runs hit.

    The executor serves a hit only when the modelled read cost beats the
    modelled recompute cost — under the paper's cost model a disk-resident
    entry can be *slower* than recomputing a cheap operator (disk reads
    200 MB/s vs 500 MB/s compute), and a cache that slows the job down is
    worse than no cache.
    """

    def __init__(self, store: Optional[SharedCacheStore] = None):
        self.store = store
        self.stats = CacheStats()
        self._entries: Dict[str, CacheEntry] = {}
        self._by_dataset: Dict[str, Set[str]] = {}
        #: single-flight leases this cache holds (fingerprints it claimed
        #: on a miss and must release at admission or run end)
        self._owned_flights: Set[str] = set()

    @property
    def tenant(self) -> Optional[str]:
        """The tenant this cache reads/writes as (None without a store)."""
        return self.store.tenant if self.store is not None else None

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, fingerprint: str) -> Optional[CacheEntry]:
        return self._entries.get(fingerprint)

    def lookup(self, fingerprint: str, cluster) -> Optional[CacheHit]:
        """Resolve a fingerprint to readable bytes, or ``None`` (miss).

        Cluster-tier entries are validated key by key against the live
        cluster; an unbacked entry is invalidated here (lazy path) before
        falling through to the store tier.
        """
        entry = self._entries.get(fingerprint)
        if entry is not None:
            locations = self._resolve(entry, cluster)
            if locations is not None:
                return CacheHit(
                    tier="cluster",
                    fingerprint=fingerprint,
                    partition_bytes=list(entry.partition_bytes),
                    producer=entry.producer,
                    locations=locations,
                )
            self._drop(fingerprint, cluster, reason="backing-lost")
        if self.store is not None:
            loaded = self.store.load(fingerprint)
            if loaded is None:
                loaded = self._singleflight(fingerprint)
            if loaded is not None:
                payloads, partition_bytes, producer, owner = loaded
                return CacheHit(
                    tier="store",
                    fingerprint=fingerprint,
                    partition_bytes=list(partition_bytes),
                    producer=producer,
                    payloads=payloads,
                    owner_tenant=owner,
                )
        return None

    # ------------------------------------------------------------ hit / miss
    def note_miss(
        self, fingerprint: Optional[str], cluster, stage_id: str, reason: str
    ) -> None:
        """Account one consulted stage that executes for real.

        ``reason``: ``"cold"`` (no entry), ``"not-profitable"`` (the
        executor's cost gate declined the hit) or ``"unfingerprintable"``
        (no lineage identity, ``fingerprint`` is ``None``).
        """
        self.stats.misses += 1
        cluster.trace.emit(
            "cache_miss", stage=stage_id, fingerprint=fingerprint, reason=reason
        )

    def note_hit(
        self,
        hit: CacheHit,
        cluster,
        stage_id: str,
        dataset_id: str,
        saved_seconds: float,
    ) -> None:
        """Account one stage served from ``hit`` as ``dataset_id``."""
        stats = self.stats
        stats.hits += 1
        stats.bytes_saved += hit.total_bytes
        stats.compute_seconds_saved += saved_seconds
        if hit.tier == "store":
            stats.store_hits += 1
        if hit.owner_tenant and hit.owner_tenant != self.tenant:
            stats.cross_tenant_hits += 1
        cluster.trace.emit(
            "cache_hit",
            stage=stage_id,
            dataset=dataset_id,
            fingerprint=hit.fingerprint,
            tier=hit.tier,
            nbytes=hit.total_bytes,
            saved_seconds=saved_seconds,
        )

    # --------------------------------------------------------- single flight
    def _singleflight(self, fingerprint: str):
        """Resolve a store miss through the single-flight protocol.

        Either we claim the lease (remembering to release it at admission
        or run end) and return ``None`` — meaning *we* compute — or
        another job already holds it and we wait, bounded, for its
        publish.  A successful wait is served as a normal store hit.
        """
        if fingerprint in self._owned_flights:
            return None  # we are the computing job; proceed to execute
        if self.store.try_begin_flight(fingerprint):
            self._owned_flights.add(fingerprint)
            return None
        loaded = self.store.wait_for_flight(fingerprint)
        if loaded is not None:
            self.stats.singleflight_waits += 1
        return loaded

    def _release_flight(self, fingerprint: str) -> None:
        if fingerprint in self._owned_flights:
            self.store.end_flight(fingerprint)
            self._owned_flights.discard(fingerprint)

    def finish_run(self) -> None:
        """Release any single-flight leases still held (run teardown).

        A lease survives to run end when its stage output was never
        admitted — a deferred branch tail the choose discarded, a failed
        run, or persistence skipped.  Waiters time out anyway (bounded
        waits), but releasing promptly keeps them from stalling.
        """
        for fingerprint in sorted(self._owned_flights):
            self.store.end_flight(fingerprint)
        self._owned_flights.clear()

    def _resolve(
        self, entry: CacheEntry, cluster
    ) -> Optional[List[Tuple[str, int]]]:
        """Map every entry key to its live owning dataset, or ``None``.

        A key's owner may no longer be the admitting dataset: a choose can
        absorb branch tails into a composite (``register_composite`` pops
        the member records).  Reads must go to the live owner so the R3
        no-use-after-discard invariant keeps holding on cache hits.
        """
        locations: List[Tuple[str, int]] = []
        for key in entry.keys:
            owner = cluster.key_available(key)
            if owner is None:
                return None
            locations.append(owner)
        return locations

    # ------------------------------------------------------------ lifecycle
    def admit(self, fingerprint: str, dataset, cluster) -> None:
        """Remember a freshly materialised stage output.

        ``dataset`` must already be registered on ``cluster`` — the entry
        records the node-store keys of its partitions, not the payloads.
        """
        record = cluster.record(dataset.id)
        entry = CacheEntry(
            fingerprint=fingerprint,
            dataset_id=dataset.id,
            keys=list(record.partition_keys),
            partition_bytes=list(record.partition_bytes),
            producer=record.producer,
        )
        previous = self._entries.get(fingerprint)
        if previous is not None:
            members = self._by_dataset.get(previous.dataset_id)
            if members is not None:
                members.discard(fingerprint)
                if not members:
                    self._by_dataset.pop(previous.dataset_id, None)
        self._entries[fingerprint] = entry
        self._by_dataset.setdefault(dataset.id, set()).add(fingerprint)
        tier = "cluster"
        if self.store is not None and not self.store.contains(fingerprint):
            persisted = self.store.save(
                fingerprint,
                [p.data for p in dataset.partitions],
                entry.partition_bytes,
                entry.producer,
            )
            if persisted:
                tier = "cluster+store"
                self.stats.store_writes += 1
            else:
                self.stats.unpicklable_skipped += 1
        elif self.store is not None:
            tier = "cluster+store"
        if self.store is not None:
            # the fingerprint is now published (or persistence was skipped
            # for good) — stop holding concurrent jobs back either way
            self._release_flight(fingerprint)
        self.stats.admissions += 1
        cluster.trace.emit(
            "cache_admit",
            fingerprint=fingerprint,
            dataset=dataset.id,
            nbytes=entry.total_bytes,
            partitions=len(entry.keys),
            tier=tier,
        )

    def invalidate_dataset(self, dataset_id: str, cluster, reason: str) -> None:
        """Eagerly drop every entry admitted under a discarded dataset."""
        for fingerprint in sorted(self._by_dataset.get(dataset_id, ())):
            self._drop(fingerprint, cluster, reason=reason)

    def revalidate(self, cluster, reason: str) -> None:
        """Drop every entry whose backing partitions are no longer readable.

        Called after failure recovery: recomputed partitions were restored
        byte-identically under their original keys (their entries stay
        valid — the *refresh* path), while dropped-dead or discarded
        partitions leave entries unbacked — those die here.
        """
        for fingerprint in sorted(self._entries):
            entry = self._entries.get(fingerprint)
            if entry is not None and self._resolve(entry, cluster) is None:
                self._drop(fingerprint, cluster, reason=reason)

    def _drop(self, fingerprint: str, cluster, reason: str) -> None:
        entry = self._entries.pop(fingerprint, None)
        if entry is None:
            return
        members = self._by_dataset.get(entry.dataset_id)
        if members is not None:
            members.discard(fingerprint)
            if not members:
                self._by_dataset.pop(entry.dataset_id, None)
        self.stats.invalidations += 1
        cluster.trace.emit(
            "cache_invalidate",
            fingerprint=fingerprint,
            dataset=entry.dataset_id,
            reason=reason,
        )

    def clear(self) -> None:
        """Forget all cluster-tier entries (the disk store is untouched)."""
        self._entries.clear()
        self._by_dataset.clear()
