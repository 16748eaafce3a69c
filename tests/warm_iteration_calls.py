"""File-system and hash calls of one warm ``explore_session``-shaped job:
what a re-run pays the cache, with no clock in it.

``python tests/warm_iteration_calls.py`` (with ``PYTHONPATH=src``) warms one
quota-bound ``SharedCacheStore`` with 150 steps of the sliding-window
``deep_learning_mdf(mode="hyper_only")`` session ``benchmarks/wall``'s
``explore_session`` times (a fresh store handle, cache and cluster per
step), then counts the ``os.stat`` / ``os.listdir`` / ``open`` /
``hashlib.sha256`` calls of step 151 and the bytes of ``usage.log`` it
reads.  The calls are exact and repeatable, the bytes within a few (a
publish mtime's ``repr`` varies in length) — 814 / 5 / 216 / 107 with a
directory scan per publish and operators fingerprinted one by one, 36 / 1 /
34 / 49 with the usage log and the one fingerprinting pass, 22 / 1 / 23 /
49 and ~70,650 B (the whole log at each of three publishes) with the owner
inside the entry and no ``contains`` before ``load``, 25 / 1 / 20 / 49 and
~355 B with the process's ledger folding only what was appended — so CI's
tier-1 summary tracks it.  Not collected by pytest.
"""

import builtins
import hashlib
import os
import tempfile
from contextlib import ExitStack
from unittest import mock

from repro import Cluster, run_mdf
from repro.cache import ResultCache, SharedCacheStore
from repro.cache.store import USAGE_LOG
from repro.cluster import GB
from repro.engine import EngineConfig
from repro.workloads import cifar_like, deep_learning_mdf
from repro.workloads.deeplearning import MLPTrainer

WARM_STEPS = 150
COUNTED = ((os, "stat"), (os, "listdir"), (builtins, "open"), (hashlib, "sha256"))


def step(i, data, trainer, store_dir):
    store = SharedCacheStore(store_dir, tenant="analyst", quota_bytes=2 * 1024 * 1024)
    mdf = deep_learning_mdf(
        data,
        mode="hyper_only",
        trainer=trainer,
        rates=[round(0.0005 + 0.00001 * (i + j), 8) for j in range(6)],
        momenta=(0.0, 0.9),
        nominal_bytes=1 * GB,
    )
    config = EngineConfig(
        pruning=False, incremental_choose=False, cache=ResultCache(store=store)
    )
    run_mdf(mdf, Cluster(4, 4 * GB), scheduler="bas", memory="amm", config=config)


class LogReads:
    """Bytes read from ``log``: by ``os.pread`` on a descriptor open on it,
    or through a file ``open`` returned for it."""

    def __init__(self, log):
        self.log = log
        self.bytes = 0
        self._pread, self._open, self._fstat, self._stat = os.pread, open, os.fstat, os.stat

    def pread(self, fd, length, offset):
        data = self._pread(fd, length, offset)
        if os.path.samestat(self._fstat(fd), self._stat(self.log)):
            self.bytes += len(data)
        return data

    def open(self, file, mode="r", *args, **kwargs):
        fh = self._open(file, mode, *args, **kwargs)
        if file == self.log and "r" in mode:
            read = fh.read

            def counted(*size):
                data = read(*size)
                self.bytes += len(data.encode() if isinstance(data, str) else data)
                return data

            fh.read = counted
        return fh


def warm_iteration_calls():
    data = cifar_like(n_samples=600, features=64, seed=1)
    trainer = MLPTrainer(hidden=16, epochs=5)
    with tempfile.TemporaryDirectory() as store_dir:
        for i in range(WARM_STEPS):
            step(i, data, trainer, store_dir)
        reads = LogReads(os.path.join(store_dir, USAGE_LOG))
        wrapped = {(builtins, "open"): reads.open}
        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(os, "pread", reads.pread))
            spies = [
                stack.enter_context(
                    mock.patch.object(
                        owner, name, wraps=wrapped.get((owner, name), getattr(owner, name))
                    )
                )
                for owner, name in COUNTED
            ]
            step(WARM_STEPS, data, trainer, store_dir)
    return [spy.call_count for spy in spies], reads.bytes


if __name__ == "__main__":
    calls, log_bytes = warm_iteration_calls()
    print(" / ".join(map(str, calls)) + f" and {log_bytes:,} B")
