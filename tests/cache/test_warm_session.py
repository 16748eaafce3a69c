"""A warm re-run pays only for what is new (the ``explore_session`` shape).

An analyst's loop over ``deep_learning_mdf``: a fresh cache handle and a
fresh cluster per step on one shared store, the way the wall-clock
harness and the service run it.  Exact counts — no clock anywhere.
"""

import pytest

from repro import GB, Cluster
from repro.cache import ResultCache, SharedCacheStore
from repro.engine import EngineConfig, run_mdf
from repro.service import outputs_digest
from repro.workloads import cifar_like, deep_learning_mdf
from repro.workloads.deeplearning import MLPTrainer


class CountingTrainer(MLPTrainer):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._trained = 0

    def fingerprint_token(self):
        # the tally is not part of the operator's identity
        return ("MLPTrainer", self.hidden, self.epochs, self.batch_size, self.seed)

    def train(self, *args, **kwargs):
        self._trained += 1
        return super().train(*args, **kwargs)


@pytest.fixture(scope="module")
def data():
    return cifar_like(n_samples=120, features=16, seed=4)


def run_step(data, trainer, mode, cache, **grid):
    """One job; ``(trainings, output digest, the job's cache_hit events)``."""
    before = trainer._trained
    mdf = deep_learning_mdf(data, mode=mode, trainer=trainer, **grid)
    config = EngineConfig(pruning=False, incremental_choose=False, cache=cache)
    result = run_mdf(mdf, Cluster(4, 4 * GB), scheduler="bas", memory="amm", config=config)
    hits = [e for e in result.events if e.kind == "cache_hit"]
    return trainer._trained - before, outputs_digest(result.outputs), hits


def test_sliding_window_trains_exactly_the_two_new_branches(data, tmp_path):
    """Six rates x two momenta, each step drops a rate and adds one: from
    step 2 on, 10 of the 12 train stages are store hits and 2 train."""
    trainer = CountingTrainer(hidden=4, epochs=1)
    for step in range(6):
        rates = [round(0.0005 + 0.00001 * (step + j), 8) for j in range(6)]
        cache = ResultCache(store=SharedCacheStore(str(tmp_path), tenant="analyst"))
        trained, digest, hits = run_step(
            data, trainer, "hyper_only", cache, rates=rates, momenta=(0.0, 0.9)
        )
        train_hits = [e for e in hits if e.data["dataset"].startswith("d:train-")]
        assert all(e.data["tier"] == "store" for e in train_hits)
        assert (trained, len(train_hits)) == ((12, 0) if step == 0 else (2, 10))
        solo = run_step(
            data, trainer, "hyper_only", None, rates=rates, momenta=(0.0, 0.9)
        )
        assert digest == solo[1]


def test_warm_early_choose_equals_solo(data, tmp_path):
    """Every ``early_choose`` train reads or writes the host-side cell, so
    none is cached: a warm run with every gate off retrains all of them on
    the preprocessed images and lands on the solo digest."""
    trainer = CountingTrainer(hidden=4, epochs=1)
    solo_trained, solo, _ = run_step(data, trainer, "early_choose", None)
    for _ in ("cold", "warm"):
        cache = ResultCache(
            store=SharedCacheStore(str(tmp_path), tenant="analyst"), cost_based=False
        )
        trained, digest, hits = run_step(data, trainer, "early_choose", cache)
        assert digest == solo and trained == solo_trained
        assert not [e for e in hits if "train-" in e.data["dataset"]]
    assert cache.stats.store_hits >= 1  # the pure prefix is still served
