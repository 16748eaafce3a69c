"""Pins what a :class:`~repro.engine.JobResult` reports: the three sim-second
walls (their ``repr``, so to the bit), every choose decision and the cache's
counters, over every golden scenario plus a warm continuation pair.

A warm continuation (``run_mdf(..., reset=False)``) appends to the trace of
the run before it, so the pair also pins that the first run's values do not
move when the second runs.

The values live in ``result_views.json``; rewrite them after an *intended*
change with ``PYTHONPATH=src python -m tests.engine.test_result_views`` and
review the diff like a golden update.
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro import run_mdf
from repro.cache import ResultCache, SharedCacheStore
from repro.lab.workloads import get_workload

from ..golden import regenerate

PINNED = Path(__file__).with_name("result_views.json")


def views(result):
    return {
        "wall": [repr(result.wall_compute), repr(result.wall_io), repr(result.wall_network)],
        "decisions": [
            [name, d.scores, d.kept, d.discarded, d.pruned]
            for name, d in result.decisions.items()
        ],
    }


def record_scenario(name, monkeypatch):
    """A golden scenario's views, with the stats of every cache it built."""
    caches = []

    def recording_cache(**kwargs):
        caches.append(ResultCache(**kwargs))
        return caches[-1]

    monkeypatch.setattr(regenerate, "ResultCache", recording_cache)
    result, _ = regenerate.SCENARIOS[name]()
    return dict(views(result), cache=[c.stats.as_dict() for c in caches])


def record_warm_pair():
    """``dl_grid`` twice on one cluster and one cache: cold, then warm."""
    workload = get_workload("dl_grid")
    cluster = workload.make_cluster()
    with tempfile.TemporaryDirectory() as store_dir:
        cache = ResultCache(store=SharedCacheStore(store_dir, tenant="pin"))
        runs = []
        for reset in (True, False):
            config = workload.make_config()
            config.cache = cache
            result = run_mdf(
                workload.make_mdf(), cluster, memory="amm", config=config, reset=reset
            )
            runs.append((result, dict(views(result), cache=[cache.stats.as_dict()])))
    (cold, cold_views), (_, warm_views) = runs
    return cold, cold_views, warm_views


def record_all():
    with pytest.MonkeyPatch.context() as monkeypatch:
        out = {name: record_scenario(name, monkeypatch) for name in regenerate.SCENARIOS}
    _, out["warm_pair_cold"], out["warm_pair_warm"] = record_warm_pair()
    return out


def normalised(value):
    """What the views read back as from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("name", sorted(regenerate.SCENARIOS))
def test_scenario_views_are_pinned(name, pinned, monkeypatch):
    assert normalised(record_scenario(name, monkeypatch)) == pinned[name]


def test_warm_continuation_views_are_pinned_and_stay_put(pinned):
    cold, cold_views, warm_views = record_warm_pair()
    assert normalised(cold_views) == pinned["warm_pair_cold"]
    assert normalised(warm_views) == pinned["warm_pair_warm"]
    # the second run appended to the first one's trace: the first run's
    # views still read only its own events
    assert normalised(dict(views(cold), cache=cold_views["cache"])) == pinned["warm_pair_cold"]
    assert cold_views["decisions"] and warm_views["cache"][0]["hits"] > 0


if __name__ == "__main__":
    PINNED.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"pinned result views -> {PINNED}")
