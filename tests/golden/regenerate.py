"""Golden decision traces: canonical recordings + regeneration entry point.

The two recorded workloads:

* ``quickstart`` — ``examples/quickstart.py`` on a roomy 4-worker cluster
  (the exact job every new user runs first);
* ``explore_choose`` — a monotone-pruning explore/choose job on a starved
  cluster, so the golden trace also pins evictions, spills and pruning;
  its three ``explore_choose_*`` variants pin the choose modes the default
  never takes: every branch result stored and scored only when the choose
  stage is ready (``incremental_choose=False``), the same without pruning
  (the ``dl_grid`` / Fig. 5 pattern), and with the evaluator run at the
  master (the ablation pairing).

Traces are byte-stable: timestamps are simulated seconds, stage ids are
per-graph, and the JSONL encoding is canonical (sorted keys, compact
separators).  Any engine change that alters a decision — scheduling
order, eviction victim, pruning point — shows up as a byte diff.

Beside each trace sits ``<name>.registry.json``: the run's metrics
registry aggregated over every :data:`~repro.obs.CONSISTENCY_VIEWS` row
(plus two registry-only scenarios, a node failure and a shared-store
cache session, whose events the six traces never emit).  The counters are
a fold of the trace, so these files pin the fold itself — comparing the
live registry with a replay of its own trace would be a tautology.

Regenerate after an *intended* decision change with::

    PYTHONPATH=src python -m tests.golden.regenerate

then review the diff like any other golden update.
"""

from __future__ import annotations

import importlib.util
import json
import tempfile
from functools import partial
from pathlib import Path

from repro import (
    CallableEvaluator,
    Cluster,
    GB,
    MB,
    MDFBuilder,
    Min,
    Validator,
    observing,
    run_mdf,
)
from repro.cache import ResultCache, SharedCacheStore
from repro.cluster.fault import (
    CheckpointConfig,
    FailureEvent,
    FailureInjector,
    TaskFailureEvent,
)
from repro.engine import EngineConfig
from repro.obs import CONSISTENCY_VIEWS

from ..conftest import build_nested_mdf

GOLDEN_DIR = Path(__file__).resolve().parent
REPO_ROOT = GOLDEN_DIR.parents[1]

GOLDEN_FILES = {
    "quickstart": GOLDEN_DIR / "quickstart.trace.jsonl",
    "explore_choose": GOLDEN_DIR / "explore_choose.trace.jsonl",
    "explore_choose_materialised": GOLDEN_DIR / "explore_choose_materialised.trace.jsonl",
    "explore_choose_noprune": GOLDEN_DIR / "explore_choose_noprune.trace.jsonl",
    "explore_choose_on_master": GOLDEN_DIR / "explore_choose_on_master.trace.jsonl",
    # one representative run per lab scheduler, each over the zoo
    # workload that exercises it hardest (wide reordering for HEFT,
    # sibling speculation for speculative, eviction pressure for work
    # stealing, arbitrary order for the random control)
    "policy_heft": GOLDEN_DIR / "policy_heft.trace.jsonl",
    "policy_speculative": GOLDEN_DIR / "policy_speculative.trace.jsonl",
    "policy_wsteal": GOLDEN_DIR / "policy_wsteal.trace.jsonl",
    "policy_random": GOLDEN_DIR / "policy_random.trace.jsonl",
}


def load_quickstart_module():
    """Import ``examples/quickstart.py`` (not a package) by file path."""
    path = REPO_ROOT / "examples" / "quickstart.py"
    spec = importlib.util.spec_from_file_location("quickstart_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_explore_choose_mdf():
    """Five filter branches, monotone count evaluator, Min selection.

    Sorted thresholds give monotonically rising scores, so the engine
    prunes the tail branches (Table 1); the tight cluster used by
    :func:`record_explore_choose` forces evictions and spills.
    """
    builder = MDFBuilder("golden-explore-choose")
    src = builder.read_data(list(range(1000)), name="src", nominal_bytes=96 * MB)
    evaluator = CallableEvaluator(len, name="count", monotone=True)
    result = src.explore(
        {"threshold": [50, 150, 400, 700, 900]},
        lambda pipe, p: pipe.transform(
            lambda xs, t=p["threshold"]: [x for x in xs if x < t],
            name=f"filter-{p['threshold']}",
        ),
        name="explore-threshold",
    ).choose(evaluator, Min(), name="keep-smallest")
    result.write(name="out")
    return builder.build()


def record_quickstart():
    mdf = load_quickstart_module().build_quickstart_mdf()
    cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
    result = run_mdf(
        mdf, cluster, scheduler="bas", memory="amm", observers=[Validator()]
    )
    return result, cluster


def record_explore_choose(**config):
    mdf = build_explore_choose_mdf()
    cluster = Cluster(num_workers=2, mem_per_worker=48 * MB)
    result = run_mdf(
        mdf, cluster, scheduler="bas", memory="amm",
        config=EngineConfig(**config), observers=[Validator()],
    )
    return result, cluster


def _record_lab_policy(workload_name: str, scheduler: str):
    """One lab-zoo workload under one contender scheduler (validated)."""
    from repro.lab.workloads import get_workload

    with observing(Validator()):
        return get_workload(workload_name).run(scheduler=scheduler, memory="amm")


def record_policy_heft():
    return _record_lab_policy("wide_topk", "heft")


def record_policy_speculative():
    return _record_lab_policy("nested_topk", "speculative")


def record_policy_wsteal():
    return _record_lab_policy("starved_explore", "wsteal")


def record_policy_random():
    return _record_lab_policy("filter_min", "random")


def record_failure_recovery():
    """A transient task failure, then a node crash mid-explore, under
    memory pressure with every second stage checkpointed: the lost
    partitions split between checkpoint reloads and lineage recomputes."""
    cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
    config = EngineConfig(
        checkpointing=CheckpointConfig(2, overhead_fraction=0.1),
        failures=FailureInjector(
            [FailureEvent(4, "worker-0")], [TaskFailureEvent(2, "worker-1", 2)]
        ),
    )
    result = run_mdf(
        build_nested_mdf(), cluster, memory="amm", config=config,
        observers=[Validator()],
    )
    return result, cluster


def record_shared_store_cache():
    """The lab zoo's ``dl_grid`` cold into a shared store, then warm on a
    fresh cluster served from it; the two registries are merged."""
    from repro.lab.workloads import get_workload

    workload = get_workload("dl_grid")
    with tempfile.TemporaryDirectory() as store_dir:
        clusters = []
        for _ in ("cold", "warm"):
            cluster = workload.make_cluster()
            config = workload.make_config()
            config.cache = ResultCache(
                store=SharedCacheStore(store_dir, tenant="golden")
            )
            result = run_mdf(
                workload.make_mdf(), cluster, memory="amm", config=config,
                observers=[Validator()],
            )
            clusters.append(cluster)
    cold, warm = clusters
    cold.obs.merge(warm.obs)
    return result, cold


#: name -> () -> (result, cluster) for every recorded scenario
SCENARIOS = {
    "quickstart": record_quickstart,
    "explore_choose": record_explore_choose,
    "explore_choose_materialised": partial(
        record_explore_choose, incremental_choose=False
    ),
    "explore_choose_noprune": partial(
        record_explore_choose, incremental_choose=False, pruning=False
    ),
    "explore_choose_on_master": partial(
        record_explore_choose, incremental_choose=False, evaluator_on_master=True
    ),
    "policy_heft": record_policy_heft,
    "policy_speculative": record_policy_speculative,
    "policy_wsteal": record_policy_wsteal,
    "policy_random": record_policy_random,
    "failure_recovery": record_failure_recovery,
    "shared_store_cache": record_shared_store_cache,
}

#: the trace-golden scenarios as () -> result (what the trace tests call)
RECORDERS = {
    name: (lambda scenario=SCENARIOS[name]: scenario()[0]) for name in GOLDEN_FILES
}

REGISTRY_FILES = {name: GOLDEN_DIR / f"{name}.registry.json" for name in SCENARIOS}


def registry_views_json(registry) -> str:
    """The registry over every ``CONSISTENCY_VIEWS`` row, canonically.

    Zero-valued series are dropped: an untouched child and an absent one
    are the same fact (``diff_registries`` treats them alike).
    """
    lines = []
    for name, dims in CONSISTENCY_VIEWS:
        series = ",\n".join(
            "  " + json.dumps([list(key), value])
            for key, value in sorted(registry.aggregate(name, dims).items())
            if value
        )
        body = f"[\n{series}\n ]" if series else "[]"
        lines.append(f' "{name}": {{"dims": {json.dumps(list(dims))}, "series": {body}}}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> None:
    for name, scenario in SCENARIOS.items():
        result, cluster = scenario()
        if name in GOLDEN_FILES:
            result.events.save_jsonl(GOLDEN_FILES[name])
            print(f"{name}: {len(result.events)} events -> {GOLDEN_FILES[name]}")
        REGISTRY_FILES[name].write_text(registry_views_json(cluster.obs))
        print(f"{name}: registry views -> {REGISTRY_FILES[name]}")


if __name__ == "__main__":
    main()
