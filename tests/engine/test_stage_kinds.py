"""The stage-kind seam: every kind through every way a stage can run.

``StageExecutor.execute`` is the one path a source, narrow, wide or join
stage takes — cold, served from either cache tier, deferred as a branch
tail under incremental choose, or re-entered by lineage recovery.  Each
cell of kind × scenario must leave the sink outputs equal to the cold solo
run's, the trace validator-clean and the live registry reconstructible
from the trace.
"""

import functools

import pytest

from repro import (
    CallableEvaluator,
    Cluster,
    FailureInjector,
    GB,
    MB,
    MDFBuilder,
    Max,
    ResultCache,
    run_mdf,
    validate_trace,
)
from repro.cache import SharedCacheStore
from repro.core.builder import Pipe
from repro.core.stages import StageGraph
from repro.engine import EngineConfig
from repro.obs.bridge import diff_registries, registry_from_trace
from repro.service import outputs_digest

KINDS = ("source", "narrow", "wide", "join")
SCENARIOS = ("cold", "cluster_hit", "store_hit", "deferred_tail", "recovery")


def kind_mdf(kind):
    """src → explore{m: 3,1,2} → choose(Max of sum) → sink, whose three
    branch tails are stages of ``kind`` (``source``: the job input itself,
    read by three narrow branches).  The first branch wins, so under
    incremental choose the other two tails are never stored."""
    b = MDFBuilder(f"kind-{kind}")
    src = b.read_data(list(range(60)), name="src", nominal_bytes=32 * MB)
    ref = b.read_data([100], name="ref", nominal_bytes=MB) if kind == "join" else None

    def body(pipe, p):
        m = p["m"]
        if kind == "wide":
            return pipe.aggregate(lambda xs, m=m: [sum(xs) * m], name=f"agg-{m}")
        scaled = pipe.transform(lambda xs, m=m: [x * m for x in xs], name=f"scale-{m}")
        if kind == "join":
            return scaled.join(
                Pipe(b, ref.op), lambda l, r: [x + r[0] for x in l], name=f"join-{m}"
            )
        return scaled

    src.explore({"m": [3, 1, 2]}, body, name="exp").choose(
        CallableEvaluator(lambda xs: float(sum(xs)), name="sum"), Max(), name="ch"
    ).write(name="out")
    return b.build()


def fresh_cluster():
    return Cluster(2, 1 * GB)


@functools.lru_cache(maxsize=None)
def cold_digest(kind):
    result = run_mdf(kind_mdf(kind), fresh_cluster(), config=EngineConfig(pruning=False))
    return outputs_digest(result.outputs)


def run_scenario(kind, scenario, tmp_path):
    """Run ``kind``'s MDF under ``scenario``; returns (result, cluster)."""
    cluster = fresh_cluster()
    if scenario in ("cold", "deferred_tail"):
        # incremental choose is the default: branch tails defer their store
        config = EngineConfig(pruning=False)
    elif scenario == "cluster_hit":
        config = EngineConfig(pruning=False, cache=ResultCache(cost_based=False))
        run_mdf(kind_mdf(kind), cluster, config=config)
        return run_mdf(kind_mdf(kind), cluster, config=config, reset=False), cluster
    elif scenario == "store_hit":
        # a fresh cluster and a fresh ResultCache over the same directory:
        # only the store tier can serve the second run
        def store_config():
            store = SharedCacheStore(str(tmp_path))
            return EngineConfig(
                pruning=False, cache=ResultCache(store=store, cost_based=False)
            )

        run_mdf(kind_mdf(kind), fresh_cluster(), config=store_config())
        config = store_config()
    else:
        # kill a worker once every branch tail has run (the choose's turn),
        # or right after the source for the source kind
        stages = StageGraph(kind_mdf(kind)).stages
        index = 1 if kind == "source" else len(stages) - 2
        failures = FailureInjector.at_stages([(index, "worker-0")])
        config = EngineConfig(pruning=False, failures=failures)
    return run_mdf(kind_mdf(kind), cluster, config=config), cluster


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("kind", KINDS)
def test_kind_by_scenario(kind, scenario, tmp_path):
    result, cluster = run_scenario(kind, scenario, tmp_path)
    events = result.events
    of_kind = {s.id for s in StageGraph(kind_mdf(kind)).stages if s.kind == kind}
    assert of_kind

    # the scenario really exercised a stage of this kind
    if scenario == "cold":
        ran = {e.data["stage"] for e in events if e.kind == "stage_completed"}
        assert of_kind <= ran
    elif scenario in ("cluster_hit", "store_hit"):
        tier = "cluster" if scenario == "cluster_hit" else "store"
        served = {
            e.data["stage"]
            for e in events
            if e.kind == "cache_hit" and e.data["tier"] == tier
        }
        assert served & of_kind
    elif scenario == "deferred_tail":
        pipelined = [
            e for e in events if e.kind == "branch_evaluated" and e.data["pipelined"]
        ]
        stored = {e.data["dataset"] for e in events if e.kind == "dataset_registered"}
        assert len(pipelined) == 3  # every branch tail was scored unstored
        if kind == "source":
            assert "d:src" in stored  # a source has no input: it never defers
        else:
            # only the winner is materialised: a losing tail is never stored
            tails = {
                f"d:{s.tail.name}"
                for s in StageGraph(kind_mdf(kind)).stages
                if s.id in of_kind and s.branch_id
            }
            assert len(tails) == 3 and len(tails & stored) == 1
    else:
        rerun = {e.data["stage"] for e in events if e.kind == "stage_reexecuted"}
        assert rerun & of_kind

    assert outputs_digest(result.outputs) == cold_digest(kind)
    assert validate_trace(events) == []
    assert diff_registries(cluster.obs, registry_from_trace(events)) == []
