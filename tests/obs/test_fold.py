"""The registry's replayable counters are a fold of the trace.

``Trace.emit`` applies the cluster's :class:`~repro.obs.bridge.TraceFold`
to each committed event, so live == replay holds by construction (the
``diff_registries`` tests) and the fold itself is pinned by
``tests/golden/*.registry.json``.  What is asserted here is the wiring:
when the counters move, who can stop them, that no family is written
twice, and that the engine emits and never counts.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

from repro import Cluster, MB, run_mdf
from repro.cluster.stragglers import SpeculationConfig, StragglerProfile
from repro.engine import EngineConfig
from repro.obs import MetricsRegistry, registry_from_trace
from repro.obs.bridge import TraceFold
from repro.service.obs import JOB_VIEW_FAMILIES
from repro.trace import EVENT_SCHEMA, Trace

from ..conftest import build_nested_mdf
from ..golden.regenerate import record_failure_recovery

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: counter families written where they arise, with explicit labels: what a
#: trace does not say (tenants, waits on other processes, corrupt files, the
#: bus about itself).  Every other counter family is a fold of the trace.
DIRECT = {
    "cache_tenant_hits",
    "cache_tenant_misses",
    "cache_cross_tenant_hits",
    "cache_singleflight_waits",
    "cache_corrupt_entries",
    "live_subscriber_errors",
}


def run_nested(config=None):
    cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
    return run_mdf(build_nested_mdf(), cluster, memory="amm", config=config), cluster


#: name -> (() -> (result, cluster), families only that kind of run moves):
#: the runs replay == live is checked on
REPLAY_RUNS = {
    "memory_pressure": (run_nested, {"evictions"}),
    # a task retry, then a node crash, every second stage checkpointed
    "failure_recovery": (record_failure_recovery, {"stages_reexecuted", "task_retries"}),
    "stragglers": (
        lambda: run_nested(
            EngineConfig(
                stragglers=StragglerProfile({"worker-1": 3.0}),
                speculation=SpeculationConfig(enabled=True),
            )
        ),
        {"speculative_tasks"},
    ),
}


def counter_totals(registry):
    return {
        name: registry.value(name)
        for name in registry.names()
        if registry.kind_of(name) == "counter"
    }


class TestLiveWritePath:
    def test_subscriber_sees_counters_through_its_event(self):
        """The fold runs after the append and before the subscribers: at
        event N the live counters equal a replay of events 0..N."""
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        checked = []

        def check(event):
            if event.seq % 7:  # every 7th event is plenty (replay is O(N))
                return
            prefix = Trace()
            prefix.events = cluster.trace.events[: event.seq + 1]
            replayed = counter_totals(registry_from_trace(prefix))
            live = counter_totals(cluster.obs)
            for name, value in replayed.items():
                assert live.get(name, 0.0) == value, (event.seq, name)
            checked.append(event.seq)

        cluster.trace.subscribe(check)
        run_mdf(build_nested_mdf(), cluster, memory="amm", reset=False)
        assert len(checked) > 10
        assert cluster.obs.value("live_subscriber_errors") == 0

    def test_raising_subscriber_is_detached_and_counters_keep_counting(self):
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)

        def broken(event):
            raise RuntimeError("dashboard bug")

        cluster.trace.subscribe(broken)
        result = run_mdf(build_nested_mdf(), cluster, memory="amm", reset=False)
        assert cluster.trace.subscribers == []
        assert cluster.obs.value("live_subscriber_errors") == 1
        clean = Cluster(num_workers=4, mem_per_worker=64 * MB)
        run_mdf(build_nested_mdf(), clean, memory="amm")
        assert result.metrics.as_dict() == clean.metrics.as_dict()
        assert result.metrics.evictions > 0

    def test_fold_is_not_a_subscriber(self):
        cluster = Cluster(num_workers=2)
        assert cluster.trace.subscribers == []
        assert cluster.trace.fold is not None
        cluster.reset()
        assert cluster.trace.fold is not None

    def test_disabled_trace_stops_the_folded_counters(self):
        cluster = Cluster(num_workers=2)
        cluster.trace.enabled = False
        run_mdf(build_nested_mdf(), cluster, reset=False)
        assert cluster.metrics.stages_executed == 0
        assert cluster.metrics.tasks_executed == 0

    def test_round_trip_replay_equals_live_at_full_granularity(self):
        """Every counter family of the live registry but the direct ones,
        child by child — including the per-node seconds and task counts."""
        for run, (record, exercised) in REPLAY_RUNS.items():
            result, cluster = record()
            replayed = registry_from_trace(Trace.from_jsonl(result.events.to_jsonl()))
            families = {
                name
                for name in cluster.obs.names()
                if cluster.obs.kind_of(name) == "counter"
            } - DIRECT
            assert {"time_io", "time_compute", "tasks_executed"} | exercised <= families, run
            for name in sorted(families):
                live = {k: c.value for k, c in cluster.obs.series(name).items()}
                again = {k: c.value for k, c in replayed.series(name).items()}
                assert live == again, (run, name)

    def test_fold_refuses_a_registry_of_other_dimensions(self):
        with pytest.raises(ValueError, match="engine dimensions"):
            TraceFold(MetricsRegistry(label_names=("tenant", "workload")))


@pytest.mark.parametrize("family", JOB_VIEW_FAMILIES)
def test_folded_family_has_no_direct_call_site(family):
    """A family written by the fold *and* at a call site would double-count."""
    pattern = re.compile(r"\.counter\(\s*f?[\"']" + re.escape(family) + r"[\"']")
    sites = [
        str(path.relative_to(SRC))
        for package in ("cluster", "engine", "cache")
        for path in sorted((SRC / package).rglob("*.py"))
        if pattern.search(path.read_text())
    ]
    assert sites == [], f"{family} is folded from the trace; remove {sites}"


def test_engine_emits_and_never_counts():
    """Under ``repro.engine`` nothing touches a counter or pushes ambient
    labels; the registry is reached for one gauge and one histogram, both
    with explicit labels and both read (timeline sampler; recovery tests)."""
    source = "".join(
        path.read_text() for path in sorted((SRC / "engine").rglob("*.py"))
    )
    assert ".counter(" not in source
    assert "label_context(" not in source
    assert re.findall(r"\.gauge\(\s*\"(\w+)\"", source) == ["live_branches"]
    assert re.findall(r"\.histogram\(\s*\"(\w+)\"", source) == ["recovery_seconds"]
    assert source.count(".gauge(") == source.count(".histogram(") == 1


def test_master_and_executor_emit_each_event_kind_at_one_site():
    """One rule, one emit: a second ``trace.emit("kind", ...)`` in the
    master or the executor is a second copy of the rule that emits it
    (the choose protocol had two of each of its three kinds)."""
    source = "".join(
        (SRC / "engine" / name).read_text() for name in ("master.py", "executor.py")
    )
    sites = Counter(re.findall(r"trace\.emit\(\s*\"(\w+)\"", source))
    assert sum(sites.values()) == source.count("trace.emit("), "an emit with a computed kind"
    assert set(sites) <= set(EVENT_SCHEMA)
    assert {"choose_evaluation", "branch_evaluated", "branch_discarded"} <= set(sites)
    assert {kind: n for kind, n in sites.items() if n != 1} == {}

