"""The registry's replayable counters are a fold of the trace.

``Trace.emit`` applies the cluster's :class:`~repro.obs.bridge.TraceFold`
to each committed event, so live == replay holds by construction (the
``diff_registries`` tests) and the fold itself is pinned by
``tests/golden/*.registry.json``.  What is asserted here is the wiring:
when the counters move, who can stop them, and that no family is written
twice.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

from repro import Cluster, MB, run_mdf
from repro.obs import CONSISTENCY_VIEWS, MetricsRegistry, registry_from_trace
from repro.obs.bridge import DIRECT_FAMILIES, TraceFold
from repro.service.obs import JOB_VIEW_FAMILIES
from repro.trace import EVENT_SCHEMA, Trace

from ..conftest import build_nested_mdf

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


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
                if name not in DIRECT_FAMILIES:
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
        assert cluster.metrics.tasks_executed > 0  # direct: the trace cannot say

    def test_round_trip_replay_equals_live_at_full_granularity(self):
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        result = run_mdf(build_nested_mdf(), cluster, memory="amm")
        replayed = registry_from_trace(Trace.from_jsonl(result.events.to_jsonl()))
        for name, _ in CONSISTENCY_VIEWS:
            if name in DIRECT_FAMILIES:
                continue
            live = {k: c.value for k, c in cluster.obs.series(name).items()}
            again = {k: c.value for k, c in replayed.series(name).items()}
            assert live == again, name

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
    if family in DIRECT_FAMILIES:
        assert sites, f"{family} is documented as direct but nothing writes it"
    else:
        assert sites == [], f"{family} is folded from the trace; remove {sites}"


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

