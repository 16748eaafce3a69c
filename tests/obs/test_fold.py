"""The registry's replayable counters are a fold of the trace.

A cluster's registry folds its trace's events with
:class:`~repro.obs.bridge.TraceFold` when it is read — every event up to
the read, in order, each once — so live == replay holds by construction
(the ``diff_registries`` tests) and the fold itself is pinned by
``tests/golden/*.registry.json``.  What is asserted here is the wiring:
when the counters move, who can stop them, that a run nobody reads pays
no fold, that no family is written twice, and that the engine emits and
never counts.
"""

import gc
import re
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, MB, run_mdf
from repro.cluster.stragglers import SpeculationConfig, StragglerProfile
from repro.engine import EngineConfig
from repro.obs import MetricsRegistry, bridge, diff_registries, registry_from_trace
from repro.obs.bridge import TraceFold, registry_categories
from repro.service.obs import JOB_VIEW_FAMILIES
from repro.trace import EVENT_SCHEMA, Trace

from ..conftest import build_nested_mdf
from ..golden.regenerate import record_failure_recovery

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: counter families written where they arise, with explicit labels: what a
#: trace does not say (the bus about itself).  Every other counter family is
#: a fold of the trace.
DIRECT = {"live_subscriber_errors"}


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
        """The counters follow the trace with no subscriber attached, so
        nothing can detach them, and a reset wires the new registry to the
        new trace."""
        cluster = Cluster(num_workers=2)
        for _ in range(2):
            assert cluster.trace.subscribers == []
            assert cluster.obs.value("datasets_discarded") == 0
            cluster.trace.emit("dataset_discarded", dataset="d:a")
            assert cluster.obs.value("datasets_discarded") == 1
            cluster.reset()

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



class TestFoldWritesCells:
    def test_negative_amount_from_an_event_is_refused(self):
        """The check ``Counter.inc`` makes, on every amount read from an
        event — through the inlined arms and the shared one alike."""
        span = dict(
            activity="checkpoint", branch=None, started=0.0, finished=1.0,
            io=1.0, compute=0.0, network=0.0, overhead=0.0,
            per_node_io={"worker-0": -1.0}, per_node_compute={},
            per_node_tasks={}, speculative_tasks=0,
        )
        for kind, data in (
            ("dataset_access", dict(dataset="d", index=0, node="worker-0", hit=True,
                                    nbytes=-1, seconds=0.0, reload=False)),
            ("partition_stored", dict(dataset="d", index=0, node="worker-0", nbytes=-1,
                                      tier="memory")),
            ("task_retried", dict(node="worker-0", attempts=-1, seconds=0.0)),
            ("span", span),
            ("span", {**span, "per_node_io": {}, "io": -1.0, "finished": -1.0}),
        ):
            cluster = Cluster(num_workers=2)
            with pytest.raises(ValueError, match="counter increments must be >= 0"):
                cluster.trace.emit(kind, **data)

    def test_apply_is_a_dispatch_table_over_schema_kinds(self):
        assert set(bridge._ARMS) <= set(EVENT_SCHEMA)
        assert {"dataset_access", "span", "composite_registered", "cache_hit"} <= set(bridge._ARMS)
        source = (SRC / "obs" / "bridge.py").read_text()
        assert "elif kind ==" not in source and "def _inc" not in source


# ---- the fold against the call-by-call reference (hypothesis) -----------
NODES = st.sampled_from(["worker-0", "worker-1", "worker-2"])
SECONDS = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
PER_NODE_SECONDS = st.dictionaries(NODES, SECONDS, max_size=3)
FIELDS = {
    "node": NODES,
    "dataset": st.sampled_from(["d:a", "d:b", "d:c"]),
    "stage": st.sampled_from(["s0", "s1", "s2"]),
    "branch": st.sampled_from([None, "b0", "b1"]),
    "rationale": st.sampled_from([None, "hint", "successor"]),
    "policy": st.sampled_from(["amm", "lru"]),
    "tier": st.sampled_from(["memory", "disk"]),
    "activity": st.sampled_from(
        ["choose_evaluation", "store_commit", "checkpoint", "recovery_reload"]
    ),
    "action": st.sampled_from(["reload", "recompute", "dropped"]),
    "members": st.lists(st.sampled_from(["d:a", "d:b", "d:c"]), max_size=2),
    "nbytes": st.integers(min_value=0, max_value=1 << 40),
    "attempts": st.integers(min_value=0, max_value=3),
    "speculative_tasks": st.integers(min_value=0, max_value=2),
    "per_node_tasks": st.dictionaries(NODES, st.integers(min_value=0, max_value=3)),
    "per_node_io": PER_NODE_SECONDS,
    "per_node_compute": PER_NODE_SECONDS,
    **{name: SECONDS for name in ("io", "compute", "network", "overhead",
                                  "seconds", "saved_seconds")},
    **{name: st.booleans() for name in ("hit", "spilled", "reload", "pipelined")},
}


@st.composite
def events(draw):
    kind = draw(st.sampled_from(sorted(EVENT_SCHEMA)))
    return kind, {
        field: draw(FIELDS.get(field, st.none())) for field in sorted(EVENT_SCHEMA[kind])
    }


class ReferenceFold:
    """The event -> counter rules written the slow way: one
    ``registry.counter(name, **labels).inc(amount)`` per increment, labels
    by keyword, stage and branch defaulting to the last scheduled stage."""

    def __init__(self):
        self.registry = MetricsRegistry()
        self.stage = self.branch = None
        self.live = set()
        self.reexec_pending = {}

    def inc(self, name, amount=1.0, stage=None, branch=None, **labels):
        self.registry.counter(
            name, stage=stage or self.stage, branch=branch or self.branch, **labels
        ).inc(amount)

    def span(self, data, activity=None, recovery=False):
        categories = registry_categories(
            data["io"], data["compute"], data["network"], data["overhead"],
            activity=activity, recovery=recovery,
        )
        for category, seconds in categories.items():
            self.inc(f"profile_{category}_seconds", seconds)
        for node, seconds in data["per_node_io"].items():
            self.inc("time_io", seconds, node=node)
        for node, seconds in data["per_node_compute"].items():
            self.inc("time_compute", seconds, node=node)
        if data["network"]:
            self.inc("time_network", data["network"])
        for node, count in data["per_node_tasks"].items():
            if count:
                self.inc("tasks_executed", count, node=node)
        if data["speculative_tasks"]:
            self.inc("speculative_tasks", data["speculative_tasks"])

    def apply(self, kind, data):
        at = {"node": data.get("node"), "dataset": data.get("dataset")}
        if kind == "dataset_access":
            self.inc("partition_hits" if data["hit"] else "partition_misses", **at)
            self.inc("bytes_read_memory" if data["hit"] else "bytes_read_disk",
                     data["nbytes"], **at)
        elif kind == "partition_stored":
            self.inc(f"bytes_written_{data['tier']}", data["nbytes"], **at)
        elif kind == "stage_scheduled":
            self.stage, self.branch = data["stage"], data["branch"]
            self.inc("scheduler_selections", policy=data["rationale"])
        elif kind == "task_dispatched":
            self.inc("stages_executed", stage=data["stage"])
        elif kind == "stage_completed":
            recovery = self.reexec_pending.get(data["stage"], 0) > 0
            if recovery:
                self.reexec_pending[data["stage"]] -= 1
            self.span(data, recovery=recovery)
        elif kind == "span":
            self.span(data, activity=data["activity"])
        elif kind == "source_read":
            self.inc("bytes_read_disk", data["nbytes"], **at)
        elif kind == "partition_evicted":
            self.inc("evictions", policy=data["policy"], **at)
            if data["spilled"]:
                self.inc("bytes_written_disk", data["nbytes"], **at)
            else:
                self.inc("evictions_free", policy=data["policy"], **at)
        elif kind == "checkpoint_written":
            self.inc("bytes_written_disk", data["nbytes"], dataset=data["dataset"])
        elif kind in ("dataset_registered", "composite_registered"):
            self.live.add(data["dataset"])
            self.live.difference_update(data.get("members", ()))
            self.registry.gauge("peak_datasets_stored").set_max(len(self.live))
        elif kind == "dataset_discarded":
            self.live.discard(data["dataset"])
            self.inc("datasets_discarded", dataset=data["dataset"])
        elif kind == "choose_evaluation":
            self.inc("choose_evaluations", dataset=data["dataset"])
        elif kind == "branch_evaluated":
            self.inc("branches_executed", branch=data["branch"])
        elif kind == "branch_pruned":
            self.inc("branches_pruned", branch=data["branch"])
        elif kind in ("node_failed", "recovery_started"):
            self.stage = self.branch = None
        elif kind == "stage_reexecuted":
            self.stage, self.branch = data["stage"], data["branch"]
            self.reexec_pending[self.stage] = self.reexec_pending.get(self.stage, 0) + 1
            self.inc("stages_reexecuted")
        elif kind == "recovery":
            if data["action"] in ("reload", "recompute"):
                self.inc("recoveries", node=data["node"])
            if data["action"] == "recompute":
                self.inc("recovery_reexecutions", node=data["node"])
            elif data["action"] == "reload":
                self.inc("bytes_read_disk", data["nbytes"], **at)
        elif kind == "task_retried":
            self.inc("task_retries", data["attempts"], node=data["node"])
        elif kind == "cache_hit":
            at = {"dataset": data["dataset"], "policy": data["tier"]}
            self.inc("cache_hits", **at)
            self.inc("cache_bytes_saved", data["nbytes"], **at)
            self.inc("cache_compute_seconds_saved", data["saved_seconds"], **at)
        elif kind == "cache_miss":
            self.inc("cache_misses")
        elif kind == "cache_admit":
            self.inc("cache_admissions", dataset=data["dataset"], policy=data["tier"])
        elif kind == "cache_invalidate":
            self.inc("cache_invalidations", dataset=data["dataset"])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(events(), st.booleans()), max_size=40))
def test_fold_equals_counter_inc_call_by_call(sequence):
    """Any schema-valid event sequence folds into exactly the cells that
    incrementing through ``registry.counter(...).inc()`` gives — equal
    floats, not close ones: the same additions in the same order, however
    the reads that trigger the fold fall between the events."""
    trace = Trace()
    registry = MetricsRegistry()
    registry.fold_from(trace.events, TraceFold(registry))
    reference = ReferenceFold()
    for (kind, data), read in sequence:
        trace.emit(kind, **data)
        reference.apply(kind, data)
        if read:
            registry.names()
    assert registry.snapshot() == reference.registry.snapshot()


# ---- fold on read ----------------------------------------------------------
@pytest.fixture
def folded(monkeypatch):
    """Spy on the fold: the seqs of each batch it is handed, and the
    number of arms it applies."""
    batches, arms = [], Counter()
    fold = TraceFold.fold

    def spy_fold(self, events, registry):
        batches.append([event.seq for event in events])
        fold(self, events, registry)

    def spy(kind, arm):
        def counted(self, data, registry):
            arms[kind] += 1
            arm(self, data, registry)

        return counted

    monkeypatch.setattr(TraceFold, "fold", spy_fold)
    for kind, arm in list(bridge._ARMS.items()):
        monkeypatch.setitem(bridge._ARMS, kind, spy(kind, arm))
    return batches, arms


class TestFoldOnRead:
    def test_an_unread_run_applies_no_arm(self, folded):
        batches, arms = folded
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        result = run_mdf(build_nested_mdf(), cluster, memory="amm")
        assert len(result.events) > 100
        assert batches == [] and sum(arms.values()) == 0

    def test_first_access_folds_each_event_once_and_a_second_folds_none(self, folded):
        batches, arms = folded
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        result = run_mdf(build_nested_mdf(), cluster, memory="amm")
        evictions = result.metrics.evictions
        assert evictions > 0
        assert batches == [list(range(len(result.events)))]
        applied = sum(arms.values())
        assert applied == sum(event.kind in bridge._ARMS for event in result.events)
        assert cluster.obs.snapshot() and result.metrics.evictions == evictions
        assert len(batches) == 1 and sum(arms.values()) == applied

    def test_reset_starts_a_new_cursor_and_a_continuation_resumes_it(self, folded):
        batches, _ = folded
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        first = run_mdf(build_nested_mdf(), cluster, memory="amm")
        first.metrics.tasks_executed
        second = run_mdf(build_nested_mdf(), cluster, memory="amm", reset=False)
        second.metrics.tasks_executed
        assert [batch[0] for batch in batches] == [0, second.seqs.start]
        assert sum(batches, []) == list(range(len(cluster.trace)))
        assert diff_registries(cluster.obs, registry_from_trace(cluster.trace)) == []
        batches.clear()
        cluster.reset()
        third = run_mdf(build_nested_mdf(), cluster, memory="amm", reset=False)
        third.metrics.tasks_executed
        assert batches == [list(range(len(third.events)))]

    def test_a_negative_amount_is_refused_before_the_append(self):
        cluster = Cluster(num_workers=2)
        with pytest.raises(ValueError, match="counter increments must be >= 0"):
            cluster.trace.emit("source_read", dataset="d", index=0, node="worker-0", nbytes=-1)
        assert len(cluster.trace) == 0 and cluster.obs.value("bytes_read_disk") == 0

    def test_a_handle_reads_its_cell_as_of_the_access_that_made_it(self):
        cluster = Cluster(num_workers=2)
        cluster.trace.emit("dataset_discarded", dataset="d:a")
        handle = cluster.obs.counter("datasets_discarded", dataset="d:a")
        cluster.trace.emit("dataset_discarded", dataset="d:a")
        assert handle.value == 1
        assert cluster.obs.counter("datasets_discarded", dataset="d:a").value == 2
        assert handle.value == 2


def test_a_finished_run_leaves_no_reference_cycle():
    """With the cyclic GC off, dropping a cluster after a run frees its
    registry and trace: nothing the run built points back at them."""
    gc.collect()
    gc.disable()
    try:
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        result = run_mdf(build_nested_mdf(), cluster, memory="amm")
        assert result.metrics.evictions > 0
        registry, trace = weakref.ref(cluster.obs), weakref.ref(cluster.trace)
        del cluster, result
        assert registry() is None and trace() is None
    finally:
        gc.enable()
