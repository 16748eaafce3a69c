"""Tests for the top-level run_mdf API and its one observer seam."""

import inspect
import io

import pytest

from repro import (
    Cluster,
    GB,
    InvariantViolation,
    LiveMonitor,
    StreamWriter,
    TimelineSampler,
    Validator,
    observing,
    validate_trace,
)
from repro.cluster.memory import AMMPolicy, LRUPolicy
from repro.engine import BFSScheduler, BranchAwareScheduler, EngineConfig, run_mdf
from repro.engine import runner
from repro.engine.runner import make_scheduler
from repro.live import LiveHook
from repro.prof import ProfileCollector

from ..conftest import build_nested_mdf
from ..trace.test_validators import BrokenBAS


class TestMakeScheduler:
    def test_bfs(self):
        assert isinstance(make_scheduler("bfs"), BFSScheduler)

    def test_bas(self):
        assert isinstance(make_scheduler("bas"), BranchAwareScheduler)

    def test_bas_inherits_hint(self):
        from repro.engine import RandomHint

        config = EngineConfig(hint=RandomHint(0))
        sched = make_scheduler("bas", config)
        assert isinstance(sched.hint, RandomHint)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("dfs")


class TestRunMdf:
    def test_returns_result(self, small_cluster, filter_mdf):
        result = run_mdf(filter_mdf, small_cluster)
        assert result.completion_time > 0
        assert result.output == list(range(10))

    def test_scheduler_objects_accepted(self, small_cluster, filter_mdf):
        result = run_mdf(filter_mdf, small_cluster, scheduler=BFSScheduler())
        assert result.output == list(range(10))

    def test_memory_string(self, small_cluster, filter_mdf):
        run_mdf(filter_mdf, small_cluster, memory="amm")
        assert isinstance(small_cluster.policy, AMMPolicy)

    def test_memory_object(self, small_cluster, filter_mdf):
        policy = LRUPolicy()
        run_mdf(filter_mdf, small_cluster, memory=policy)
        assert small_cluster.policy is policy

    def test_memory_none_keeps_policy(self, filter_mdf):
        cluster = Cluster(2, 1 * GB, policy=AMMPolicy())
        run_mdf(filter_mdf, cluster, memory=None)
        assert isinstance(cluster.policy, AMMPolicy)

    def test_reset_clears_state(self, small_cluster, filter_mdf):
        run_mdf(filter_mdf, small_cluster)
        t1 = small_cluster.clock.now
        result = run_mdf(filter_mdf, small_cluster)  # reset=True default
        assert result.completion_time == pytest.approx(t1)

    def test_no_reset_continues_clock(self, small_cluster, filter_mdf):
        first = run_mdf(filter_mdf, small_cluster)
        second = run_mdf(filter_mdf, small_cluster, reset=False)
        assert second.completion_time > first.completion_time

    def test_deterministic(self, filter_mdf):
        a = run_mdf(filter_mdf, Cluster(4, 1 * GB))
        b = run_mdf(filter_mdf, Cluster(4, 1 * GB))
        assert a.completion_time == b.completion_time
        assert a.output == b.output

    def test_decisions_recorded(self, small_cluster, filter_mdf):
        result = run_mdf(filter_mdf, small_cluster)
        decision = result.decision_for("choose-min")
        assert len(decision.scores) == 3
        assert decision.kept  # one winner

    def test_trace_recorded(self, small_cluster, filter_mdf):
        result = run_mdf(filter_mdf, small_cluster)
        stages = result.events.filter("stage_completed")
        assert stages
        assert stages[0].data["started"] <= stages[0].data["finished"]

    def test_invalid_mdf_rejected(self, small_cluster):
        from repro.core.mdf import MDF
        from repro.core.errors import MDFError

        with pytest.raises(MDFError):
            run_mdf(MDF("empty"), small_cluster)


# ------------------------------------------------------------- the run seam


class Recorder:
    """A minimal observer: logs its own begin/end into a shared list."""

    def __init__(self, name, log, fail_in=None):
        self.name, self.log, self.fail_in = name, log, fail_in

    def begin(self, mdf, cluster, config):
        self.log.append(("begin", self.name))
        if self.fail_in == "begin":
            raise RuntimeError(f"{self.name} refused")

    def end(self, result):
        self.log.append(("end", self.name, result is not None))
        if self.fail_in == "end":
            raise RuntimeError(f"{self.name} fell over")


def nested_mdf():
    return build_nested_mdf(outer=(2, 3, 5), inner=(7, 11))


def stream_equals_export(sink):
    return lambda observer, result: sink.getvalue() == result.events.to_jsonl()


def _shipped_observers():
    """Fresh ``name -> (observer, artifact_ok(observer, result))`` for every
    observer the package ships."""
    buffer, monitored = io.StringIO(), io.StringIO()
    return {
        "validator": (Validator(), lambda o, r: validate_trace(r.events) == []),
        "sampler": (
            TimelineSampler(interval=0.05),
            lambda o, r: r.telemetry.timeline is o and len(r.telemetry.samples) >= 2,
        ),
        "monitor": (
            LiveMonitor(stream=monitored),
            lambda o, r: r.live is o
            and r.live.alerts == []
            and o.snapshot().eta == r.completion_time
            and stream_equals_export(monitored)(o, r),
        ),
        "stream": (StreamWriter(buffer), stream_equals_export(buffer)),
        "collector": (
            ProfileCollector(),
            lambda o, r: [p.makespan for p in o.profiles] == [r.completion_time],
        ),
        "hook": (
            LiveHook(),
            lambda o, r: len(o.runs) == 1
            and o.all_byte_identical
            and r.live is o.runs[0].monitor,
        ),
    }


SHIPPED = sorted(_shipped_observers())


class TestObservers:
    def test_signature_names_no_feature(self):
        assert list(inspect.signature(run_mdf).parameters) == [
            "mdf", "cluster", "scheduler", "memory", "config", "reset",
            "observers", "live", "backend",
        ]

    @pytest.mark.parametrize("how", ["observers=", "observing()"])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_every_shipped_observer(self, name, how):
        """Observed trace == unobserved trace, byte for byte, and the
        observer's artifact is there — through either door."""
        plain = run_mdf(nested_mdf(), Cluster(4, 1 * GB))
        observer, artifact_ok = _shipped_observers()[name]
        cluster = Cluster(4, 1 * GB)
        if how == "observers=":
            result = run_mdf(nested_mdf(), cluster, observers=[observer])
        else:
            with observing(observer):
                result = run_mdf(nested_mdf(), cluster)
        assert result.events.to_jsonl() == plain.events.to_jsonl()
        assert artifact_ok(observer, result)
        assert cluster.trace.subscribers == [] and not cluster.clock._subscribers

    @pytest.mark.parametrize("name", ["stream", "monitor", "hook"])
    def test_streams_catch_up_on_a_warm_continuation(self, name):
        """``reset=False`` joins a trace that already holds events: the
        stream still equals the whole export."""
        cluster = Cluster(4, 1 * GB)
        run_mdf(nested_mdf(), cluster)
        observer, artifact_ok = _shipped_observers()[name]
        result = run_mdf(nested_mdf(), cluster, reset=False, observers=[observer])
        assert artifact_ok(observer, result)

    @pytest.mark.parametrize("how", ["observers=", "observing()"])
    def test_validator_raises_on_a_broken_scheduler(self, how):
        with pytest.raises(InvariantViolation):
            if how == "observers=":
                run_mdf(
                    nested_mdf(), Cluster(4, 1 * GB), scheduler=BrokenBAS(),
                    observers=[Validator()],
                )
            else:
                with observing(Validator()):
                    run_mdf(nested_mdf(), Cluster(4, 1 * GB), scheduler=BrokenBAS())

    def test_ambient_first_and_end_in_reverse(self, small_cluster, filter_mdf):
        log = []
        a, b, c = (Recorder(n, log) for n in "abc")
        with observing(a):
            run_mdf(filter_mdf, small_cluster, observers=[b, c])
        assert log == [
            ("begin", "a"), ("begin", "b"), ("begin", "c"),
            ("end", "c", True), ("end", "b", True), ("end", "a", True),
        ]

    def test_nested_observing_restores_the_outer_list(self):
        a, b = Recorder("a", []), Recorder("b", [])
        assert runner._ambient == []
        with observing(a):
            with observing(b):
                assert runner._ambient == [a, b]
            assert runner._ambient == [a]
            with pytest.raises(KeyError):
                with observing(b):
                    raise KeyError("inside")
            assert runner._ambient == [a]
        assert runner._ambient == []

    def test_a_raising_end_does_not_skip_the_others(self, small_cluster, filter_mdf):
        log = []
        observers = [Recorder("a", log), Recorder("b", log, fail_in="end")]
        with pytest.raises(RuntimeError, match="b fell over"):
            run_mdf(filter_mdf, small_cluster, observers=observers)
        assert log[-2:] == [("end", "b", True), ("end", "a", True)]

    def test_a_refusing_begin_ends_only_what_began(self, small_cluster, filter_mdf):
        log = []
        observers = [
            Recorder("a", log), Recorder("b", log, fail_in="begin"), Recorder("c", log),
        ]
        with pytest.raises(RuntimeError, match="b refused"):
            run_mdf(filter_mdf, small_cluster, observers=observers)
        assert log == [("begin", "a"), ("begin", "b"), ("end", "a", False)]

    def test_failed_construction_leaves_nothing_attached(self, tmp_path, filter_mdf):
        """The Master is built inside the seam: when it refuses (unknown
        backend), every observer still ends — nothing subscribed, stream
        closed — and the same objects serve the next run."""
        cluster = Cluster(4, 1 * GB)
        path = tmp_path / "run.ndjson"
        log = []
        observers = [
            TimelineSampler(),
            LiveMonitor(stream=io.StringIO()),
            StreamWriter(path),
            Recorder("last", log),
        ]
        sampler, monitor, writer, _ = observers
        with pytest.raises(ValueError, match="nope"):
            run_mdf(filter_mdf, cluster, backend="nope", observers=observers)
        assert log == [("begin", "last"), ("end", "last", False)]
        assert cluster.trace.subscribers == []
        assert not cluster.clock._subscribers
        assert writer.closed and monitor.stream.closed
        result = run_mdf(filter_mdf, cluster, observers=observers)
        assert result.live is monitor and result.telemetry.timeline is sampler
        assert path.read_text() == result.events.to_jsonl()
        assert cluster.trace.subscribers == []
