"""LiveMonitor as a run observer and event callable, the bench hook, renderers."""

from __future__ import annotations

import io

import pytest

from repro import Cluster, GB, MDFBuilder, observing, run_mdf
from repro.core.errors import ExecutionError
from repro.engine import EngineConfig
from repro.live import LiveMonitor, RetryStormWatchdog
from repro.live.hook import LiveHook

from ..conftest import build_filter_mdf, build_nested_mdf


def fresh_cluster():
    return Cluster(num_workers=4, mem_per_worker=1 * GB)


class TestRunMdfWiring:
    def test_monitoring_never_changes_the_trace(self):
        """The invariance contract: a monitored run's decisions are
        byte-identical to an unmonitored one's."""
        mdf = build_filter_mdf()
        plain = run_mdf(mdf, fresh_cluster())
        live = run_mdf(mdf, fresh_cluster(), observers=[LiveMonitor()])
        assert live.events.to_jsonl() == plain.events.to_jsonl()
        assert live.completion_time == plain.completion_time

    def test_live_default_is_off(self):
        cluster = fresh_cluster()
        result = run_mdf(build_filter_mdf(), cluster)
        assert result.live is None
        assert cluster.trace.subscribers == []

    def test_live_true_attaches_and_detaches_a_monitor(self):
        """One subscriber while the run lasts, none after."""

        class Probe:
            def begin(self, mdf, cluster, config):
                self.during = cluster.trace.subscribers

            def end(self, result):
                pass

        cluster, monitor, probe = fresh_cluster(), LiveMonitor(), Probe()
        result = run_mdf(build_filter_mdf(), cluster, observers=[monitor, probe])
        assert probe.during == [monitor]
        assert result.live is monitor
        assert cluster.trace.subscribers == []
        assert monitor.plan is not None and monitor.progress.finished

    def test_explicit_monitor_instance_is_used(self):
        buffer = io.StringIO()
        monitor = LiveMonitor(stream=buffer)
        result = run_mdf(build_filter_mdf(), fresh_cluster(), observers=[monitor])
        assert result.live is monitor
        assert buffer.getvalue() == result.events.to_jsonl()

    def test_detach_even_when_the_run_raises(self):
        builder = MDFBuilder("boom")
        builder.read_data([1, 2, 3], name="src").transform(lambda xs: 1 / 0).write()
        cluster = fresh_cluster()
        monitor = LiveMonitor(stream=io.StringIO())
        with pytest.raises(ExecutionError):
            run_mdf(builder.build(), cluster, observers=[monitor])
        assert cluster.trace.subscribers == []
        assert monitor.stream.closed and monitor.progress.finished

    def test_live_keyword_takes_a_sink_and_nothing_else(self):
        for not_a_sink in (True, False, LiveMonitor()):
            with pytest.raises(TypeError, match="NDJSON sink"):
                run_mdf(build_filter_mdf(), fresh_cluster(), live=not_a_sink)


class TestLifecycle:
    def test_attach_twice_is_an_error(self):
        """One monitor observes one run at a time."""
        mdf, cluster = build_filter_mdf(), fresh_cluster()
        monitor = LiveMonitor()
        monitor.begin(mdf, cluster, EngineConfig())
        with pytest.raises(RuntimeError):
            monitor.begin(mdf, fresh_cluster(), EngineConfig())
        monitor.end(None)
        assert cluster.trace.subscribers == []

    def test_detach_is_idempotent(self):
        """A monitor the bus already dropped (one of its consumers raised)
        still ends cleanly: estimator finished, stream closed — and
        complete, because the stream is subscribed on its own."""

        class Broken(RetryStormWatchdog):
            def on_event(self, event):
                raise RuntimeError("watchdog fell over")

        cluster, buffer = fresh_cluster(), io.StringIO()
        monitor = LiveMonitor(stream=buffer, watchdogs=[Broken()])
        result = run_mdf(build_filter_mdf(), cluster, observers=[monitor])
        assert cluster.obs.value("live_subscriber_errors") == 1.0
        assert result.live is monitor
        assert monitor.stream.closed and monitor.progress.finished
        assert buffer.getvalue() == result.events.to_jsonl()

    def test_snapshot_without_a_run_is_trace_only(self):
        """Fed by hand (``python -m repro.live``) there is no plan: counts
        and branch states, no total and no ETA."""
        result = run_mdf(build_filter_mdf(), fresh_cluster())
        monitor = LiveMonitor()
        for event in result.events:
            monitor(event)
        snap = monitor.snapshot()
        assert snap.events_seen == len(result.events)
        assert snap.stages_completed > 0
        assert snap.stages_total is None and snap.eta is None

    def test_catch_up_replay_preserves_byte_identity(self):
        """Beginning on a trace that already holds committed events (a
        warm ``reset=False`` continuation) replays them first, so the
        streamed file still equals the full export."""
        cluster = fresh_cluster()
        for i in range(3):
            cluster.trace.emit("dataset_discarded", dataset=f"early-{i}")
        buffer = io.StringIO()
        monitor = LiveMonitor(stream=buffer)
        monitor.begin(build_filter_mdf(), cluster, EngineConfig())
        for i in range(2):
            cluster.trace.emit("dataset_discarded", dataset=f"late-{i}")
        monitor.end(None)
        assert buffer.getvalue() == cluster.trace.to_jsonl()
        assert monitor.progress.events_seen == 5

    def test_warm_continuation_run_streams_the_whole_trace(self):
        """The engine-level version: run once, then a reset=False rerun
        with a stream — it covers both runs' events."""
        mdf = build_filter_mdf()
        cluster = fresh_cluster()
        run_mdf(mdf, cluster)
        buffer = io.StringIO()
        result = run_mdf(mdf, cluster, reset=False, live=buffer)
        assert buffer.getvalue() == result.events.to_jsonl()


class TestHook:
    def test_hook_records_default_runs(self):
        hook = LiveHook()
        cluster = fresh_cluster()
        with observing(hook):
            result = run_mdf(build_filter_mdf(), cluster)
        assert len(hook.runs) == 1
        assert hook.runs[0].byte_identical
        assert hook.all_byte_identical
        assert hook.alert_kinds() == {}
        assert result.live is hook.runs[0].monitor
        assert run_mdf(build_filter_mdf(), cluster).live is None  # off again

    def test_hook_makes_a_fresh_monitor_per_run(self):
        hook = LiveHook()
        with observing(hook):
            first = run_mdf(build_filter_mdf(), fresh_cluster())
            second = run_mdf(build_nested_mdf(), fresh_cluster())
        assert first.live is not second.live
        assert [r.streamed for r in hook.runs] == [
            first.events.to_jsonl(),
            second.events.to_jsonl(),
        ]


class TestRenderers:
    def run_monitored(self):
        return run_mdf(build_nested_mdf(), fresh_cluster(), observers=[LiveMonitor()])

    def test_progress_line_shape(self):
        result = self.run_monitored()
        line = result.live.progress_line()
        assert "stages" in line
        assert "done @" in line  # finished run renders completion, not ETA
        assert "kept" in line
        assert "0 alerts" in line

    def test_dashboard_lists_every_branch(self):
        result = self.run_monitored()
        board = result.live.dashboard()
        assert board.startswith("repro.live ")
        snap = result.live.snapshot()
        for branch_id in snap.branch_status:
            assert branch_id in board

    def test_dashboard_renders_alerts(self):
        from repro.live.monitor import render_dashboard
        from repro.live.watchdogs import Alert

        result = self.run_monitored()
        snap = result.live.snapshot()
        alert = Alert("stall", 1.0, "stream", "no event for 12.0 wall seconds")
        board = render_dashboard(snap, [alert])
        assert "alerts (1):" in board
        assert "[stall]" in board
