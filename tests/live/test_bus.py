"""The trace subscriber bus: ordering, isolation, and the emit contract."""

from __future__ import annotations

import pytest

from repro import Cluster, GB, run_mdf
from repro.trace import Trace, TraceEvent

from ..conftest import build_filter_mdf


def make_trace():
    """A standalone strict trace with a manual clock."""

    class FakeClock:
        now = 0.0

    return Trace(clock=FakeClock())


def emit_read(trace, name="d0"):
    return trace.emit("dataset_discarded", dataset=name)


class TestSubscription:
    def test_subscriber_sees_committed_events_in_order(self):
        trace = make_trace()
        seen = []
        trace.subscribe(seen.append)
        for i in range(5):
            emit_read(trace, name=f"d{i}")
        assert seen == trace.events
        assert [e.data["dataset"] for e in seen] == [f"d{i}" for i in range(5)]

    def test_subscribers_run_in_registration_order(self):
        trace = make_trace()
        calls = []
        trace.subscribe(lambda e: calls.append("first"))
        trace.subscribe(lambda e: calls.append("second"))
        emit_read(trace)
        assert calls == ["first", "second"]

    def test_duplicate_subscribe_is_an_error(self):
        trace = make_trace()
        cb = trace.subscribe(lambda e: None)
        with pytest.raises(ValueError):
            trace.subscribe(cb)

    def test_unsubscribe_reports_membership(self):
        trace = make_trace()
        cb = trace.subscribe(lambda e: None)
        assert trace.unsubscribe(cb) is True
        assert trace.unsubscribe(cb) is False
        emit_read(trace)  # no longer delivered, must not raise

    def test_subscribers_property_is_a_copy(self):
        trace = make_trace()
        cb = trace.subscribe(lambda e: None)
        listed = trace.subscribers
        assert listed == [cb]
        listed.clear()
        assert trace.subscribers == [cb]


class TestEmitReturnContract:
    """Satellite: ``emit`` returns the committed event, or ``None`` iff
    the trace is disabled — so subscribers never observe ``None``."""

    def test_emit_returns_the_committed_event(self):
        trace = make_trace()
        event = emit_read(trace)
        assert isinstance(event, TraceEvent)
        assert trace.events[-1] is event

    def test_emit_returns_none_iff_disabled(self):
        trace = make_trace()
        trace.enabled = False
        assert emit_read(trace) is None
        assert trace.events == []
        trace.enabled = True
        assert emit_read(trace) is not None

    def test_disabled_emit_never_notifies(self):
        trace = make_trace()
        seen = []
        trace.subscribe(seen.append)
        trace.enabled = False
        emit_read(trace)
        assert seen == []

    def test_subscribers_never_see_none_or_rejected_events(self):
        trace = make_trace()
        seen = []
        trace.subscribe(seen.append)
        with pytest.raises(ValueError):
            trace.emit("no_such_event_kind", foo=1)
        emit_read(trace)
        assert all(isinstance(e, TraceEvent) for e in seen)
        assert len(seen) == 1


class TestExceptionIsolation:
    def test_raising_subscriber_is_detached_after_one_failure(self):
        trace = make_trace()
        calls = []

        def bad(event):
            calls.append(event.seq)
            raise RuntimeError("boom")

        good = []
        trace.subscribe(bad)
        trace.subscribe(good.append)
        emit_read(trace)
        emit_read(trace)
        assert calls == [0]  # invoked once, then detached
        assert len(good) == 2  # later subscribers unaffected
        assert trace.subscribers == [good.append] or len(trace.subscribers) == 1

    def test_failure_is_logged_and_hooked(self, caplog):
        trace = make_trace()
        hooked = []
        trace.on_subscriber_error = lambda cb, exc: hooked.append((cb, exc))

        def bad(event):
            raise RuntimeError("boom")

        trace.subscribe(bad)
        with caplog.at_level("WARNING"):
            emit_read(trace)
        assert len(hooked) == 1
        assert hooked[0][0] is bad
        assert isinstance(hooked[0][1], RuntimeError)
        assert any("detached" in r.getMessage() for r in caplog.records)

    def test_engine_run_survives_a_raising_subscriber(self):
        """Non-fatal by construction: the run completes, the counter
        increments, and the trace bytes are unchanged."""
        mdf = build_filter_mdf()
        baseline = run_mdf(
            mdf, Cluster(num_workers=4, mem_per_worker=1 * GB)
        )

        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)

        def bad(event):
            raise RuntimeError("dashboard fell over")

        # reset=False: run_mdf's cluster reset would recreate the trace
        # and silently drop the subscription made above
        cluster.trace.subscribe(bad)
        result = run_mdf(mdf, cluster, reset=False)
        assert result.completion_time == baseline.completion_time
        assert result.events.to_jsonl() == baseline.events.to_jsonl()
        assert cluster.obs.value("live_subscriber_errors") == 1.0

    def test_counter_rewired_across_cluster_reset(self):
        cluster = Cluster(num_workers=2, mem_per_worker=1 * GB)
        cluster.reset()

        def bad(event):
            raise RuntimeError("boom")

        cluster.trace.subscribe(bad)
        cluster.trace.emit("dataset_discarded", dataset="d")
        assert cluster.obs.value("live_subscriber_errors") == 1.0
