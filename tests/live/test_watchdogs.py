"""Watchdogs: injected anomalies raise exactly the expected alerts,
clean runs raise none, and alerts land in the obs registry."""

from __future__ import annotations

from repro import (
    Cluster,
    EngineConfig,
    FailureInjector,
    GB,
    MetricsRegistry,
    SpeculationConfig,
    StragglerProfile,
    run_mdf,
)
from repro.live import LiveMonitor
from repro.live.watchdogs import (
    ALERT_KINDS,
    MemoryPressureWatchdog,
    RetryStormWatchdog,
    StallWatchdog,
    StragglerWatchdog,
    default_watchdogs,
)
from repro.trace import Trace

from ..conftest import build_filter_mdf, build_nested_mdf


def event(kind, t=0.0, seq=0, **data):
    """A hand-built TraceEvent (watchdogs fold plain events)."""

    class FakeClock:
        pass

    clock = FakeClock()
    clock.now = t
    trace = Trace(clock=clock, strict=True)
    return trace.emit(kind, **data)


class TestInjectedStraggler:
    def test_injected_slowdown_raises_exactly_one_straggler_alert(self):
        """A 20x slow node (speculation off, so nothing masks it) trips
        the plan-overrun detector — and nothing else."""
        config = EngineConfig(
            stragglers=StragglerProfile({"worker-0": 20.0}),
            speculation=SpeculationConfig(enabled=False),
        )
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        result = run_mdf(
            build_filter_mdf(), cluster, config=config, observers=[LiveMonitor()]
        )
        monitor = result.live
        assert monitor.alert_kinds() == {"straggler": 1}
        alert = monitor.alerts[0]
        assert alert.kind == "straggler"
        assert alert.details["wall"] > alert.details["serialized"]
        # the alert was counted in the cluster's obs registry
        assert cluster.obs.value("live_alerts", policy="straggler") == 1.0

    def test_clean_run_raises_nothing(self):
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        result = run_mdf(build_filter_mdf(), cluster, observers=[LiveMonitor()])
        assert result.live.alerts == []

    def test_clean_nested_run_raises_nothing(self):
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        result = run_mdf(build_nested_mdf(), cluster, observers=[LiveMonitor()])
        assert result.live.alerts == []

    def test_skew_alone_stays_under_the_serialized_bound(self):
        """The skew-proof bound: a wall of (workers x estimate) is NOT a
        straggler — only rate degradation beyond it is."""
        dog = StragglerWatchdog(plan=None, node_factor=None)
        # without a plan the overrun detector is inert
        dog(
            event(
                "stage_completed",
                t=1.0,
                stage="stage-1",
                ops=["op"],
                branch=None,
                started=0.0,
                finished=1.0,
                overhead=0.0,
                compute=0.0,
                io=0.0,
                network=0.0,
                per_node_io={},
                per_node_compute={},
                per_node_tasks={},
                speculative_tasks=0,
            )
        )
        assert dog.alerts == []


class TestInjectedRetryStorm:
    def test_injected_task_failures_raise_exactly_retry_storm(self):
        config = EngineConfig(
            failures=FailureInjector.task_failures([(1, "worker-1", 3)])
        )
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        result = run_mdf(
            build_filter_mdf(), cluster, config=config, observers=[LiveMonitor()]
        )
        monitor = result.live
        assert set(monitor.alert_kinds()) == {"retry_storm"}
        assert all(a.subject == "worker-1" for a in monitor.alerts)
        # recovery is costed, the estimator still converges exactly
        snap = monitor.snapshot()
        assert abs(snap.eta - result.completion_time) <= 1e-9

    def test_threshold_fires_once_per_node(self):
        dog = RetryStormWatchdog(threshold=3)
        for attempts in (1, 2, 3, 4):
            dog(event("task_retried", node="w0", attempts=attempts, seconds=0.1))
        assert len(dog.alerts) == 1
        assert dog.alerts[0].details["attempts"] == 3.0

    def test_exhausted_budget_always_fires(self):
        dog = RetryStormWatchdog(threshold=99)
        dog(event("task_retries_exhausted", node="w3", attempts=4, max_retries=3))
        assert [a.kind for a in dog.alerts] == ["retry_storm"]
        assert dog.alerts[0].subject == "w3"


class TestMemoryPressure:
    def spill(self, t, node="w0"):
        return event(
            "partition_evicted",
            t=t,
            node=node,
            dataset="d",
            index=0,
            nbytes=1,
            spilled=True,
            policy="amm",
            alpha=0.5,
            ranking=[],
        )

    def test_spill_burst_raises_then_cools_down(self):
        dog = MemoryPressureWatchdog(window=0.5, threshold=4, cooldown=1.0)
        for i in range(4):
            dog(self.spill(t=0.1 * i))
        assert len(dog.alerts) == 1  # threshold hit
        dog(self.spill(t=0.45))
        assert len(dog.alerts) == 1  # muted during cooldown
        for i in range(4):
            dog(self.spill(t=1.5 + 0.1 * i))
        assert len(dog.alerts) == 2  # a second storm after cooldown

    def test_in_memory_evictions_are_not_pressure(self):
        dog = MemoryPressureWatchdog(window=0.5, threshold=1)
        dog(
            event(
                "partition_evicted",
                node="w0",
                dataset="d",
                index=0,
                nbytes=1,
                spilled=False,
                policy="amm",
                alpha=0.5,
                ranking=[],
            )
        )
        assert dog.alerts == []


class TestStall:
    def test_silence_raises_once_per_period(self):
        wall = {"t": 0.0}
        dog = StallWatchdog(threshold_seconds=10.0, clock=lambda: wall["t"])
        assert dog.poll() is None
        wall["t"] = 11.0
        alert = dog.poll()
        assert alert is not None and alert.kind == "stall"
        assert dog.poll() is None  # disarmed until a new event
        dog(event("dataset_discarded", t=1.0, dataset="d"))
        wall["t"] = 30.0
        assert dog.poll() is not None  # re-armed by the event

    def test_finished_stream_cannot_stall(self):
        wall = {"t": 0.0}
        dog = StallWatchdog(threshold_seconds=1.0, clock=lambda: wall["t"])
        dog.mark_finished()
        wall["t"] = 100.0
        assert dog.poll() is None


class TestRegistryAccounting:
    def test_alert_counts_by_kind(self):
        registry = MetricsRegistry()
        dog = RetryStormWatchdog(registry=registry, threshold=1)
        dog(event("task_retried", node="w0", attempts=1, seconds=0.1))
        dog(event("task_retried", node="w1", attempts=1, seconds=0.1))
        assert registry.value("live_alerts", policy="retry_storm") == 2.0

    def test_default_set_excludes_stall(self):
        dogs = default_watchdogs()
        kinds = {d.kind for d in dogs}
        assert kinds == {"straggler", "memory_pressure", "retry_storm"}
        assert set(kinds) < set(ALERT_KINDS)


class TestDetachedMonitorWatchdogs:
    def test_explicit_watchdog_list_is_used_verbatim(self):
        dog = RetryStormWatchdog(threshold=1)
        monitor = LiveMonitor(watchdogs=[dog])
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        run_mdf(build_filter_mdf(), cluster, observers=[monitor])
        assert monitor.watchdogs == [dog]
        assert dog.registry is cluster.obs  # wired at attach time
