"""The service observability plane (PR10).

Cross-process metrics aggregation, the fairness auditor's SFQ-tag
checks, SLO burn-rate tracking, and the keystone replay-parity
invariant: rebuilding the service registry from ``service_events.ndjson``
plus the per-job NDJSON streams must reproduce the live registry exactly
on every consistency view.
"""

import io
import json
import os

import pytest

from repro.obs import lint_prometheus_text
from repro.service import (
    DONE,
    FAILED,
    FairnessAuditor,
    JobService,
    SLOTracker,
    replay_service_registry,
    service_registry_diff,
)
from repro.obs.bridge import registry_from_trace
from repro.__main__ import main
from repro.service import obs as service_obs
from repro.service.obs import JOB_VIEW_FAMILIES, ServiceObs, job_view_totals
from repro.service.queue import FairShareQueue
from repro.trace import Trace, TraceEvent
from repro.trace.events import read_events


def admission_event(queue, job, heads):
    """The auditor's fields of the ``running`` event the service would log
    for this admission."""
    return TraceEvent(0, 0.0, "running", {
        "tenant": job.tenant,
        "cost": job.cost,
        "finish_tag": job.finish_tag,
        "weights": queue.weights(),
        "heads": {k: list(v) for k, v in heads.items()},
    })


class TestFairnessAuditor:
    def drive(self, weights, jobs_per_tenant, slots=1):
        """Run a full-backlog admission sequence through a real SFQ
        queue, auditing every admission; returns the auditor."""
        queue = FairShareQueue(slots=slots)
        for name, weight in sorted(weights.items()):
            queue.register(name, weight)
        for name in sorted(weights):
            for i in range(jobs_per_tenant):
                queue.put(name, payload=f"{name}-{i}")
        auditor = FairnessAuditor()
        while queue.backlog:
            heads = queue.pending_heads()
            job = queue.next_job()
            auditor(admission_event(queue, job, heads))
            queue.release(job)
        return auditor

    def test_clean_backlog_raises_nothing(self):
        auditor = self.drive({"a": 2.0, "b": 1.0}, jobs_per_tenant=12)
        assert auditor.alerts == []

    def test_share_exact_within_one_granule_under_full_backlog(self):
        """Two backlogged tenants: each tenant's achieved cost stays
        within one job granule of its entitled weighted share — SFQ's
        pairwise fairness bound, exact here because every admission has
        exactly one competitor."""
        auditor = self.drive({"a": 2.0, "b": 1.0}, jobs_per_tenant=15)
        shares = auditor.shares()
        assert set(shares) == {"a", "b"}
        for name, share in shares.items():
            gap = abs(share["achieved_cost"] - share["entitled_cost"])
            assert gap <= share["granule"] + 1e-9, (name, share)

    def test_multi_tenant_backlog_stays_inside_audit_bound(self):
        """With more tenants the pairwise SFQ bounds compound — the gap
        can legitimately exceed the tenant's own granule — but the drift
        stays under the auditor's alert threshold (slack × (granule +
        max granule)) and no alert fires on a fair queue."""
        auditor = self.drive({"a": 1.0, "b": 1.0, "c": 3.0}, jobs_per_tenant=15)
        assert auditor.alerts == []
        shares = auditor.shares()
        assert auditor.max_granule == max(s["granule"] for s in shares.values())
        for name, share in shares.items():
            gap = abs(share["achieved_cost"] - share["entitled_cost"])
            bound = auditor.slack * (share["granule"] + auditor.max_granule)
            assert gap <= bound + 1e-9, (name, share)

    def test_entitlement_tracks_weights(self):
        auditor = self.drive({"a": 3.0, "b": 1.0}, jobs_per_tenant=16)
        shares = auditor.shares()
        # within the shared-backlog window, a's entitled share is 3/4
        assert shares["a"]["entitled_share"] == pytest.approx(0.75, abs=0.05)
        assert shares["a"]["achieved_share"] > shares["b"]["achieved_share"]

    def test_injected_bypass_raises_exactly_one_alert(self):
        """A rigged admission whose finish tag jumps past a backlogged
        head by more than one granule: one latched alert, not a storm."""
        auditor = FairnessAuditor()
        rigged = TraceEvent(0, 1.0, "running", {
            "tenant": "greedy",
            "cost": 1.0,
            "finish_tag": 10.0,  # the starved head's tag is 1.0 + granule 1.0
            "weights": {"greedy": 1.0, "starved": 1.0},
            "heads": {"starved": [1.0, 1.0], "greedy": [10.0, 1.0]},
        })
        auditor(rigged)
        auditor(rigged)  # repeat offence: still latched
        assert len(auditor.alerts) == 1
        (alert,) = auditor.alerts
        assert alert.kind == "fairness"
        assert alert.subject == "starved"
        assert "bypassed" in alert.message

    def test_alert_counted_in_registry_under_service_alerts(self):
        from repro.obs.registry import MetricsRegistry
        from repro.service.obs import SERVICE_LABEL_NAMES

        registry = MetricsRegistry(label_names=SERVICE_LABEL_NAMES)
        auditor = FairnessAuditor(registry=registry)
        auditor._raise(0.0, "starved", "test", tenant="starved")
        assert registry.aggregate("service_alerts", ("tenant", "policy")) == {
            ("starved", "fairness"): 1.0
        }

    def test_within_tenant_admission_never_self_alerts(self):
        """A tenant admitted while itself backlogged (FIFO within the
        tenant) must not be flagged as bypassing its own head."""
        auditor = self.drive({"solo": 1.0}, jobs_per_tenant=10)
        assert auditor.alerts == []
        assert auditor.shares()["solo"]["achieved_share"] == pytest.approx(1.0)


class TestSLOTracker:
    def finished(self, tenant, ok=True, latency=0.1):
        """The tracker's fields of a finished job's event."""
        return TraceEvent(
            0, 0.0, "done" if ok else "failed", {"tenant": tenant, "latency": latency}
        )

    def test_attainment_counts_latency_and_errors(self):
        slo = SLOTracker(slos={"*": {"latency_s": 1.0, "target": 0.5}})
        slo(self.finished("t", ok=True, latency=0.5))
        slo(self.finished("t", ok=True, latency=5.0))  # too slow
        slo(self.finished("t", ok=False))
        att = slo.attainment()["t"]
        assert att["jobs"] == 3
        assert att["attained"] == pytest.approx(1 / 3)
        assert not att["met"]

    def test_untracked_tenant_ignored(self):
        slo = SLOTracker(slos={"vip": {"target": 0.9}})
        slo(self.finished("anon", ok=False))
        assert slo.attainment() == {}
        assert slo.alerts == []

    def test_burn_alert_raised_once_then_rearmed(self, monkeypatch):
        """One alert per excursion: the window must recover (burn drops
        below the threshold) before a second alert can fire."""
        monkeypatch.setattr(service_obs, "SLO_WINDOW", 4)
        monkeypatch.setattr(service_obs, "SLO_BURN_THRESHOLD", 1.0)
        slo = SLOTracker(slos={"t": {"target": 0.5}})
        for _ in range(4):
            slo(self.finished("t", ok=False))
        assert len(slo.alerts) == 1
        assert slo.alerts[0].kind == "slo"
        # recovery: good jobs push the window's bad fraction under budget
        for _ in range(4):
            slo(self.finished("t", ok=True))
        assert len(slo.alerts) == 1
        # second excursion re-raises
        for _ in range(4):
            slo(self.finished("t", ok=False))
        assert len(slo.alerts) == 2

    def test_exact_tenant_objective_beats_wildcard(self):
        slo = SLOTracker(
            slos={"*": {"target": 0.9}, "vip": {"target": 0.99}}
        )
        assert slo.slo_for("vip")["target"] == 0.99
        assert slo.slo_for("other")["target"] == 0.9


class TestServiceObsEndToEnd:
    def run_service(self, tmp_path, slos=None, submissions=None, workers=2):
        spool = str(tmp_path)
        with JobService(
            workers=workers,
            spool=spool,
            tenants={"alice": 2.0, "bob": 1.0},
            slos=slos,
        ) as service:
            for tenant, workload in submissions or (
                ("alice", "filter_min"),
                ("alice", "nested_topk"),
                ("bob", "filter_min"),
                ("bob", "nested_topk"),
            ):
                service.submit(tenant, workload)
            service.drain(timeout=240)
        return service, spool

    def test_replay_parity_and_exports(self, tmp_path):
        service, spool = self.run_service(tmp_path)
        events_path = os.path.join(spool, "service_events.ndjson")
        assert os.path.exists(events_path)
        with open(events_path) as fh:
            events = list(read_events(fh.read()))
        assert events[0].kind == "config"
        assert [e.seq for e in events] == list(range(len(events)))
        # the keystone: log + streams rebuild the registry exactly
        replayed = replay_service_registry(spool)
        assert service_registry_diff(service.obs, replayed) == []
        # the merged job-view families actually landed (e.g. branch counts)
        jobs_by_status = service.obs.registry.aggregate(
            "service_jobs", ("status",)
        )
        assert jobs_by_status[("queued",)] == 4.0
        assert jobs_by_status[("done",)] == 4.0
        assert service.obs.registry.value("branches_executed") > 0
        # exact latency histogram: one value retained per finished job
        latency_total = sum(
            len(h.values)
            for h in service.obs.registry.series(
                "service_latency_seconds"
            ).values()
        )
        assert latency_total == 4
        # exports written and format-clean
        text = open(os.path.join(spool, "metrics.prom")).read()
        assert lint_prometheus_text(text) == []
        metrics = json.load(open(os.path.join(spool, "metrics.json")))
        assert metrics["service_jobs"]["kind"] == "counter"

    def test_clean_run_raises_no_alerts(self, tmp_path):
        service, _ = self.run_service(
            tmp_path, slos={"*": {"latency_s": 300.0, "target": 0.9}}
        )
        summary = service.status()["obs"]
        assert summary["alerts"] == []
        # live admission windows are ragged (a slot frees with whatever
        # backlog exists), so the structural bound is granule + max granule
        peak = max(s["granule"] for s in summary["fairness"].values())
        for share in summary["fairness"].values():
            gap = abs(share["achieved_cost"] - share["entitled_cost"])
            assert gap <= share["granule"] + peak + 1e-9
        for att in summary["slo"].values():
            assert att["met"]

    def test_impossible_slo_alerts_and_replays_identically(self, tmp_path):
        """A 0-second latency objective makes every job bad: the burn
        alert fires live, lands in service_alerts, and the replayed
        registry reproduces the same alert count from the log alone."""
        service, spool = self.run_service(
            tmp_path,
            slos={"*": {"latency_s": 0.0, "target": 0.9}},
            submissions=(("alice", "filter_min"), ("alice", "filter_min")),
            workers=1,
        )
        summary = service.status()["obs"]
        assert any(a["kind"] == "slo" for a in summary["alerts"])
        alerts = service.obs.registry.aggregate("service_alerts", ("policy",))
        assert alerts[("slo",)] >= 1.0
        replayed = replay_service_registry(spool)
        assert service_registry_diff(service.obs, replayed) == []

    def test_failed_job_replay_parity(self, tmp_path):
        service, spool = self.run_service(
            tmp_path,
            submissions=(("alice", "no-such-workload"), ("bob", "filter_min")),
        )
        statuses = {r.status for r in service.records.values()}
        assert statuses == {DONE, FAILED}
        jobs = service.obs.registry.aggregate("service_jobs", ("status",))
        assert jobs[("failed",)] == 1.0 and jobs[("done",)] == 1.0
        replayed = replay_service_registry(spool)
        assert service_registry_diff(service.obs, replayed) == []

    def test_replay_parity_mid_run(self, tmp_path):
        """The log is line-buffered: every event applied live is already
        on disk, so a replay beside a running service agrees with it."""
        spool = str(tmp_path)
        with JobService(workers=1, spool=spool) as service:
            first, _, last = [service.submit("alice", "filter_min") for _ in range(3)]
            while service.record(first).status != DONE:
                service.pump()
                service.wait(0.05)
            assert service.record(last).status == "queued"
            replayed = replay_service_registry(spool)
            assert service_registry_diff(service.obs, replayed) == []
            service.drain(timeout=120)
        assert service_registry_diff(service.obs, replay_service_registry(spool)) == []
        assert service.obs.alerts == []

    def test_worker_payload_carries_obs_keys(self, tmp_path):
        """Always — a ticket written when ``obs`` was still a spec field
        loads, and the retired key changes nothing."""
        from repro.service.jobs import JobSpec
        from repro.service.worker import run_job

        spec = JobSpec(
            job_id="j1",
            tenant="t",
            workload="filter_min",
            cache_dir=str(tmp_path / "cache"),
            stream_path=str(tmp_path / "j1.ndjson"),
        ).as_dict()
        payload = run_job(dict(spec, obs=False, singleflight_wait=0.5))
        assert payload["ok"]
        # one float per job-view family crosses the pipe, not the cells
        totals = payload["obs"]
        assert totals and set(totals) <= set(JOB_VIEW_FAMILIES)
        assert all(type(value) is float for value in totals.values())
        assert "store" in payload
        # the profile seconds cross the pipe once, among the totals
        assert "profile" not in payload
        assert totals["profile_compute_seconds"] > 0
        # and they are what replay derives from the job's stream
        stream = Trace.load_jsonl(spec["stream_path"])
        assert totals == job_view_totals(registry_from_trace(stream))

    def test_each_cache_fact_is_kept_once(self, tmp_path):
        """A job's hits, misses, admissions, invalidations and savings reach
        the service once, as its folded ``cache_*`` job-view families; the
        ``done`` event carries only the cache counters no stream folds.
        The worker's summary still reports every ``CacheStats`` field."""
        service, spool = self.run_service(
            tmp_path,
            submissions=(
                ("alice", "dl_grid"),
                ("bob", "dl_grid"),
                ("alice", "svc_private_t0"),
                ("alice", "svc_private_t0"),
            ),
            workers=1,
        )
        records = list(service.records.values())
        assert [r.status for r in records] == [DONE] * 4
        reg = service.obs.registry
        twins = ("hits", "misses", "admissions", "invalidations", "bytes_saved",
                 "compute_seconds_saved")
        assert set(service_obs.CACHE_COUNTER_KEYS).isdisjoint(twins)
        for key in twins:
            assert reg.kind_of(f"service_cache_{key}") is None, key
            shipped = {}
            for record in records:
                cell = (record.tenant, record.spec.workload)
                shipped[cell] = shipped.get(cell, 0) + record.result["cache"][key]
            folded = reg.aggregate(f"cache_{key}", ("tenant", "workload"))
            for cell, value in shipped.items():
                assert folded.get(cell, 0.0) == pytest.approx(value, rel=1e-12, abs=0), key
        assert reg.value("cache_hits") > 0
        assert reg.kind_of("service_cache_corrupt_entries") is None
        with open(os.path.join(spool, "service_events.ndjson")) as fh:
            done = [e for e in read_events(fh.read()) if e.kind == "done"]
        assert set().union(*(e.data["cache"] for e in done)) <= set(
            service_obs.CACHE_COUNTER_KEYS
        )
        assert service_registry_diff(service.obs, replay_service_registry(spool)) == []

    def test_snapshot_kept_out_of_state_json(self, tmp_path):
        _, spool = self.run_service(
            tmp_path, submissions=(("alice", "filter_min"),), workers=1
        )
        state = json.load(open(os.path.join(spool, "state.json")))
        (job,) = state["jobs"]
        assert "obs" not in job["result"]

    def test_replay_tolerates_torn_final_line_only(self, tmp_path):
        """A killed dispatcher leaves a cut-off last line: replay skips it;
        a torn line with more log after it is corruption, with its number."""
        service, spool = self.run_service(
            tmp_path, submissions=(("alice", "filter_min"),), workers=1
        )
        events_path = os.path.join(spool, "service_events.ndjson")
        lines = open(events_path).read().splitlines()
        with open(events_path, "a") as fh:
            fh.write(lines[-1][: len(lines[-1]) // 2])
        assert service_registry_diff(service.obs, replay_service_registry(spool)) == []
        with open(events_path, "a") as fh:
            fh.write("\n" + lines[-1] + "\n")
        with pytest.raises(ValueError, match=rf"line {len(lines) + 1}: undecodable"):
            replay_service_registry(spool)

    def log_lines(self, tmp_path, *events):
        with open(tmp_path / "service_events.ndjson", "w") as fh:
            fh.write("".join(event.to_json() + "\n" for event in events))

    def test_replay_requires_config_first(self, tmp_path):
        submitted = dict(job="job-0001", tenant="t", workload="w", cost=1.0,
                         start_tag=0.0, finish_tag=1.0, vtime=0.0)
        self.log_lines(tmp_path, TraceEvent(0, 0.0, "submitted", submitted))
        with pytest.raises(ValueError, match="config"):
            replay_service_registry(str(tmp_path))

    def test_unknown_event_kind_rejected(self, tmp_path):
        """A logged line whose kind is not in ``SERVICE_EVENT_SCHEMA`` is
        refused by replay, as ``Trace.emit`` refuses an unknown kind."""
        config = TraceEvent(0, 0.0, "config", {"slots": 1, "weights": {}, "slos": {}})
        mystery = TraceEvent(1, 0.0, "mystery", {"tenant": "t", "workload": "w"})
        self.log_lines(tmp_path, config)
        assert replay_service_registry(str(tmp_path)).registry.value(
            "service_slots_total"
        ) == 1
        self.log_lines(tmp_path, config, mystery)
        with pytest.raises(ValueError, match="unknown trace event kind 'mystery'"):
            replay_service_registry(str(tmp_path))

    def test_malformed_emit_writes_nothing(self, tmp_path):
        """A malformed event raises before it reaches the log, the
        registry or the auditors; the next good one gets the next seq."""
        path = str(tmp_path / "service_events.ndjson")
        obs = ServiceObs(events_path=path, slots=1)
        fields = dict(job="job-0001", tenant="t", workload="w", cost=1.0,
                      start_tag=0.0, finish_tag=1.0, vtime=0.0)
        with open(path) as fh:
            before = fh.read()
        snapshot = obs.registry.snapshot()
        for kind, data in (
            ("submitted", dict(fields, ok=True)),  # a field the schema lacks
            ("submitted", {k: v for k, v in fields.items() if k != "cost"}),
            ("mystery", fields),
        ):
            with pytest.raises(ValueError, match="malformed|unknown"):
                obs.emit(kind, 1.0, **data)
            with open(path) as fh:
                assert fh.read() == before
            assert obs.registry.snapshot() == snapshot
        assert obs.emit("submitted", 1.0, **fields).seq == 1
        obs.close()
        with open(path) as fh:
            assert [e.kind for e in read_events(fh.read())] == ["config", "submitted"]


class TestObsCLI:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(["service", *argv], out=out)
        return code, out.getvalue()

    def serve_one(self, spool):
        self.run_cli("submit", "--spool", spool, "--tenant", "alice",
                     "--workload", "filter_min")
        code, text = self.run_cli("serve", "--spool", spool, "--once")
        assert code == 0, text

    def test_status_metrics_streams_the_export_verbatim(self, tmp_path):
        spool = str(tmp_path)
        self.serve_one(spool)
        code, text = self.run_cli("status", "--spool", spool, "--metrics")
        assert code == 0
        assert text == open(os.path.join(spool, "metrics.prom")).read()
        assert lint_prometheus_text(text) == []
        code, text = self.run_cli(
            "status", "--spool", spool, "--metrics", "--json"
        )
        assert code == 0
        assert json.loads(text)["service_jobs"]["kind"] == "counter"

    def test_status_metrics_missing_export(self, tmp_path):
        code, text = self.run_cli(
            "status", "--spool", str(tmp_path), "--metrics"
        )
        assert code == 2 and "metrics.prom" in text

    def test_status_surfaces_snapshot_age_and_staleness(self, tmp_path):
        spool = str(tmp_path)
        self.serve_one(spool)
        code, text = self.run_cli("status", "--spool", spool)
        assert code == 0
        assert "snapshot age:" in text and "STALE" not in text
        # age the snapshot artificially: the same read now flags STALE
        path = os.path.join(spool, "state.json")
        state = json.load(open(path))
        state["updated_unix"] -= 1000.0
        with open(path, "w") as fh:
            json.dump(state, fh)
        code, text = self.run_cli("status", "--spool", spool)
        assert code == 0 and "STALE" in text
        code, text = self.run_cli("status", "--spool", spool, "--json")
        assert json.loads(text)["snapshot_age_s"] > 900

    def test_status_renders_dashboard(self, tmp_path):
        spool = str(tmp_path)
        self.serve_one(spool)
        code, text = self.run_cli("status", "--spool", spool)
        assert code == 0
        assert "repro service status" in text
        assert "share(achieved/entitled)" in text
        assert "alice" in text
        assert "p50" in text and "p99" in text
        assert "alerts: 0" in text
        # the per-job lines follow the frame
        assert text.index("alerts: 0") < text.index("job-0001  done     alice")

    def test_status_follow_redraws_until_idle(self, tmp_path):
        spool = str(tmp_path)
        self.serve_one(spool)
        _, frame = self.run_cli("status", "--spool", spool)
        code, text = self.run_cli("status", "--spool", spool, "--follow",
                                  "--interval", "0.01", "--idle-timeout", "0.05")
        assert code == 0
        # a finished service publishes no new snapshot: one frame, then idle
        assert text.count("repro service status") == 1

        def without_age(frame):
            return [line for line in frame.splitlines() if "snapshot age" not in line]

        assert without_age(text) == without_age(frame)

    def test_status_follow_without_state(self, tmp_path):
        code, text = self.run_cli("status", "--spool", str(tmp_path), "--follow")
        assert code == 2 and "no state.json" in text
