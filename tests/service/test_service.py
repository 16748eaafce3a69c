"""End-to-end tests for the multi-tenant job service and its CLI.

Concurrent jobs from several tenants over one shared store: every job's
outputs byte-identical to a solo run, traces validator-clean, streams
parseable, spool state queryable, failures contained.
"""

import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time

import pytest

from repro.cache.store import atomic_text
from repro.lab import get_workload
from repro.obs.export import registry_json
from repro.service import DONE, FAILED, JobService, JobSpec, outputs_digest, worker
from repro.service.__main__ import main as service_main
from repro.trace.events import read_events


def solo_digest(workload_name):
    with JobService(workers=1, cache=False) as service:
        service.submit("solo", workload_name)
        record = service.drain(timeout=120)[0]
    assert record.status == DONE, record.error
    return record.result["outputs_digest"]


class TestJobSpec:
    def test_round_trips_through_dict(self):
        spec = JobSpec(job_id="j1", tenant="t", workload="filter_min",
                       backend="mp", cost=2.5)
        again = JobSpec.from_dict(spec.as_dict())
        assert again == spec

    def test_from_dict_ignores_unknown_keys(self):
        spec = JobSpec.from_dict(
            {"job_id": "j1", "tenant": "t", "workload": "w", "mystery": 1}
        )
        assert spec.job_id == "j1"
        assert not hasattr(spec, "mystery")


class TestJobService:
    def test_concurrent_tenants_byte_identical_to_solo(self, tmp_path):
        reference = {
            "filter_min": solo_digest("filter_min"),
            "nested_topk": solo_digest("nested_topk"),
        }
        with JobService(
            workers=2, spool=str(tmp_path), tenants={"alice": 2.0, "bob": 1.0}
        ) as service:
            for tenant in ("alice", "bob"):
                service.submit(tenant, "filter_min")
                service.submit(tenant, "nested_topk")
            records = service.drain(timeout=120)
        assert len(records) == 4
        for record in records:
            assert record.status == DONE, record.error
            assert record.result["violations"] == 0
            assert (
                record.result["outputs_digest"]
                == reference[record.spec.workload]
            )
            assert record.latency is not None and record.latency > 0

    def test_streams_written_and_parseable(self, tmp_path):
        with JobService(workers=1, spool=str(tmp_path)) as service:
            job_id = service.submit("t", "filter_min")
            record = service.drain(timeout=120)[0]
        stream = os.path.join(str(tmp_path), "streams", f"{job_id}.ndjson")
        assert record.result["stream_path"] == stream
        events = [json.loads(line) for line in open(stream)]
        assert len(events) == record.result["events"]
        assert all("kind" in e and "t" in e for e in events)
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_state_json_snapshot(self, tmp_path):
        with JobService(workers=1, spool=str(tmp_path)) as service:
            service.submit("t", "filter_min")
            service.drain(timeout=120)
        state = json.load(open(os.path.join(str(tmp_path), "state.json")))
        assert state["counts"]["done"] == 1
        assert state["jobs"][0]["spec"]["workload"] == "filter_min"
        assert state["jobs"][0]["latency"] > 0

    def test_failed_job_contained(self, tmp_path):
        """A bad submission fails its own record; the pool survives and
        other jobs complete."""
        with JobService(workers=1, spool=str(tmp_path)) as service:
            bad = service.submit("t", "no-such-workload")
            good = service.submit("t", "filter_min")
            service.drain(timeout=120)
            assert service.record(bad).status == FAILED
            assert "no-such-workload" in service.record(bad).error
            assert service.record(good).status == DONE

    def test_unknown_spec_override_rejected(self, tmp_path):
        """A ticket sets what the submit CLI can write plus ``validate``;
        a typo, a ``JobSpec`` method name, or a field the service decides
        (where the worker writes, which id it answers to) is refused
        before anything exists that a later ``pump`` would trip over."""
        refused = {
            "not_a_field": 1, "as_dict": 1, "from_dict": 1, "job_id": "job-0001",
            "stream_path": str(tmp_path / "elsewhere.ndjson"),
            "cache_dir": str(tmp_path),
        }
        with JobService(workers=1, spool=str(tmp_path)) as service:
            for key, value in refused.items():
                with pytest.raises(TypeError, match=key):
                    service.submit("t", "filter_min", **{key: value})
            with pytest.raises(ValueError, match="cost"):
                service.submit("t", "filter_min", cost=0)
            assert service.records == {} and service.queue.backlog == 0
            with open(service.obs.events_path) as log:
                assert [e.kind for e in read_events(log.read())] == ["config"]
            job = service.submit("t", "filter_min", scheduler="bfs", validate=False)
            (record,) = service.drain(timeout=120)
            assert record.status == DONE and record.job_id == job == "job-0002"
            assert record.spec.scheduler == "bfs" and not record.spec.validate

    def test_pool_workers_inherit_no_ambient_observer(self, tmp_path):
        """The pool forks with whatever the dispatcher's process was
        observing with; a job is watched by its own stream alone."""
        from repro import observing

        class Refuses:
            def begin(self, mdf, cluster, config):
                raise AssertionError("an ambient observer leaked into a worker")

            def end(self, result):
                pass

        with observing(Refuses()):
            with JobService(workers=1, spool=str(tmp_path)) as service:
                service.submit("t", "filter_min")
                (record,) = service.drain(timeout=120)
        assert record.status == DONE, record.error

    def test_mp_backend_runs_inside_a_service_job(self, tmp_path):
        """A service worker is not daemonic, so a job may fork the mp
        backend's pool: the API, the CLI flag and a hand-written ticket
        all run ``done`` with the solo digest."""
        reference = solo_digest("filter_min")
        spool = str(tmp_path)
        with JobService(workers=1, spool=spool) as service:
            service.submit("t", "filter_min", backend="mp")
            (record,) = service.drain(timeout=120)
        assert record.status == DONE, record.error
        assert record.spec.backend == "mp"
        assert record.result["outputs_digest"] == reference
        spool = str(tmp_path / "cli")  # a spool holds one service's log
        out = io.StringIO()
        argv = ["--spool", spool, "--workload", "filter_min", "--backend", "mp"]
        assert service_main(["submit"] + argv, out=out) == 0
        with open(os.path.join(spool, "inbox", "t.json"), "w") as fh:
            json.dump({"workload": "filter_min", "backend": "mp"}, fh)
        out = io.StringIO()
        assert service_main(["serve", "--spool", spool, "--once"], out=out) == 0
        assert "served 2 job(s): 2 done, 0 failed" in out.getvalue()
        with open(os.path.join(spool, "state.json")) as fh:
            jobs = json.load(fh)["jobs"]
        assert [job["spec"]["backend"] for job in jobs] == ["mp", "mp"]
        assert {job["result"]["outputs_digest"] for job in jobs} == {reference}

    def test_submit_after_close_rejected(self, tmp_path):
        service = JobService(workers=1, spool=str(tmp_path))
        service.close()
        with pytest.raises(RuntimeError):
            service.submit("t", "filter_min")

    def test_shared_cache_cross_tenant_reuse(self, tmp_path):
        """Sequential tenants: on the shared compute-heavy workload the
        second run hits entries the first tenant owns; on their own
        private workloads (zero overlap) nobody reuses anybody's."""
        cases = (  # kept as rows of one test so its id stays stable
            ("overlap", ("dl_grid", "dl_grid"), True),
            ("disjoint", ("svc_private_t0", "svc_private_t1"), False),
        )
        for case, workloads, reuse in cases:
            spool = str(tmp_path / case)
            with JobService(workers=1, spool=spool) as service:
                for tenant, workload in zip(("cold", "warm"), workloads):
                    service.submit(tenant, workload)
                    records = service.drain(timeout=240)
            assert [r.status for r in records] == [DONE, DONE], case
            cold, warm = sorted(records, key=lambda r: r.tenant)
            assert cold.result["cache"]["store_writes"] > 0, case
            assert cold.result["cache"]["cross_tenant_hits"] == 0, case
            assert (warm.result["cache"]["cross_tenant_hits"] > 0) == reuse, case
            if reuse:
                assert (
                    warm.result["outputs_digest"] == cold.result["outputs_digest"]
                )


def published_state(spool):
    """``state.json`` as published, split into (snapshot, updated_unix)."""
    with open(os.path.join(spool, "state.json")) as fh:
        state = json.load(fh)
    return state, state.pop("updated_unix")


def live_state(service):
    """``status()`` as JSON would carry it."""
    return json.loads(json.dumps(service.status()))


def assert_views_current(service, spool):
    assert published_state(spool)[0] == live_state(service)
    with open(os.path.join(spool, "metrics.json")) as fh:
        assert fh.read() == registry_json(service.obs.registry) + "\n"


class TestDerivedViews:
    """``state.json`` and the metric exports are coalesced views: cheap
    while the dispatcher is busy, current whenever a caller may look."""

    def test_back_to_back_submits_coalesce_publishes(self, tmp_path):
        class Counting(JobService):
            writes = 0

            def write_state(self):
                self.writes += 1
                super().write_state()

        with Counting(workers=1, spool=str(tmp_path)) as service:
            for _ in range(500):
                service.submit("t", "filter_min")
            assert service.writes <= 3
            assert service.status()["counts"]["queued"] == 500  # status() is live

    def test_submit_cost_flat_in_queue_depth(self, tmp_path):
        """A ratio inside one process, not absolute seconds."""

        def mean_submit_s(depth, attempt):
            spool = str(tmp_path / f"{depth}-{attempt}")
            with JobService(workers=1, spool=spool) as service:
                start = time.perf_counter()
                for _ in range(depth):
                    service.submit("t", "filter_min")
                return (time.perf_counter() - start) / depth

        shallow = min(mean_submit_s(20, attempt) for attempt in range(3))
        deep = min(mean_submit_s(2000, attempt) for attempt in range(3))
        assert deep <= 3 * shallow

    def test_views_current_after_drain_and_after_close(self, tmp_path):
        spool = str(tmp_path)
        with JobService(workers=2, spool=spool) as service:
            for tenant in ("alice", "bob", "alice", "bob"):
                service.submit(tenant, "filter_min")
            service.drain(timeout=120)
            assert_views_current(service, spool)
            assert published_state(spool)[0]["counts"]["done"] == 4
            service.submit("alice", "filter_min")  # still queued at close()
        assert_views_current(service, spool)
        assert published_state(spool)[0]["counts"]["done"] == 4

    def test_close_cancels_running_jobs(self, tmp_path):
        """A job running at ``close()`` ends ``failed`` with a reason, and
        ``state.json``, the event log and its replay all say so."""
        from repro.service import replay_service_registry, service_registry_diff

        spool = str(tmp_path)
        with JobService(workers=1, spool=spool) as service:
            job = service.submit("t", "dl_grid")
            service.pump()
            assert service.record(job).status == "running"
        record = service.record(job)
        assert record.status == FAILED and record.error == "cancelled: service closed"
        assert published_state(spool)[0]["counts"] == {
            "queued": 0, "running": 0, "done": 0, "failed": 1,
        }
        with open(service.obs.events_path) as log:
            events = [e.kind for e in read_events(log.read())]
        assert events == ["config", "submitted", "running", "failed"]
        replayed = replay_service_registry(spool)
        assert service_registry_diff(service.obs, replayed) == []
        assert not multiprocessing.active_children()

    def test_unclosed_service_does_not_hang_interpreter_exit(self, tmp_path):
        """Interpreter exit joins every non-daemonic child; a service that
        was never closed hangs up on its idle workers first."""
        script = (
            "from repro.service import JobService\n"
            f"service = JobService(workers=2, spool={str(tmp_path)!r})\n"
            "for _ in range(3):\n"
            "    service.submit('t', 'filter_min')\n"
            "assert all(r.status == 'done' for r in service.drain(timeout=60))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=60,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        assert done.returncode == 0, done.stdout.decode()

    def test_staleness_bounded_while_busy(self, tmp_path):
        spool = str(tmp_path)
        with JobService(workers=1, spool=spool) as service:
            for _ in range(12):
                service.submit("t", "filter_min")
            while service.status()["counts"]["done"] < 12:
                service.pump()
                state, updated = published_state(spool)
                if state != live_state(service):
                    assert time.time() - updated < 1.0
                service.wait(0.005)
        assert_views_current(service, spool)

    def test_ids_past_9999_keep_submission_order(self, tmp_path):
        with JobService(workers=1, spool=str(tmp_path)) as service:
            service._next_id = 9998
            ids = [service.submit("t", "filter_min") for _ in range(3)]
            assert ids == ["job-9999", "job-10000", "job-10001"]
            assert [r.job_id for r in service.drain(timeout=120)] == ids
            assert [j["spec"]["job_id"] for j in service.status()["jobs"]] == ids

    def test_atomic_text_failure_leaves_target_and_no_tmp(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("old")
        with pytest.raises(TypeError):
            with atomic_text(str(path)) as fh:
                json.dump({"result": object()}, fh)
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["state.json"]


class TestWake:
    """A completion, not the poll period, ends the dispatcher's wait."""

    @pytest.mark.parametrize("workload", ["filter_min", "no-such-workload"])
    def test_drain_returns_on_completion_not_on_poll(self, tmp_path, workload):
        with JobService(workers=1, spool=str(tmp_path)) as service:
            service.submit("t", workload)
            start = time.perf_counter()
            (record,) = service.drain(timeout=120, poll=5.0)
            assert time.perf_counter() - start < 3.0
        assert record.status == (DONE if workload == "filter_min" else FAILED)

    def test_no_completion_lost_with_more_workers_than_cores(self, tmp_path):
        """More workers than cores, threads switching every few bytecodes:
        a completion the dispatcher's wait missed would cost a 5 s poll."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with JobService(workers=4, spool=str(tmp_path)) as service:
                for _ in range(40):
                    service.submit("t", "filter_min")
                start = time.perf_counter()
                records = service.drain(timeout=60, poll=5.0)
                assert time.perf_counter() - start < 4.5
        finally:
            sys.setswitchinterval(interval)
        assert [r.status for r in records] == [DONE] * 40

    def test_wait_with_nothing_running_times_out(self, tmp_path):
        with JobService(workers=1, spool=str(tmp_path)) as service:
            assert service.wait(0.01) is False


class TestWorkerPlans:
    """A worker builds a workload's MDF at its first job of that name and
    runs it again, with fresh run state, for every later one."""

    WORKLOADS = ("dl_grid", "svc_private_t0")
    solo = {}

    @pytest.fixture(autouse=True)
    def fresh_plans(self, monkeypatch):
        for name in self.WORKLOADS:  # the lab's own build, not counted
            if name not in self.solo:
                result, _ = get_workload(name).run()
                self.solo[name] = outputs_digest(result.outputs)
        monkeypatch.setattr(worker, "_plans", {})
        self.builds = []
        for name in self.WORKLOADS:
            workload = get_workload(name)
            monkeypatch.setattr(workload, "make_mdf", self.counting(workload))
        self.monkeypatch = monkeypatch

    def counting(self, workload):
        build = workload.make_mdf

        def make_mdf():
            self.builds.append(workload.name)
            return build()

        return make_mdf

    def job(self, tmp_path, name, **overrides):
        spec = JobSpec(
            job_id="j",
            tenant="t0",
            workload=name,
            cache_dir=str(tmp_path / "cache"),
            stream_path=str(tmp_path / "j.ndjson"),
            **overrides,
        )
        return worker.run_job(spec.as_dict())

    def test_a_mix_builds_each_workload_once(self, tmp_path):
        results = [
            self.job(tmp_path, name)
            for name in ("dl_grid", "svc_private_t0", "dl_grid")
        ]
        assert sorted(self.builds) == ["dl_grid", "svc_private_t0"]
        for result in results:
            assert result["ok"], result["error"]
            assert result["outputs_digest"] == self.solo[result["workload"]]
            assert result["violations"] == 0

    def test_a_kept_plan_runs_under_other_policies(self, tmp_path):
        assert self.job(tmp_path, "dl_grid")["ok"]
        result = self.job(
            tmp_path, "dl_grid", scheduler="bfs", memory="lru", backend="mp", validate=False
        )
        assert result["ok"], result["error"]
        assert result["outputs_digest"] == self.solo["dl_grid"]
        assert self.builds == ["dl_grid"]

    def test_a_failed_run_does_not_poison_the_plan(self, tmp_path):
        real = worker.run_mdf
        calls = []

        def run_mdf(*args, **kwargs):
            calls.append(real(*args, **kwargs))  # runs the plan, then fails
            if len(calls) == 1:
                raise RuntimeError("injected")
            return calls[-1]

        self.monkeypatch.setattr(worker, "run_mdf", run_mdf)
        failed = self.job(tmp_path, "dl_grid")
        assert not failed["ok"] and "injected" in failed["error"]
        result = self.job(tmp_path, "dl_grid")
        assert result["ok"], result["error"]
        assert result["outputs_digest"] == self.solo["dl_grid"]
        assert self.builds == ["dl_grid"]

    def test_a_factory_that_raises_keeps_nothing(self, tmp_path):
        workload = get_workload("svc_private_t0")
        build = workload.make_mdf

        def make_mdf():
            self.monkeypatch.setattr(workload, "make_mdf", build)
            raise RuntimeError("injected")

        self.monkeypatch.setattr(workload, "make_mdf", make_mdf)
        failed = self.job(tmp_path, "svc_private_t0")
        assert not failed["ok"] and "injected" in failed["error"]
        assert worker._plans == {}
        assert self.job(tmp_path, "svc_private_t0")["ok"]
        assert self.builds == ["svc_private_t0"]

    def test_wall_s_covers_the_digest(self, tmp_path):
        digest = worker.outputs_digest

        def slow_digest(outputs):
            time.sleep(0.05)
            return digest(outputs)

        self.monkeypatch.setattr(worker, "outputs_digest", slow_digest)
        result = self.job(tmp_path, "svc_private_t0")
        assert result["ok"], result["error"]
        assert result["wall_s"] >= 0.05


class TestOutputsDigest:
    def test_digest_is_order_insensitive_over_sink_names(self):
        a = outputs_digest({"x": [1, 2], "y": [3]})
        b = outputs_digest({"y": [3], "x": [1, 2]})
        assert a == b

    def test_digest_differs_on_payload(self):
        assert outputs_digest({"x": [1]}) != outputs_digest({"x": [2]})


class TestCLI:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = service_main(list(argv), out=out)
        return code, out.getvalue()

    def test_submit_serve_status_follow(self, tmp_path):
        spool = str(tmp_path)
        code, text = self.run_cli(
            "submit", "--spool", spool, "--tenant", "alice",
            "--workload", "filter_min",
        )
        assert code == 0 and "queued ticket" in text
        code, text = self.run_cli(
            "submit", "--spool", spool, "--tenant", "bob",
            "--workload", "filter_min", "--cost", "2.0",
        )
        assert code == 0
        code, text = self.run_cli(
            "serve", "--spool", spool, "--workers", "2",
            "--tenant", "alice:2", "--tenant", "bob:1", "--once",
        )
        assert code == 0, text
        assert "served 2 job(s): 2 done, 0 failed" in text
        code, text = self.run_cli("status", "--spool", spool)
        assert code == 0
        assert "done=2" in text and "tenant alice" in text
        code, text = self.run_cli(
            "follow", "--spool", spool, "--job", "job-0001",
            "--idle-timeout", "0.2",
        )
        assert code == 0
        assert "stages" in text  # the live dashboard rendered

    def test_second_serve_on_a_used_spool_exits_2(self, tmp_path):
        """A spool holds one service's log: a second ``serve`` refuses it
        with one line instead of truncating the log and re-issuing
        ``job-0001`` over the first run's stream."""
        spool = str(tmp_path)
        self.run_cli("submit", "--spool", spool, "--workload", "filter_min")
        code, text = self.run_cli("serve", "--spool", spool, "--once")
        assert code == 0, text
        written = {}
        for name in ("service_events.ndjson", os.path.join("streams", "job-0001.ndjson")):
            with open(os.path.join(spool, name), "rb") as fh:
                written[name] = fh.read()
        self.run_cli("submit", "--spool", spool, "--workload", "nested_topk")
        code, text = self.run_cli("serve", "--spool", spool, "--once")
        assert code == 2
        assert text == f"spool {spool} already has a service log: serve a fresh spool\n"
        for name, data in written.items():
            with open(os.path.join(spool, name), "rb") as fh:
                assert fh.read() == data, name
        with pytest.raises(FileExistsError, match=re.escape(spool)):
            JobService(workers=1, spool=spool)

    def test_status_json_mode(self, tmp_path):
        spool = str(tmp_path)
        self.run_cli("submit", "--spool", spool, "--workload", "filter_min")
        self.run_cli("serve", "--spool", spool, "--once")
        code, text = self.run_cli("status", "--spool", spool, "--json")
        assert code == 0
        assert json.loads(text)["counts"]["done"] == 1

    def test_bad_ticket_is_skipped(self, tmp_path):
        spool = str(tmp_path)
        inbox = os.path.join(spool, "inbox")
        os.makedirs(inbox)
        bad = {
            "bad.json": "{not json",
            # hand-written tickets: an unknown key, a value that is not an object
            "key.json": '{"tenant":"a","workload":"synthetic_grid","priority":3}',
            # ... a JobSpec method name, and a field that is the service's to set
            "method.json": '{"workload":"filter_min","as_dict":1}',
            "path.json": '{"workload":"filter_min","stream_path":"/tmp/elsewhere"}',
            "list.json": "[1,2]",
        }
        for name, body in bad.items():
            with open(os.path.join(inbox, name), "w") as fh:
                fh.write(body)
        self.run_cli("submit", "--spool", spool, "--workload", "filter_min")
        code, text = self.run_cli("serve", "--spool", spool, "--once")
        assert code == 0
        for name in bad:
            assert f"bad ticket {name}: " in text
        assert "served 1 job(s)" in text

    def test_usage_and_errors(self, tmp_path):
        code, text = self.run_cli("--help")
        assert code == 0 and "usage" in text
        code, _ = self.run_cli("serve")  # no --spool
        assert code == 2
        code, _ = self.run_cli("not-a-command", "--spool", str(tmp_path))
        assert code == 2
        code, text = self.run_cli("submit", "--spool", str(tmp_path))
        assert code == 2 and "--workload" in text

    def test_status_without_state(self, tmp_path):
        code, text = self.run_cli("status", "--spool", str(tmp_path))
        assert code == 2 and "no state.json" in text
