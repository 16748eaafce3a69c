"""Worker-fault chaos for the job service: kill real worker processes and
check that the service still settles every job correctly.

The injector lives here, not in the product.  It patches
``repro.service.worker`` before the first admission, so every worker
the service forks inherits the patch, and it finds worker processes
through ``multiprocessing.active_children()``.  Each case ends with the
same oracles:
- every job reaches a terminal state exactly once;
- every ``done`` digest equals its solo digest;
- validators are clean;
- the event log replays to the live registry;
- ``service_recoveries`` counts the deaths that were retried.

Run alone with ``pytest -m service_chaos``.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.lab.workloads import get_workload
from repro.obs.bridge import registry_from_trace
from repro.service import (
    DONE,
    FAILED,
    JobService,
    outputs_digest,
    replay_service_registry,
    service_registry_diff,
)
from repro.service import worker
from repro.service.obs import job_view_totals
from repro.service.service import ATTEMPTS
from repro.trace import Trace
from repro.trace.events import read_events

pytestmark = pytest.mark.service_chaos

REAL_RUN_JOB = worker.run_job
SOLO = {}


def solo(workload):
    if workload not in SOLO:
        result, _ = get_workload(workload).run()
        SOLO[workload] = outputs_digest(result.outputs)
    return SOLO[workload]


def die():
    os.kill(os.getpid(), signal.SIGKILL)


def once(path):
    """True for the first caller in any process, False ever after."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def audit(service):
    """The oracles every case ends with.  Returns each job's event kinds
    (in log order) and the ``service_recoveries`` count."""
    with open(service.obs.events_path) as log:
        events = list(read_events(log.read()))[1:]  # after the config
    kinds = {}
    for event in events:
        kinds.setdefault(event.data["job"], []).append(event.kind)
    assert sorted(kinds) == sorted(service.records)
    for job_id, seen in kinds.items():
        assert sum(kind in (DONE, FAILED) for kind in seen) == 1, (job_id, seen)
        assert seen[-1] in (DONE, FAILED), (job_id, seen)
    for record in service.records.values():
        assert record.status in (DONE, FAILED), record
        if record.status == DONE:
            assert record.result["outputs_digest"] == solo(record.spec.workload)
            assert record.result["violations"] == 0
    replayed = replay_service_registry(service.spool)
    assert service_registry_diff(service.obs, replayed) == []
    assert service.obs.alerts == []
    recoveries = service.obs.registry.value("service_recoveries", kind="worker_died")
    return kinds, recoveries


@pytest.fixture
def patch_worker(monkeypatch):
    """Install a worker-side fault before any worker is forked."""
    assert not multiprocessing.active_children()

    def install(name, replacement):
        monkeypatch.setattr(worker, name, replacement)

    yield install
    assert not multiprocessing.active_children()  # close() reaped them all


def test_worker_killed_on_its_kth_job_is_retried(tmp_path, patch_worker):
    jobs_seen = []

    def run_job(raw_spec):
        jobs_seen.append(raw_spec["job_id"])  # this worker's own copy
        if len(jobs_seen) == 2 and once(str(tmp_path / "fired")):
            die()
        return REAL_RUN_JOB(raw_spec)

    patch_worker("run_job", run_job)
    with JobService(workers=2, spool=str(tmp_path / "spool")) as service:
        for index in range(6):
            service.submit(f"t{index % 2}", "filter_min" if index % 3 else "nested_topk")
        records = service.drain(timeout=60)
        kinds, recoveries = audit(service)
    assert [r.status for r in records] == [DONE] * 6
    assert recoveries == 1
    assert sum(seen.count("retried") for seen in kinds.values()) == 1


class KillAfterLines:
    """A text stream that SIGKILLs its process once ``limit`` lines are in."""

    def __init__(self, fh, limit):
        self.fh, self.limit, self.lines = fh, limit, 0

    def write(self, text):
        self.fh.write(text)
        self.lines += text.count("\n")
        if self.lines >= self.limit:
            self.fh.flush()
            die()

    def flush(self):
        self.fh.flush()


def test_worker_killed_mid_stream_retry_hits_what_it_published(tmp_path, patch_worker):
    """A kill after stage k costs the retry only the stages after k: every
    entry the dead attempt published is a store hit for the retry."""
    reference = tmp_path / "reference.ndjson"
    REAL_RUN_JOB({"job_id": "ref", "tenant": "t", "workload": "dl_grid",
                  "cache_dir": str(tmp_path / "cold"), "stream_path": str(reference)})
    with open(reference) as fh:
        events = [json.loads(line) for line in fh]
    admits = [e["data"]["fingerprint"] for e in events if e["kind"] == "cache_admit"]
    # the simulation is deterministic: the dead attempt publishes what the
    # reference run published first, in the same order
    published = set(admits[:3])
    limit = 1 + max(i for i, e in enumerate(events) if e["kind"] == "cache_admit"
                    and e["data"]["fingerprint"] == admits[2])
    real_run_mdf = worker.run_mdf

    def run_mdf(*args, live=None, **kwargs):
        with open(live, "w") as fh:
            if once(str(tmp_path / "fired")):
                fh = KillAfterLines(fh, limit)  # dies right after its third publish
            return real_run_mdf(*args, live=fh, **kwargs)

    patch_worker("run_mdf", run_mdf)
    with JobService(workers=1, spool=str(tmp_path / "spool")) as service:
        service.submit("t", "dl_grid")
        (record,) = service.drain(timeout=60)
        kinds, recoveries = audit(service)
    assert record.status == DONE and recoveries == 1
    assert kinds[record.job_id] == ["submitted", "running", "retried", "running", "done"]
    with open(record.result["stream_path"]) as fh:
        hits = {
            e["data"]["fingerprint"]
            for e in map(json.loads, fh)
            if e["kind"] == "cache_hit" and e["data"]["tier"] == "store"
        }
    assert published <= hits
    assert record.result["cache"]["store_writes"] == len(admits) - len(published)
    # what the dead attempt streamed counts nowhere: the service holds the
    # totals of the attempt that finished, as its stream derives them
    totals = job_view_totals(registry_from_trace(Trace.load_jsonl(record.result["stream_path"])))
    assert {name: service.obs.registry.value(name) for name in totals} == totals


def test_unpicklable_result_fails_once_and_the_worker_lives(tmp_path, patch_worker):
    def run_job(raw_spec):
        result = REAL_RUN_JOB(raw_spec)
        if raw_spec["tenant"] == "bad":
            result["lock"] = threading.Lock()
        return result

    patch_worker("run_job", run_job)
    with JobService(workers=1, spool=str(tmp_path)) as service:
        bad = service.submit("bad", "filter_min")
        good = service.submit("good", "filter_min")
        service.drain(timeout=60)
        kinds, recoveries = audit(service)
        assert len(multiprocessing.active_children()) == 1  # ran both jobs
    assert service.record(bad).status == FAILED
    assert service.record(bad).error.startswith("result not picklable: TypeError")
    assert kinds[bad] == ["submitted", "running", "failed"]
    assert service.record(good).status == DONE
    assert recoveries == 0


def test_worker_killed_on_every_attempt_fails_the_job(tmp_path, patch_worker):
    def run_job(raw_spec):
        if raw_spec["tenant"] == "doomed":
            die()
        return REAL_RUN_JOB(raw_spec)

    patch_worker("run_job", run_job)
    with JobService(workers=2, spool=str(tmp_path)) as service:
        doomed = service.submit("doomed", "filter_min")
        others = [service.submit("fine", "filter_min") for _ in range(3)]
        service.drain(timeout=60)
        kinds, recoveries = audit(service)
    record = service.record(doomed)
    assert record.status == FAILED
    assert record.error == f"worker died (exit code -9) on {ATTEMPTS} attempts"
    assert kinds[doomed].count("retried") == recoveries == ATTEMPTS - 1
    assert [service.record(j).status for j in others] == [DONE] * 3


def test_mp_job_then_a_kill_is_still_seen(tmp_path, patch_worker):
    """A job on the mp backend forks a pool inside its worker and shuts it
    down at run end; the pool leaves nothing holding the worker's pipe,
    so a later death of that worker is seen as promptly as any other."""
    jobs_seen = []

    def run_job(raw_spec):
        jobs_seen.append(raw_spec["job_id"])
        if len(jobs_seen) == 2 and once(str(tmp_path / "fired")):
            die()
        return REAL_RUN_JOB(raw_spec)

    patch_worker("run_job", run_job)
    with JobService(workers=1, spool=str(tmp_path / "spool")) as service:
        service.submit("t", "filter_min", backend="mp")
        service.submit("t", "filter_min")
        service.submit("t", "filter_min", backend="mp")
        started = time.monotonic()
        records = service.drain(timeout=30)
        assert time.monotonic() - started < 20
        kinds, recoveries = audit(service)
    assert [r.status for r in records] == [DONE] * 3
    assert [r.spec.backend for r in records] == ["mp", "serial", "mp"]
    assert recoveries == 1


def gone(pid):
    """Exited: no such process, or a zombie nobody is left to reap."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
def test_dispatcher_death_ends_its_workers(tmp_path):
    """SIGKILL the dispatcher with one worker idle and one mid-job: both
    read EOF on their pipe and exit quietly, the busy one once its job
    is done."""
    script = (
        "import multiprocessing, os, signal\n"
        "from repro.service import JobService\n"
        f"service = JobService(workers=2, spool={str(tmp_path / 'spool')!r})\n"
        "service.submit('t', 'filter_min'); service.submit('t', 'filter_min')\n"
        "service.drain(timeout=60)\n"
        "service.submit('t', 'dl_grid'); service.pump()\n"
        "print(*[p.pid for p in multiprocessing.active_children()], flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    log = tmp_path / "out.txt"
    with open(log, "w") as out:  # a file, not a pipe: the workers inherit it
        code = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                              stdout=out, stderr=subprocess.STDOUT).returncode
    assert code == -signal.SIGKILL
    pids = [int(pid) for pid in log.read_text().split()[:2]]
    assert len(pids) == 2
    deadline = time.monotonic() + 20
    while not all(map(gone, pids)):
        assert time.monotonic() < deadline, "a worker outlived its dispatcher"
        time.sleep(0.01)
    assert "Traceback" not in log.read_text()


class ServiceChaos(RuleBasedStateMachine):
    """Submit, pump and kill in any order.

    Each worker pauses at a gate before every job until a ``pump`` step
    opens it.  Between steps, every running job is therefore waiting at
    its gate, so a kill of a gated worker is known to hit a job in hand
    and a kill of any other worker is known to hit an idle one.
    """

    WORKLOADS = ("filter_min", "nested_topk")

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="chaos-")
        self.gates = os.path.join(self.dir, "gates")
        os.makedirs(self.gates)
        gates = self.gates

        def gated(raw_spec):
            mark = os.path.join(gates, str(os.getpid()))
            with open(mark + ".tmp", "w") as fh:
                fh.write(raw_spec["job_id"])
            os.replace(mark + ".tmp", mark)
            while not os.path.exists(mark + ".open"):
                time.sleep(0.001)
            os.unlink(mark + ".open")
            return REAL_RUN_JOB(raw_spec)

        worker.run_job = gated  # before the first admission forks a worker
        self.service = JobService(
            workers=2, spool=os.path.join(self.dir, "spool"),
            tenants={"a": 2.0, "b": 1.0},
        )
        self.kills = {}  # job id -> kills that hit its worker mid-job

    def waiting(self):
        """``{worker process: job id}`` of the workers waiting at their gate."""
        out = {}
        for process in multiprocessing.active_children():
            try:
                with open(os.path.join(self.gates, str(process.pid))) as fh:
                    out[process] = fh.read()
            except FileNotFoundError:
                pass
        return out

    def kill(self, process):
        """SIGKILL a worker and wait until it is dead, so the service
        cannot hand it a job in between."""
        os.kill(process.pid, signal.SIGKILL)
        process.join()
        self.settle()

    def settle(self):
        """Pump until no job is running past its gate."""
        deadline = time.monotonic() + 20
        while True:
            self.service.pump()
            running = [
                j["spec"]["job_id"] for j in self.service.status()["jobs"]
                if j["status"] == "running"
            ]
            if sorted(self.waiting().values()) == sorted(running):
                return
            assert time.monotonic() < deadline, "the service did not settle"
            self.service.wait(0.005)

    def open_gates(self):
        for process in self.waiting():
            os.unlink(os.path.join(self.gates, str(process.pid)))
            open(os.path.join(self.gates, f"{process.pid}.open"), "w").close()

    @initialize(jobs=st.integers(1, 4))
    def backlog(self, jobs):
        for index in range(jobs):
            self.service.submit("ab"[index % 2], self.WORKLOADS[index % 2])
        self.settle()

    @rule(tenant=st.sampled_from(["a", "b"]), workload=st.sampled_from(WORKLOADS))
    def submit(self, tenant, workload):
        self.service.submit(tenant, workload)

    @rule()
    def pump(self):
        self.open_gates()
        self.settle()

    @rule(index=st.integers(0, 1))
    def kill_busy(self, index):
        waiting = sorted(self.waiting().items(), key=lambda item: item[1])
        if waiting:
            process, job = waiting[index % len(waiting)]
            os.unlink(os.path.join(self.gates, str(process.pid)))
            self.kills[job] = self.kills.get(job, 0) + 1
            self.kill(process)

    @rule()
    def kill_idle(self):
        waiting = self.waiting()
        idle = [p for p in multiprocessing.active_children() if p not in waiting]
        if idle:
            self.kill(idle[0])

    def teardown(self):
        try:
            counts = self.service.status()["counts"]
            while counts["queued"] or counts["running"]:
                self.pump()
                counts = self.service.status()["counts"]
            kinds, recoveries = audit(self.service)
            died = 0
            for job_id, record in self.service.records.items():
                kills = self.kills.get(job_id, 0)
                assert kinds[job_id].count("retried") == min(kills, ATTEMPTS - 1)
                if kills >= ATTEMPTS:
                    died += 1
                    assert record.status == FAILED and "worker died" in record.error
                else:
                    assert record.status == DONE, record.error
            assert recoveries == sum(self.kills.values()) - died
        finally:
            self.service.close()
            worker.run_job = REAL_RUN_JOB
        assert not multiprocessing.active_children()


ServiceChaos.TestCase.settings = settings(
    max_examples=20, stateful_step_count=16, deadline=None
)
TestServiceChaos = ServiceChaos.TestCase
