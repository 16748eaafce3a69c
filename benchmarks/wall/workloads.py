"""The five workloads of the wall-clock benchmark.

Each workload makes its inputs from the seed, computes its own
correctness references in :meth:`setup`, runs a timed region sized by
``--seconds``, and checks every output afterwards.  With a
:class:`~measure.Tracer` it additionally records one span per layer
boundary, from benchmark-side timing subclasses handed to the engine
through public parameters — nothing under ``src/`` is patched.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, List, Optional, Tuple

from measure import SpeedClock, Tracer, layer_totals, mix_p50, percentile

from repro import run_mdf, validate_trace
from repro.cache import ResultCache, SharedCacheStore
from repro.cluster import GB, MB, Cluster
from repro.engine.job import EngineConfig
from repro.lab.workloads import get_workload
from repro.service import (
    DONE,
    JobService,
    JobSpec,
    outputs_digest,
    replay_service_registry,
    run_job,
    service_registry_diff,
)
from repro.service.obs import JOB_VIEW_FAMILIES
from repro.workloads import (
    MLPTrainer,
    cifar_like,
    deep_learning_mdf,
    math_op,
    string_int_pairs,
    synthetic_mdf,
)


def median(values: List[float]) -> float:
    return percentile(values, 50)


# ----------------------------------------------- timing subclasses (traced)
class TimedTrainer(MLPTrainer):
    """``MLPTrainer`` whose ``train`` records a ``workloads.operator`` span."""

    def __init__(self, tracer: Tracer, **kwargs: Any):
        super().__init__(**kwargs)
        self._tracer = tracer

    def fingerprint_token(self):
        # the recorder is not part of the operator's identity: without
        # this the cache would fingerprint the growing span list
        return (
            "MLPTrainer",
            self.hidden,
            self.num_classes,
            self.epochs,
            self.batch_size,
            self.seed,
        )

    def train(self, *args: Any, **kwargs: Any):
        with self._tracer.span("workloads.operator"):
            return super().train(*args, **kwargs)


class TimedStore(SharedCacheStore):
    def __init__(self, path: str, tracer: Tracer, **kwargs: Any):
        super().__init__(path, **kwargs)
        self._tracer = tracer

    def load(self, fingerprint):
        with self._tracer.span("cache.store_load"):
            return super().load(fingerprint)

    def save(self, *args: Any, **kwargs: Any):
        with self._tracer.span("cache.store_save"):
            return super().save(*args, **kwargs)


class TimedCache(ResultCache):
    def __init__(self, tracer: Tracer, **kwargs: Any):
        super().__init__(**kwargs)
        self._tracer = tracer

    def lookup(self, fingerprint, cluster):
        with self._tracer.span("cache.lookup"):
            return super().lookup(fingerprint, cluster)

    def admit(self, fingerprint, dataset, cluster):
        with self._tracer.span("cache.admit"):
            return super().admit(fingerprint, dataset, cluster)


class BenchService(JobService):
    """``JobService`` whose ``pump`` (also when ``drain`` calls it) lets
    the speed clock take a sample when one is due and, traced, records a
    ``service.pump`` span carrying its transition count."""

    def __init__(self, clock: SpeedClock, tracer: Optional[Tracer], **kwargs: Any):
        super().__init__(**kwargs)
        self._clock = clock
        self._tracer = tracer

    def pump(self) -> int:
        if self._tracer is None:
            transitions = super().pump()
        else:
            with self._tracer.span("service.pump") as index:
                transitions = super().pump()
            if index is not None:
                self._tracer.spans[index]["transitions"] = transitions
        self._clock.tick(ServiceWorkload.TICK_PERIOD_S)
        return transitions


# -------------------------------------------------------------------- base
class Workload:
    name = ""
    #: timed jobs per second of ``--seconds``, sized on the 2-core sandbox
    #: so the timed region lasts about ``--seconds``; a fixed count (not a
    #: deadline) keeps every exact count a pure function of seed and seconds
    jobs_per_second = 1.0
    min_jobs = 3
    cap_factor = 2.5

    def __init__(
        self,
        seed: int,
        seconds: float,
        tmp: str,
        tracer: Optional[Tracer] = None,
        clock: Optional[SpeedClock] = None,
    ):
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.tracer = tracer
        #: every time metric is re-timed to the quiet machine's speed
        self.clock = clock or SpeedClock()
        self.jobs = max(self.min_jobs, round(self.jobs_per_second * seconds))
        #: a slow machine stops the timed region here instead of running
        #: into the driver's timeout (a truncated solo run reports fewer
        #: jobs, a truncated service run fails the jobs it left unfinished)
        self.cap_s = self.cap_factor * seconds + 10.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.end_to_end: Dict[str, float] = {}
        #: the raw per-job times the end-to-end metrics were taken from,
        #: kept in the result file so a statistic can be re-derived later
        self.samples: Dict[str, list] = {}

    def span(self, name: str, job: Optional[str] = None):
        return self.tracer.span(name, job=job) if self.tracer else nullcontext()

    def record_spans(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.enabled = on

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    # A workload defines setup() (inputs, references, warm-up), run() (the
    # timed region; fills end_to_end and samples), check() (the oracle,
    # outside the timed region) and layers(quick) (traced runs only: the
    # per-layer metrics); close() releases what setup() made.

    def close(self) -> None:
        pass


# ------------------------------------------------ single-process workloads
class SoloWorkload(Workload):
    """Closed loop, one client, in-process: ``job(i)`` back to back."""

    #: leading iterations excluded from the medians (cold start)
    skip = 0
    #: every job is the reference job, so its simulated makespan must be too
    identical_jobs = True
    #: kernel runs per speed sample, one sample after every job
    tick_reps = 1
    #: the medians do not need the full count, and when the host's
    #: neighbours halve the machine's speed 114 full runs outlast the
    #: driver's time limit
    cap_factor = 0.7

    def job(self, i: int):
        """Run job ``i``; returns ``(JobResult, outputs digest)``."""
        raise NotImplementedError

    def expected(self, i: int) -> Optional[str]:
        """Reference digest of job ``i`` (None = not a sampled job)."""
        raise NotImplementedError

    def run(self) -> None:
        self.walls: List[float] = []
        #: per job: the loop's clock before it, after it, and after the
        #: loop's own work on its result
        marks: List[Tuple[float, float, float]] = []
        self.sims: List[float] = []
        self.counts: Dict[str, float] = {}
        sample_at = self.jobs // 2
        clock = self.clock
        gc.collect()
        self.record_spans(True)
        clock.tick(reps=self.tick_reps)
        start = time.perf_counter()
        for i in range(self.jobs):
            t0 = time.perf_counter()
            with self.span("job", job=f"{self.name}-{i}"):
                result, digest = self.job(i)
            t1 = time.perf_counter()
            self.walls.append(t1 - t0)
            self.sims.append(result.completion_time)
            expected = self.expected(i)
            if expected is not None and digest != expected:
                self.fail(f"job {i}: digest {digest[:12]} != reference {expected[:12]}")
            if self.tracer is not None:
                self.count(result)
            if i == sample_at or i == 0:
                self.sample = result
            t2 = time.perf_counter()
            marks.append((t0, t1, t2))
            clock.tick(reps=self.tick_reps)
            if t2 - start > self.cap_s:
                break
        self.record_spans(False)
        self.attempted = len(self.walls)
        self.samples = {
            "job_wall_s": self.walls,
            "job_start_s": [t0 - start for t0, _, _ in marks],
            **clock.samples(start),
        }
        marks = marks[self.skip if self.attempted > self.skip else 0 :]
        wall_p50 = median([clock.scaled(t0, t1) for t0, t1, _ in marks])
        self.end_to_end = {
            "job_wall_p50_s": wall_p50,
            # one closed-loop client: a job's latency is its wall time
            "latency_p50_s": wall_p50,
            # tails and the loop's own work on each result included, the
            # speed samples between the jobs not
            "jobs_per_s": len(marks) / sum(clock.scaled(t0, t2) for t0, _, t2 in marks),
            "sim_makespan_s": self.sim_makespan(),
        }

    def sim_makespan(self) -> float:
        return self.sims[0]

    def count(self, result) -> None:
        m = result.metrics
        for key, value in (
            ("core.stages", m.stages_executed),
            ("engine.tasks", m.tasks_executed),
            ("engine.branches_executed", m.branches_executed),
            ("cluster.evictions", m.evictions),
            ("cluster.memory_hit_ratio", m.memory_hit_ratio),
            ("cluster.bytes_read_disk", m.bytes_read_disk),
            ("trace.events", len(result.events)),
        ):
            self.counts[key] = self.counts.get(key, 0) + value

    def check(self) -> None:
        violations = validate_trace(self.sample.events)
        if violations:
            self.fail(f"validate_trace: {len(violations)} violations, first {violations[0]}")
        if self.identical_jobs and any(
            abs(s - self.reference_sim) > 1e-9 * self.reference_sim for s in self.sims
        ):
            self.fail("sim_makespan_s differs from the reference job's")

    def layers(self, quick: bool) -> Dict[str, float]:
        n = self.attempted
        totals = layer_totals(self.tracer.spans)

        def busy(name: str) -> float:
            return totals.get(name, {}).get("busy", 0.0) / n

        out = {key: value / n for key, value in self.counts.items()}
        # self time: run_mdf minus the operator and cache spans inside it
        control_s = totals["engine.run"]["self"] / n
        out.update(
            {
                "core.build_s": busy("core.build"),
                "engine.run_s": busy("engine.run"),
                "engine.control_s": control_s,
                "engine.control_us_per_event": 1e6 * control_s / out["trace.events"],
                "engine.residual_share": totals["job"]["self"] / totals["job"]["busy"],
                "workloads.operator_s": busy("workloads.operator"),
                "workloads.operator_calls": totals.get("workloads.operator", {}).get("count", 0) / n,
                "cache.open_s": busy("cache.open"),
                "cache.lookup_s": busy("cache.lookup"),
                "cache.admit_s": busy("cache.admit"),
                "cache.store_load_s": busy("cache.store_load"),
                "cache.store_save_s": busy("cache.store_save"),
                "service.digest_s": busy("service.digest"),
            }
        )
        return out


class WideExplore(SoloWorkload):
    name = "wide_explore"
    jobs_per_second = 16.0

    def setup(self) -> None:
        self.pairs = string_int_pairs(n=200, seed=self.seed)
        result, self.reference = self.job(0)
        self.reference_sim = result.completion_time

    def job(self, i: int):
        with self.span("core.build"):
            mdf = synthetic_mdf(self.pairs, b1=10, b2=10, nominal_bytes=1 * GB)
        self.cluster = Cluster(4, 256 * MB)
        with self.span("engine.run"):
            result = run_mdf(mdf, self.cluster, scheduler="bas", memory="amm")
        with self.span("service.digest"):
            digest = outputs_digest(result.outputs)
        return result, digest

    def expected(self, i: int) -> str:
        return self.reference

    def layers(self, quick: bool) -> Dict[str, float]:
        out = super().layers(quick)
        # synthetic_mdf takes no operator hook: probe math_op on one
        # partition's share of the pairs, scale by the exact task count,
        # and take the estimate out of run_mdf's self time
        part = self.pairs[: len(self.pairs) // 4]
        op = math_op(10)
        per_call = median([_timed(lambda: op(part)) for _ in range(201)])
        out["workloads.operator_calls"] = out["engine.tasks"]
        out["workloads.operator_s"] = per_call * out["engine.tasks"]
        out["engine.control_s"] -= out["workloads.operator_s"]
        out["engine.control_us_per_event"] = 1e6 * out["engine.control_s"] / out["trace.events"]
        reps = 3 if quick else 9
        cluster, events = self.cluster, self.sample.events
        out["trace.validate_s"] = median(
            [_timed(lambda: validate_trace(events)) for _ in range(reps)]
        )
        out["obs.snapshot_s"] = median(
            [
                _timed(lambda: cluster.obs.snapshot(names=JOB_VIEW_FAMILIES))
                for _ in range(reps)
            ]
        )
        # every service job streams its trace: the same job with and
        # without the NDJSON sink, interleaved
        mdf = synthetic_mdf(self.pairs, b1=10, b2=10, nominal_bytes=1 * GB)
        stream = os.path.join(self.tmp, "stream_tax.ndjson")
        plain, streamed = [], []
        for _ in range(reps):
            for live, into in ((None, plain), (stream, streamed)):
                into.append(
                    _timed(
                        lambda: run_mdf(
                            mdf, Cluster(4, 256 * MB), scheduler="bas", memory="amm", live=live
                        )
                    )
                )
        out["live.stream_tax_s"] = median(streamed) - median(plain)
        return out


class HeavyBranches(SoloWorkload):
    name = "heavy_branches"
    jobs_per_second = 1.8
    tick_reps = 5  # few, long jobs: a steadier sample beside each

    def setup(self) -> None:
        self.data = cifar_like(n_samples=600, features=64, seed=self.seed)
        kwargs = {"hidden": 16, "epochs": 5}
        self.trainer = (
            TimedTrainer(self.tracer, **kwargs) if self.tracer else MLPTrainer(**kwargs)
        )
        self.backend = "serial"
        result, self.reference = self.job(0)
        self.reference_sim = result.completion_time

    def job(self, i: int):
        with self.span("core.build"):
            mdf = deep_learning_mdf(self.data, mode="exhaustive", trainer=self.trainer)
        cluster = Cluster(4, 4 * GB)
        with self.span("engine.run"):
            result = run_mdf(
                mdf, cluster, scheduler="bas", memory="amm", backend=self.backend
            )
        with self.span("service.digest"):
            digest = outputs_digest(result.outputs)
        return result, digest

    def expected(self, i: int) -> str:
        return self.reference

    def layers(self, quick: bool) -> Dict[str, float]:
        out = super().layers(quick)
        # diagnostic only (0.6-1.0 and noisy on 2 cores): the same job on
        # the mp backend, from an untraced instance so the pool's workers
        # run the plain trainer
        probe = HeavyBranches(self.seed, self.seconds, self.tmp)
        probe.setup()
        walls = {}
        for backend in ("serial", "mp"):
            probe.backend = backend
            samples = []
            for _ in range(1 if quick else 3):
                t0 = time.perf_counter()
                _, digest = probe.job(0)
                samples.append(time.perf_counter() - t0)
                if digest != self.reference:
                    self.fail(f"backend {backend}: digest differs from reference")
            walls[backend] = median(samples)
        out["engine.backends.mp_wall_ratio"] = walls["serial"] / walls["mp"]
        return out


class ExploreSession(SoloWorkload):
    name = "explore_session"
    jobs_per_second = 28.0
    min_jobs = 8
    skip = 1  # iteration 1 meets an empty store
    identical_jobs = False
    QUOTA = 2 * 1024 * 1024
    REFERENCES = 8

    def setup(self) -> None:
        self.data = cifar_like(n_samples=600, features=64, seed=self.seed)
        kwargs = {"hidden": 16, "epochs": 5}
        self.trainer = (
            TimedTrainer(self.tracer, **kwargs) if self.tracer else MLPTrainer(**kwargs)
        )
        # a cache-off reference for each of the session's distinct jobs
        # would cost more than the session; a fixed sample is compared
        step = max(1, (self.jobs - 1) // (self.REFERENCES - 1))
        sampled = sorted({*range(0, self.jobs, step), self.jobs - 1})
        self.store_dir = None
        self.references = {i: self.job(i)[1] for i in sampled}
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.tmp)
        self.cache_stats: Dict[str, int] = {}

    def window(self, i: int) -> List[float]:
        """Six learning rates; each iteration drops one and adds one."""
        return [round(0.0005 + 0.00001 * (i + j), 8) for j in range(6)]

    def job(self, i: int):
        cache = store = None
        if self.store_dir is not None:
            with self.span("cache.open"):
                kwargs = {"tenant": "analyst", "quota_bytes": self.QUOTA}
                if self.tracer:
                    store = TimedStore(self.store_dir, self.tracer, **kwargs)
                    cache = TimedCache(self.tracer, store=store)
                else:
                    store = SharedCacheStore(self.store_dir, **kwargs)
                    cache = ResultCache(store=store)
        with self.span("core.build"):
            mdf = deep_learning_mdf(
                self.data,
                mode="hyper_only",
                trainer=self.trainer,
                rates=self.window(i),
                momenta=(0.0, 0.9),
                nominal_bytes=1 * GB,
            )
        # materialised choose: losing branches are written behind too
        config = EngineConfig(pruning=False, incremental_choose=False, cache=cache)
        cluster = Cluster(4, 4 * GB)
        with self.span("engine.run"):
            result = run_mdf(mdf, cluster, scheduler="bas", memory="amm", config=config)
        with self.span("service.digest"):
            digest = outputs_digest(result.outputs)
        if cache is not None:
            stats = cache.stats
            for key, value in (
                ("hits", stats.hits),
                ("misses", stats.misses),
                ("store_hits", stats.store_hits),
                ("store_writes", stats.store_writes),
                ("quota_evictions", store.quota_evictions),
            ):
                self.cache_stats[key] = self.cache_stats.get(key, 0) + value
        return result, digest

    def expected(self, i: int) -> Optional[str]:
        return self.references.get(i)

    def sim_makespan(self) -> float:
        return sum(self.sims)

    def layers(self, quick: bool) -> Dict[str, float]:
        out = super().layers(quick)
        stats = self.cache_stats
        out.update(
            {
                "cache.store_hits": stats["store_hits"],
                "cache.store_writes": stats["store_writes"],
                "cache.hit_ratio": stats["hits"] / (stats["hits"] + stats["misses"]),
                "cache.quota_evictions": stats["quota_evictions"],
                "cache.cold_job_wall_s": self.walls[0],
                **store_footprint(self.store_dir),
            }
        )
        return out

    def close(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


def _timed(call) -> float:
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def store_footprint(path: str) -> Dict[str, float]:
    entries = [name for name in os.listdir(path) if name.endswith(".pkl")]
    return {
        "cache.store_entries": len(entries),
        "cache.store_bytes": sum(os.path.getsize(os.path.join(path, e)) for e in entries),
    }


# ------------------------------------------------------- service workloads
SHARED = "dl_grid"

_SPINNER = """
import os
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
parent = os.getppid()
while os.getppid() == parent:  # an orphan stops by itself
    for _ in range(1_000_000):
        pass
"""


@contextmanager
def awake():
    """Keep every CPU out of its idle state while the block runs.

    Service workers sit idle between jobs, and on this shared host a CPU
    that went idle runs its next job at half speed or worse (the same
    ``dl_grid`` job took 11 ms after busy-waiting and 19-45 ms after
    idling, flipping between whole runs with the neighbours' load).  One
    ``SCHED_IDLE`` busy-loop per CPU yields to any real work at once and
    pins the machine in the fast state: the benchmark's stand-in for
    booting with ``idle=poll``, which it cannot do.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPINNER])
        for _ in os.sched_getaffinity(0)
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def kind(workload: str) -> str:
    return "shared" if workload == SHARED else "private"


class ServiceWorkload(Workload):
    """Jobs through ``JobService(workers=2)`` with every default on."""

    TENANTS = {"t0": 2.0, "t1": 1.0, "t2": 1.0}
    INPROC_JOBS = 240
    #: one job in ``shared_every`` is the shared ``dl_grid``, the others
    #: the submitting tenant's private workload
    shared_every = 2
    min_jobs = 8
    #: the dispatcher lets the speed clock sample this often (3 ms each)
    TICK_PERIOD_S = 0.1

    def setup(self) -> None:
        self.references = {}
        for name in [SHARED] + [f"svc_private_{t}" for t in self.TENANTS]:
            result, _ = get_workload(name).run()
            self.references[name] = outputs_digest(result.outputs)
        self.spool = tempfile.mkdtemp(prefix="spool-", dir=self.tmp)
        kwargs = {"workers": 2, "tenants": dict(self.TENANTS), "spool": self.spool}
        self.service = BenchService(self.clock, self.tracer, **kwargs)
        # a job of every kind through the public API: forks the pool and
        # puts the store in its steady state before anything is timed
        self.service.submit("t0", SHARED)
        for tenant in self.TENANTS:
            self.service.submit(tenant, f"svc_private_{tenant}")
        self.service.drain(timeout=120)
        self.warmup = set(self.service.records)
        self.plan = self.make_plan(random.Random(self.seed))
        #: job id -> [due, submit call start, submit call end, observed
        #: finished], on the driver's monotonic clock
        self.stamps: Dict[str, List[Optional[float]]] = {}

    def make_plan(self, rng: random.Random) -> List[Tuple[str, str]]:
        """``(tenant, workload)`` per job: tenants 2:1:1 and the shared
        share exact, their order drawn from the seed."""
        n = self.jobs
        tenants = (["t0", "t0", "t1", "t2"] * (n // 4 + 1))[:n]
        shared = ([True] + [False] * (self.shared_every - 1)) * (n // self.shared_every + 1)
        shared = shared[:n]
        rng.shuffle(tenants)
        rng.shuffle(shared)
        return [
            (tenant, SHARED if is_shared else f"svc_private_{tenant}")
            for tenant, is_shared in zip(tenants, shared)
        ]

    def submit(self, due: Optional[float], tenant: str, workload: str) -> str:
        t0 = time.perf_counter()
        job_id = self.service.submit(tenant, workload)
        self.stamps[job_id] = [t0 if due is None else due, t0, time.perf_counter(), None]
        self.clock.tick(self.TICK_PERIOD_S)
        return job_id

    def timed_records(self):
        return [
            record
            for job_id, record in sorted(self.service.records.items())
            if job_id not in self.warmup
        ]

    def finish(
        self, start: float, intervals: List[Tuple[str, float, float]], wall: float
    ) -> None:
        """``intervals``: per job its kind and the two ends of its latency."""
        records = self.timed_records()
        self.attempted = len(records)
        done = [r for r in records if r.status == DONE]
        self.samples = {
            "latency_s": [(k, self.clock.scaled(a, b)) for k, a, b in intervals],
            "latency_raw_s": [(k, b - a) for k, a, b in intervals],
            "worker_wall_s": [(kind(r.spec.workload), r.result["wall_s"]) for r in done],
            "job_wall_s": self.inproc_run_jobs(),
            **self.clock.samples(start),
        }
        self.end_to_end = {
            "job_wall_p50_s": mix_p50(self.samples["job_wall_s"]),
            "latency_p50_s": mix_p50(self.samples["latency_s"]),
            "jobs_per_s": self.attempted / wall,
            "sim_makespan_s": sum(r.result["completion_time"] for r in done),
        }

    def check(self) -> None:
        for record in self.timed_records():
            result = record.result or {}
            if record.status != DONE:
                self.fail(f"{record.job_id}: status {record.status}: {record.error}")
            elif result["outputs_digest"] != self.references[record.spec.workload]:
                self.fail(f"{record.job_id}: digest differs from the solo reference")
            elif result["violations"]:
                self.fail(f"{record.job_id}: {result['violations']} validator violations")
        t0 = time.perf_counter()
        replayed = replay_service_registry(self.spool)
        self.replay_s = time.perf_counter() - t0
        diff = service_registry_diff(self.service.obs, replayed)
        if diff:
            self.fail(f"replay parity: {len(diff)} differences, first {diff[0]}")

    def job_spans(self, records) -> List[float]:
        """Rebuild each job's span tree from its record's public stamps,
        moved from ``time.time`` onto the driver's monotonic clock.

        Per job, ``queue_wait + pipe_collect + worker wall`` equals
        ``JobRecord.latency`` exactly; returned is the share of the
        latency the *driver* saw (due time -> observed finished) that lies
        outside that: generator lateness, the head of ``submit`` and the
        tail of the ``pump`` that collected the job.
        """
        outside = []
        for record in records:
            due, t_submit, t_submitted, observed = self.stamps[record.job_id]
            submitted, started, finished = (
                stamp - self.clock_offset
                for stamp in (record.submitted_at, record.started_at, record.finished_at)
            )
            observed = finished if observed is None else observed
            add = self.tracer.add
            root = add("job", due, observed, job=record.job_id)
            add("bench.generator_late", due, t_submit, parent=root)
            add("service.queue_wait", submitted, started, parent=root)
            running = add("service.running", started, finished, parent=root)
            # only the worker's duration is known, not where in the running
            # interval it lies: pipe_collect is the running span's self time
            add("service.worker", started, started + record.result["wall_s"], parent=running)
            add("service.observe", finished, observed, parent=root)
            # the dispatcher's own spans carry the job id but no parent:
            # submit overlaps the job's queue_wait
            add("service.submit", t_submit, t_submitted, job=record.job_id)
            outside.append(1.0 - record.latency / (observed - due))
        return outside

    def layers(self, quick: bool) -> Dict[str, float]:
        service = self.service
        records = [r for r in self.timed_records() if r.status == DONE]
        n = len(records)
        reps = 1 if quick else 5
        outside = self.job_spans(records)
        totals = layer_totals(self.tracer.spans)
        pumps = [s for s in self.tracer.spans if s["name"] == "service.pump"]
        moving = [s for s in pumps if s["transitions"]]
        cache: Dict[str, float] = {}
        for record in records:
            counters = dict(record.result["cache"])
            counters["quota_evictions"] = record.result["store"]["quota_evictions"]
            for key, value in counters.items():
                cache[key] = cache.get(key, 0) + value
        out = {
            **store_footprint(service.cache_dir),
            "cache.store_hits": cache["store_hits"],
            "cache.store_writes": cache["store_writes"],
            "cache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "cache.quota_evictions": cache["quota_evictions"],
            "cache.flight_waits": cache["singleflight_waits"],
            "cache.cross_tenant_hits": cache["cross_tenant_hits"],
            "trace.events": sum(r.result["events"] for r in records) / n,
            "service.submit_s": totals["service.submit"]["busy"] / n,
            "service.pump_s": sum(s["end"] - s["start"] for s in moving)
            / max(1, sum(s["transitions"] for s in moving)),
            "service.dispatcher_busy_share": (
                totals["service.submit"]["busy"] + totals["service.pump"]["busy"]
            )
            / self.timed_wall,
            "service.queue_wait_p50_s": median([r.queue_wait for r in records]),
            "service.pipe_collect_p50_s": median(
                [r.finished_at - r.started_at - r.result["wall_s"] for r in records]
            ),
            "service.worker.wall_p50_s": median([r.result["wall_s"] for r in records]),
            "service.latency_p90_s": percentile([v for _, v in self.samples["latency_s"]], 90),
            "service.latency_residual_share": median(outside),
            "service.replay_s": self.replay_s,
            "service.write_state_s": median(
                [_timed(service.write_state) for _ in range(reps)]
            ),
            "service.obs.export_s": median(
                [_timed(lambda: service.obs.export(self.spool)) for _ in range(reps)]
            ),
            "service.state_bytes": os.path.getsize(os.path.join(self.spool, "state.json")),
            "service.events_bytes": os.path.getsize(
                os.path.join(self.spool, "service_events.ndjson")
            ),
        }
        inproc = [wall for _, wall in self.samples["job_wall_s"]]
        out["service.worker.inproc_run_job_s"] = sum(inproc) / len(inproc)
        self.close()  # reaps the pool, so RUSAGE_CHILDREN covers the workers
        out["service.worker.peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        return out

    def inproc_run_jobs(self) -> List[Tuple[str, float]]:
        """The mix again, repeated up to ``INPROC_JOBS`` jobs, ``run_job``
        called back to back in this process: a job's own wall, without
        pool, pipe or a neighbour.

        A worker's ``wall_s`` is the same code, but it runs beside the
        dispatcher and the other worker on two cores, and its median moved
        30% between two runs of one commit.
        """
        walls = []
        self.clock.tick()
        count = min(self.INPROC_JOBS, 3 * len(self.plan))
        mix = itertools.islice(itertools.cycle(self.plan), count)
        for tenant, workload in mix:
            spec = JobSpec(
                job_id="inproc",
                tenant=tenant,
                workload=workload,
                cache_dir=self.service.cache_dir,
                stream_path=os.path.join(self.tmp, "inproc.ndjson"),
            )
            t0 = time.perf_counter()
            result = run_job(spec.as_dict())
            t1 = time.perf_counter()
            self.clock.tick()
            walls.append((kind(workload), self.clock.scaled(t0, t1)))
            if result.get("outputs_digest") != self.references[workload]:
                self.fail(f"in-process run_job({workload}): digest differs")
        return walls

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.spool, ignore_errors=True)


class ServicePaced(ServiceWorkload):
    """Open loop: 6 jobs/s for ``--seconds``, latency from the due time."""

    name = "service_paced"
    jobs_per_second = 6.0
    shared_every = 2

    def make_plan(self, rng: random.Random):
        plan = super().make_plan(rng)
        # a Poisson process given its count is sorted uniforms: every
        # seed offers the same load, only the spacing differs
        self.due = sorted(rng.random() * self.seconds for _ in plan)
        return plan

    def run(self) -> None:
        service, plan = self.service, self.plan
        pending: Dict[str, str] = {}
        seen: List[Tuple[str, float, float]] = []  # kind, due, seen finished
        gc.collect()
        self.record_spans(True)
        self.clock_offset = time.time() - time.perf_counter()
        with awake():
            start = time.perf_counter()
            k = 0
            while k < len(plan) or pending:
                now = time.perf_counter()
                while k < len(plan) and start + self.due[k] <= now:
                    pending[self.submit(start + self.due[k], *plan[k])] = plan[k][1]
                    k += 1
                if service.pump():
                    now = time.perf_counter()
                    for job_id in [j for j in pending if service.record(j).finished_at]:
                        self.stamps[job_id][3] = now
                        seen.append((kind(pending.pop(job_id)), self.stamps[job_id][0], now))
                else:
                    time.sleep(0.002)
                if now - start > self.cap_s:
                    break
            self.timed_wall = time.perf_counter() - start
        self.record_spans(False)
        # an open loop's throughput is its arrival schedule, which runs on
        # the wall clock whatever the machine's speed: not re-timed
        self.finish(start, seen, self.timed_wall)

    def layers(self, quick: bool) -> Dict[str, float]:
        late = [t_submit - due for due, t_submit, _, _ in self.stamps.values()]
        out = super().layers(quick)
        out["bench.generator_late_p95_s"] = percentile(late, 95)
        return out


class ServiceBurst(ServiceWorkload):
    """Closed batch: everything submitted back-to-back, then drained."""

    name = "service_burst"
    jobs_per_second = 22.0
    shared_every = 4

    def run(self) -> None:
        gc.collect()
        self.record_spans(True)
        self.clock_offset = time.time() - time.perf_counter()
        with awake():
            self.clock.tick()
            start = time.perf_counter()
            for tenant, workload in self.plan:
                self.submit(None, tenant, workload)
            self.service.drain(timeout=self.cap_s)
            end = time.perf_counter()
        self.timed_wall = end - start
        self.record_spans(False)
        offset = self.clock_offset
        self.finish(
            start,
            [
                (kind(r.spec.workload), r.submitted_at - offset, r.finished_at - offset)
                for r in self.timed_records()
                if r.status == DONE
            ],
            self.clock.scaled(start, end),
        )

    def layers(self, quick: bool) -> Dict[str, float]:
        # after the drain every share equals the submitted share; what
        # fair queuing controls is who went first, so audit the first half
        records = sorted(self.timed_records(), key=lambda r: r.started_at)
        first = records[: len(records) // 2]
        total = sum(self.TENANTS.values())
        out = super().layers(quick)
        out["service.admission_share_err"] = max(
            abs(sum(r.tenant == t for r in first) / len(first) - w / total)
            for t, w in self.TENANTS.items()
        )
        return out


REGISTRY = {
    cls.name: cls
    for cls in (WideExplore, HeavyBranches, ExploreSession, ServicePaced, ServiceBurst)
}
