"""What watching a job costs: the observability tax, one row per layer.

``python tests/obs_tax.py`` (with ``PYTHONPATH=src``) prints one markdown
table row per watching cost, in milliseconds and as a share of the job, for
two jobs:

* ``wide_explore`` — one ``synthetic_mdf(b1=10, b2=10)`` job on
  ``Cluster(4, 256 MB)`` under ``bas`` + ``amm`` (the job
  ``benchmarks/wall`` times), unread and unstreamed: the share base;
* ``run_job mix`` — a warm in-process ``repro.service.worker.run_job`` of
  ``dl_grid`` and one of ``svc_private_t0`` against one shared store, with
  the stream and the validators on, as a service worker runs them.

The rows:

* *trace recording* — the job with its trace on, minus the job with it
  off (``Trace.enabled``), minus what the rows below spend reading it
  (what is left is emit, plus the per-event hand-off to a stream);
* *strict emit checks* — a strict trace minus a lax one (the payload
  schema and the amount checks of ``Trace.emit``);
* *fold, unread* and *fold, read* — time inside ``TraceFold.fold`` in a
  job nobody reads, and in the first registry access after the job
  (``result.metrics.as_dict()``; a service worker reads its totals);
* *stream encode* and *stream write* — ``events_jsonl`` inside
  ``StreamWriter._write``, and the rest of ``_write`` (write + flush);
* *validators* — ``validate_trace`` over the job's events.

Each figure is the median over interleaved repetitions; ``cpu_count`` is
printed with them.  A wall-clock measurement on a shared machine, so it
is tracked, not gated.  Not collected by pytest.
"""

import os
import statistics
import sys
import tempfile
import time

import repro.cluster.cluster as cluster_module
import repro.live.stream as stream_module
import repro.service.worker as worker_module
from repro import Cluster, run_mdf
from repro.cluster import GB, MB
from repro.live.stream import StreamWriter
from repro.obs.bridge import TraceFold
from repro.service.jobs import JobSpec
from repro.trace import Trace
from repro.workloads import string_int_pairs, synthetic_mdf

REPS = 21
MIX = ("dl_grid", "svc_private_t0")


class Timer:
    """Wall seconds spent in calls to ``owner.name``, since the last reset."""

    def __init__(self, owner, name):
        self.seconds = 0.0
        original = getattr(owner, name)

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - started

        setattr(owner, name, timed)

    def take(self) -> float:
        seconds, self.seconds = self.seconds, 0.0
        return seconds


FOLD = Timer(TraceFold, "fold")
ENCODE = Timer(stream_module, "events_jsonl")
WRITE = Timer(StreamWriter, "_write")
VALIDATE = Timer(worker_module, "validate_trace")


def traces(enabled=True, strict=True):
    """Make every cluster (re)built from here on record with this trace."""

    class Configured(Trace):
        def __init__(self, clock=None):
            super().__init__(clock=clock, strict=strict)
            self.enabled = enabled

    cluster_module.Trace = Configured


def wide_job(pairs, directory, watched):
    """One wide job; ``watched`` streams it, reads it and validates it."""
    mdf = synthetic_mdf(pairs, b1=10, b2=10, nominal_bytes=1 * GB)
    live = os.path.join(directory, "wide.ndjson") if watched else None
    started = time.perf_counter()
    result = run_mdf(mdf, Cluster(4, 256 * MB), scheduler="bas", memory="amm", live=live)
    wall = time.perf_counter() - started
    if watched:
        result.metrics.as_dict()
        worker_module.validate_trace(result.events)
    return wall


def mix_job(specs):
    """The warm mix: one ``run_job`` per workload, summed."""
    started = time.perf_counter()
    for spec in specs:
        result = worker_module.run_job(spec)
        assert result["ok"], result["error"]
    return time.perf_counter() - started


def sample(job, modes):
    """``{mode: {row: [seconds per repetition]}}`` over interleaved runs."""
    out = {mode: {} for mode in modes}
    for rep in range(REPS + 1):
        for mode, (enabled, strict) in modes.items():
            traces(enabled, strict)
            for timer in (FOLD, ENCODE, WRITE, VALIDATE):
                timer.take()
            wall = job(mode)
            if rep == 0:
                continue  # warm-up: imports, plans, the store's first writes
            rows = out[mode]
            encode, write = ENCODE.take(), WRITE.take()
            for row, seconds in (
                ("job", wall),
                ("fold", FOLD.take()),
                ("encode", encode),
                ("write", write - encode),
                ("validate", VALIDATE.take()),
            ):
                rows.setdefault(row, []).append(seconds)
    traces()
    return {
        mode: {row: statistics.median(values) for row, values in rows.items()}
        for mode, rows in out.items()
    }


def tax_rows(name, on, off, lax, read):
    """``(job, row, seconds)``: ``on`` is the base, ``read`` the watched run."""
    readers = on["fold"] + on["encode"] + on["write"] + on["validate"]
    yield name, "job (the share base)", on["job"]
    yield name, "trace recording", on["job"] - readers - off["job"]
    yield name, "strict emit checks", on["job"] - lax["job"]
    yield name, "fold, unread", on["fold"]
    yield name, "fold, read", read["fold"]
    yield name, "stream encode", read["encode"]
    yield name, "stream write", read["write"]
    yield name, "validators", read["validate"]


def measure():
    modes = {"on": (True, True), "off": (False, True), "lax": (True, False), "read": (True, True)}
    pairs = string_int_pairs(n=200, seed=1)
    with tempfile.TemporaryDirectory() as directory:
        wide = sample(lambda mode: wide_job(pairs, directory, mode == "read"), modes)
        specs = [
            JobSpec(
                job_id=f"tax-{workload}",
                tenant="t0",
                workload=workload,
                cache_dir=os.path.join(directory, "cache"),
                stream_path=os.path.join(directory, f"{workload}.ndjson"),
            ).as_dict()
            for workload in MIX
        ]
        # a service job always streams, validates and reads its totals
        del modes["read"]
        mix = sample(lambda mode: mix_job(specs), modes)
        mix["read"] = mix["on"]
    yield from tax_rows("wide_explore", **wide)
    for job, row, seconds in tax_rows("run_job mix (warm)", **mix):
        yield job, row, (None if row == "fold, unread" else seconds)


def main():
    print(
        f"cpu_count {os.cpu_count()}, python {sys.version.split()[0]}, "
        f"median of {REPS} interleaved repetitions"
    )
    print()
    print("| job | row | ms | share |")
    print("|---|---|---|---|")
    base = {}
    for job, row, seconds in measure():
        base.setdefault(job, seconds)
        if seconds is None:
            print(f"| {job} | {row} | – | – |")
        else:
            print(f"| {job} | {row} | {1e3 * seconds:.2f} | {seconds / base[job]:.1%} |")


if __name__ == "__main__":
    main()
