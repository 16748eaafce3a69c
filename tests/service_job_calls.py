"""Profiled function calls of a cold and a warm service job, run in-process
with its stream on: what a job costs outside the service, with no clock in it.

``python tests/service_job_calls.py`` (with ``PYTHONPATH=src``) runs
``repro.service.worker.run_job`` — what a service worker runs per job, and
what ``benchmarks/wall`` times in-process as ``job_wall_p50_s`` on the
service workloads — for ``dl_grid`` and ``svc_private_t0`` against one
shared store, twice each under cProfile, and prints the call counts of
the cold (first) and the warm (second) job.  The cold job pays the
imports, the store misses and the workload's build; the warm one reads
the store and runs the MDF the worker kept.  Exact and repeatable on one
interpreter version, so CI's tier-1 summary tracks it.  Warm counts on
CPython 3.11: 10,303 / 8,172 with ``json.dumps`` per line, a write per
event and the registry snapshot in the result; 9,618 / 7,727 with the one
canonical encoder, a write per clock advance and per-family totals, and
an MDF built per job; 9,200 / 7,424 with the MDF built once per worker;
9,059 / 7,299 with each cache fact counted once; 8,698 / 7,061 with
counters folded when read (the worker reads its totals, so the fold runs
once, in one batch).  Not collected by pytest.
"""

import cProfile
import os
import tempfile

from repro.service.jobs import JobSpec
from repro.service.worker import run_job

WORKLOADS = ("dl_grid", "svc_private_t0")


def profiled_calls(spec) -> int:
    profile = cProfile.Profile()
    profile.enable()
    result = run_job(spec)
    profile.disable()
    if not result["ok"]:
        raise RuntimeError(result["error"])
    # not pstats' total_calls: it keys entries by (file, line, name), so the
    # generated __init__s of two dataclasses overwrite one another
    return sum(entry.callcount for entry in profile.getstats())


def job_calls(workload, directory):
    """``(cold, warm)`` calls of two back-to-back jobs of ``workload``."""
    spec = JobSpec(
        job_id="calls",
        tenant="t0",
        workload=workload,
        cache_dir=os.path.join(directory, "cache"),
        stream_path=os.path.join(directory, "calls.ndjson"),
    ).as_dict()
    return profiled_calls(spec), profiled_calls(spec)


def service_job_calls():
    with tempfile.TemporaryDirectory() as directory:
        return [job_calls(workload, directory) for workload in WORKLOADS]


if __name__ == "__main__":
    cold, warm = zip(*service_job_calls())
    print(f"cold {' / '.join(map(str, cold))}, warm {' / '.join(map(str, warm))}")
