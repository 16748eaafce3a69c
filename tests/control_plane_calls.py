"""Profiled function calls of one ``wide_explore``-shaped job: a control-plane
cost with no clock in it.

``python tests/control_plane_calls.py`` (with ``PYTHONPATH=src``) prints how
many Python-level calls cProfile counts for one ``synthetic_mdf(b1=10,
b2=10)`` job on ``Cluster(4, 256 MB)`` under ``bas`` + ``amm`` — the job
``benchmarks/wall``'s ``wide_explore`` times.  The count is exact and
repeatable on one interpreter version (CPython 3.11: 178,158 with object
counters and the ``_inc`` call chain, 153,903 with counter cells, 155,133
with the job result read from the run's events, 131,129 with counters
folded when read — nothing reads this job's, so it folds nothing), so
CI's tier-1 summary tracks it: a control-plane regression shows up here
on any machine, however noisy its clock.  Not collected by pytest.
"""

import cProfile

from repro import Cluster, run_mdf
from repro.cluster import GB, MB
from repro.workloads import string_int_pairs, synthetic_mdf


def job(pairs):
    mdf = synthetic_mdf(pairs, b1=10, b2=10, nominal_bytes=1 * GB)
    return run_mdf(mdf, Cluster(4, 256 * MB), scheduler="bas", memory="amm")


def profiled_calls() -> int:
    pairs = string_int_pairs(n=200, seed=1)
    job(pairs)  # imports, code objects and memoised plans are not the job's
    profile = cProfile.Profile()
    profile.enable()
    job(pairs)
    profile.disable()
    # not pstats' total_calls: it keys entries by (file, line, name), so the
    # generated __init__s of two dataclasses overwrite one another
    return sum(entry.callcount for entry in profile.getstats())


if __name__ == "__main__":
    print(profiled_calls())
