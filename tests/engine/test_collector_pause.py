"""The cyclic garbage collector sits a run out (``Master.run``).

A run makes no reference cycle, so the collector is paused while any run
is in progress and put back as it was found: on or off, after a run that
raises, after nested runs and after runs that overlap on two threads.
The premise is checked too: a run with the collector off leaves nothing
for ``gc.collect()`` to find, for the wide job and every zoo workload.
A forked pool worker, which outlives the run it was forked in, turns the
collector back on.
"""

import gc
import multiprocessing
import threading

import pytest

from repro import CallableEvaluator, Cluster, GB, MB, MDFBuilder, Max
from repro.core.errors import ExecutionError
from repro.engine import run_mdf
from repro.engine.backends import MPBackend
from repro.lab.workloads import available_workloads, get_workload
from repro.workloads import string_int_pairs, synthetic_mdf

WAIT_S = 30


def _mdf(step=lambda x, k: x + k):
    """Source -> three-branch explore -> choose; branch ``k`` maps each
    row ``x`` to ``step(x, k)``."""

    def body(pipe, params):
        return pipe.map(lambda x, k=params["k"]: step(x, k), name=f"step-{params['k']}")

    b = MDFBuilder("pause")
    (
        b.read_data(list(range(20)), name="src", nominal_bytes=16 * MB)
        .explore({"k": [0, 1, 2]}, body, name="grid")
        .choose(CallableEvaluator(lambda xs: -min(xs), name="neg-min"), Max(), name="pick")
        .write(name="out")
    )
    return b.build()


def _run(mdf=None, on_event=None):
    """One run of ``mdf`` on a fresh cluster; ``on_event`` sees every event
    as it is emitted (``reset=False`` keeps the subscribed trace)."""
    cluster = Cluster(2, 1 * GB)
    if on_event is not None:
        cluster.trace.subscribe(on_event)
    return run_mdf(mdf or _mdf(), cluster, reset=False)


@pytest.fixture
def collector():
    """Yield, then restore the collector to the state it was in."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_a_run_restores_the_state_it_found(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    during = []
    _run(on_event=lambda event: during.append(gc.isenabled()))
    assert during and not any(during)
    assert gc.isenabled() is enabled


def test_a_raising_run_restores_the_collector(collector):
    gc.enable()

    def fail(x, k):
        raise ValueError("branch fails")

    with pytest.raises(ExecutionError):
        _run(_mdf(fail))
    assert gc.isenabled()


def test_nested_runs_restore_the_collector(collector):
    """A run inside an operator of another run: the inner run's end leaves
    the collector off, because the outer run is still in progress."""
    gc.enable()
    after_inner = []

    def nested(x, k):
        if not after_inner:
            _run()
            after_inner.append(gc.isenabled())
        return x + k

    _run(_mdf(nested))
    assert after_inner == [False]
    assert gc.isenabled()


def test_overlapping_runs_on_two_threads_restore_the_collector(collector):
    """The first run to end leaves the collector off while the other is
    still in progress; the last one to end turns it back on."""
    gc.enable()
    both_running = threading.Barrier(2, timeout=WAIT_S)
    first_done = threading.Event()
    seen, errors = [], []

    def first():
        try:
            _run(on_event=lambda event: both_running.wait() if event.seq == 0 else None)
        except BaseException as exc:  # reported below, on the test's thread
            errors.append(exc)
        finally:
            first_done.set()

    def second(event):
        if event.seq == 0:
            both_running.wait()
            assert first_done.wait(WAIT_S)
            seen.append(gc.isenabled())

    threads = [
        threading.Thread(target=first),
        threading.Thread(target=lambda: _run(on_event=second)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(WAIT_S)
    assert not errors and seen == [False]
    assert gc.isenabled()


def _leaves_no_cyclic_garbage(run):
    """``gc.collect()`` after ``run()``, with the collector off throughout,
    so a cycle made inside the run cannot have been collected on the way."""
    gc.collect()
    gc.disable()
    run()
    return gc.collect()


def test_the_wide_job_makes_no_cycle(collector):
    pairs = string_int_pairs(n=200, seed=1)
    mdf = synthetic_mdf(pairs, b1=10, b2=10, nominal_bytes=1 * GB)

    def wide():
        run_mdf(mdf, Cluster(4, 256 * MB), scheduler="bas", memory="amm")

    assert _leaves_no_cyclic_garbage(wide) == 0


@pytest.mark.parametrize("name", available_workloads())
def test_every_zoo_workload_makes_no_cycle(collector, name):
    assert _leaves_no_cyclic_garbage(get_workload(name).run) == 0


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the mp backend's pool needs the fork start method",
)
def test_a_pool_forked_inside_a_run_turns_the_collector_back_on(collector):
    """A caller-owned backend's pool outlives the run it was forked in."""
    gc.enable()
    mdf = _mdf(lambda x, k: gc.isenabled() if x is None else x + k)
    backend = MPBackend()
    try:
        run_mdf(mdf, Cluster(2, 1 * GB), backend=backend)
        pool = backend._pool
        assert pool is not None  # forked by the run's first prefetch
        # an operator the run prepared: the same pool, not a re-fork
        probe = [mdf.operator("step-0")]
        backend.prefetch_stage("probe", "narrow", probe, [[None]])
        assert backend.take_prefetched("probe") == [[True]]
        assert backend._pool is pool
    finally:
        backend.close()
