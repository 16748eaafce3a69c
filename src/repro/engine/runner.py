"""Top-level execution API: ``run_mdf`` and friends.

This is the function downstream users call::

    from repro import run_mdf, Cluster, GB

    cluster = Cluster(num_workers=8, mem_per_worker=4 * GB)
    result = run_mdf(mdf, cluster, scheduler="bas", memory="amm")
    print(result.completion_time, result.output)

``scheduler`` picks any registered scheduling policy by name — the paper's
branch-aware ``"bas"`` (Algorithm 1), the ``"bfs"`` baseline, or one of
the lab contenders (``"heft"``, ``"speculative"``, ``"wsteal"``,
``"random"``; see :mod:`repro.engine.policies`).  ``memory`` picks the
eviction policy by name (``"lru"``, ``"amm"``/Algorithm 2, or any name in
:data:`repro.cluster.memory.EVICTION_POLICIES`).  The cluster is reset
before the run (cold caches) unless ``reset=False``.

Everything that *watches* a run — the trace validators, the timeline
sampler, the live monitor, the NDJSON stream, the profile collector —
is a :class:`RunObserver` passed through ``observers=`` or installed for
a block with :func:`observing`; ``run_mdf`` knows the protocol, not the
features (DESIGN.md, "One run seam").
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import Iterator, List, Optional, Protocol, Sequence, Union

from ..cluster.cluster import Cluster
from ..cluster.memory import MemoryPolicy, make_policy
from ..core.mdf import MDF
from .job import EngineConfig, JobResult
from .master import Master
from .policies import available_schedulers, make_scheduler, register_scheduler
from .scheduler import Scheduler


class RunObserver(Protocol):
    """The one seam between ``run_mdf`` and anything that watches a run.

    ``begin`` runs after the cluster reset and policy binding and before
    the :class:`~repro.engine.master.Master` exists: subscribe to
    ``cluster.trace`` / ``cluster.clock`` here.  ``end`` runs once for
    every ``begin`` that returned, in reverse ``begin`` order, with the
    :class:`~repro.engine.job.JobResult` — or ``None`` when construction
    or the run raised: unsubscribe, close, and hang artifacts on the
    result here.  Observers are pure: an observed run's trace is
    byte-identical to an unobserved one.
    """

    def begin(self, mdf: MDF, cluster: Cluster, config: EngineConfig) -> None: ...

    def end(self, result: Optional[JobResult]) -> None: ...


#: the observers every ``run_mdf`` in this process begins before its own
#: ``observers=`` — the one piece of ambient run state, managed by
#: ``observing``.  It belongs to the process that filled it: observers hold
#: that process's handles and buffers, so a forked child (a service pool
#: worker) starts with none.
_ambient: List[RunObserver] = []
if hasattr(os, "register_at_fork"):  # no fork, no inheritance
    os.register_at_fork(after_in_child=_ambient.clear)


@contextlib.contextmanager
def observing(*observers: RunObserver) -> Iterator[None]:
    """Observe every ``run_mdf`` call made inside the block.

    For callers that cannot reach the call site: ``python -m repro.bench
    --validate/--profile/--live`` wraps a figure that calls ``run_mdf``
    internally.  Blocks nest — an inner block adds to the outer one's
    observers and leaving it, exception or not, restores them.
    """
    outer = len(_ambient)
    _ambient.extend(observers)
    try:
        yield
    finally:
        del _ambient[outer:]


# ``live`` and ``backend`` are not features of the runner: they are the two
# spellings the frozen ``benchmarks/wall`` harness (and the service worker)
# already pass.  ``backend=b`` is ``config.backend = b``; ``live=sink`` is
# ``observers=[StreamWriter(sink)]``.  Nothing else belongs here — a new
# way of watching a run is a new observer, not a new keyword.
def run_mdf(
    mdf: MDF,
    cluster: Cluster,
    scheduler: Union[str, Scheduler] = "bas",
    memory: Union[str, MemoryPolicy, None] = None,
    config: Optional[EngineConfig] = None,
    reset: bool = True,
    observers: Sequence[RunObserver] = (),
    live=None,
    backend=None,
) -> JobResult:
    """Execute an MDF on a cluster and return the job result.

    Parameters
    ----------
    mdf:
        The meta-dataflow to execute (validated before the run).
    cluster:
        The simulated cluster.  Its clock and metrics are reset first
        unless ``reset=False`` (warm-cache continuation runs).
    scheduler:
        A registered policy name — ``"bas"`` (default, Algorithm 1),
        ``"bfs"``, ``"heft"``, ``"speculative"``, ``"wsteal"``,
        ``"random"`` or anything added via
        :func:`~repro.engine.policies.register_scheduler` — or a
        scheduler object.
    memory:
        ``"lru"``, ``"amm"``, a policy object, or None to keep the
        cluster's current policy.
    config:
        Engine knobs; defaults to incremental choose + pruning on.  A
        :class:`~repro.cluster.fault.FailureInjector` in ``config.failures``
        makes the run pay real recovery costs: lost partitions reload from
        checkpoints or recompute from lineage
        (:class:`~repro.engine.recovery.RecoveryManager`), and the
        ``recovery_sound`` validator checks the replay discipline.
    observers:
        :class:`RunObserver` objects for this run, begun after the ambient
        ones (:func:`observing`) in list order and ended in reverse:
        :class:`~repro.trace.validate.Validator` (raise
        :class:`~repro.trace.validate.InvariantViolation` on a breached
        paper invariant), :class:`~repro.obs.timeline.TimelineSampler`
        (``result.telemetry``), :class:`~repro.live.monitor.LiveMonitor`
        (``result.live``: progress/ETA, watchdog alerts),
        :class:`~repro.live.stream.StreamWriter` (NDJSON trace stream),
        :class:`~repro.prof.collect.ProfileCollector`,
        :class:`~repro.live.hook.LiveHook` — or anything else with
        ``begin``/``end``.
    live:
        ``None`` (default) or an NDJSON sink — a path or writable text
        stream — as shorthand for ``observers=[StreamWriter(sink)]``: the
        trace is streamed there, byte-identical to the post-hoc
        ``result.events.to_jsonl()``.  Anything else is a ``TypeError``;
        monitors go through ``observers=[LiveMonitor(...)]``.
    backend:
        Execution backend for the real operator work: a registry name
        (``"serial"`` — the default — or ``"mp"``) or an
        :class:`~repro.engine.backends.ExecutionBackend` instance.
        Overrides ``config.backend`` when given.  Backends only change
        real wall-clock time; simulated results are byte-identical
        across backends (see ``docs/parallel_execution.md``).
    """
    config = config or EngineConfig()
    if backend is not None:
        config = dataclasses.replace(config, backend=backend)
    if live is not None:
        # lazy: repro.live imports the engine's estimator
        from ..live.stream import StreamWriter

        observers = (*observers, StreamWriter(live))
    if reset:
        cluster.reset()
    if memory is not None:
        cluster.policy = make_policy(memory) if isinstance(memory, str) else memory
    if isinstance(scheduler, str):
        scheduler = make_scheduler(scheduler, config)
    result: Optional[JobResult] = None
    with contextlib.ExitStack() as stack:
        for observer in (*_ambient, *observers):
            observer.begin(mdf, cluster, config)
            # reads ``result`` when it runs: None unless the run returned
            stack.callback(lambda end=observer.end: end(result))
        master = Master(mdf, cluster, scheduler=scheduler, config=config)
        # release single-flight leases a shared-store cache may still hold
        # (discarded deferred tails, failed runs) so concurrent jobs
        # waiting on them unblock promptly
        finish = getattr(config.cache, "finish_run", None)
        if finish is not None:
            stack.callback(finish)  # last in, so first out: before any ``end``
        result = master.run()
    return result
