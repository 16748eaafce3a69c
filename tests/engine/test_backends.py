"""Execution-backend tests: registry, the mp prefetcher (transport,
inline redo, bookkeeping, reuse across runs) — plus executor-layer
regressions (fault-drain scope, cache-hit payload aliasing, wide-stage
byte splits)."""

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro import CallableEvaluator, Cluster, GB, MB, MDFBuilder, Max
from repro.cache import ResultCache, SharedCacheStore
from repro.core.errors import ExecutionError
from repro.core.operators import Aggregate, Filter, Map, Transform
from repro.core.stages import StageGraph
from repro.engine import EngineConfig, run_mdf
from repro.engine.backends import (
    MPBackend,
    SerialBackend,
    available_backends,
    make_backend,
    run_stage,
)
from repro.engine.executor import StageExecutor, _split_bytes

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="mp backend parallelism needs the fork start method"
)


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "serial" in names and "mp" in names

    def test_none_resolves_to_serial(self):
        assert isinstance(make_backend(None), SerialBackend)

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="serial"):
            make_backend("spark")


# ------------------------------------------------------------------------ mp
def _prefetched(backend, kind, ops, payloads):
    """One stage through ``prefetch_stage`` -> ``take_prefetched``."""
    backend.prepare(ops)
    backend.prefetch_stage("s", kind, ops, payloads)
    return backend.take_prefetched("s")


@pytest.fixture
def mp_backend():
    backend = MPBackend()
    yield backend
    backend.close()


@needs_fork
class TestMPBackend:
    def test_narrow_chain_matches_serial(self, mp_backend):
        ops = [
            Map(lambda x: x + 1, name="inc"),
            Filter(lambda x: x % 2 == 0, name="even"),
        ]
        payloads = [[1, 2, 3], [4, 5, 6]]
        expected = run_stage("narrow", ops, payloads)
        assert expected == [[2, 4], [6]]
        assert _prefetched(mp_backend, "narrow", ops, payloads) == expected

    def test_narrow_prefetch_take(self, mp_backend):
        ops = [Map(lambda x: x * 2, name="dbl")]
        mp_backend.prepare(ops)
        mp_backend.prefetch_stage("s1", "narrow", ops, [[1, 2], [3]])
        # idempotent per key: a second offer keeps the first dispatch
        mp_backend.prefetch_stage("s1", "narrow", ops, [[7]])
        assert mp_backend.take_prefetched("s1") == [[2, 4], [6]]
        assert mp_backend.take_prefetched("s1") is None  # taking consumes

    def test_wide_prefetch_runs_head_then_rest(self, mp_backend):
        ops = [
            Aggregate(lambda xs: sorted(xs), name="agg", selectivity=1.0),
            Map(lambda x: x * 10, name="x10"),
        ]
        payloads = [[3, 1], [2]]
        expected = run_stage("wide", ops, payloads)
        assert expected == [[10, 20], [30]]
        assert _prefetched(mp_backend, "wide", ops, payloads) == expected

    def test_large_arrays_round_trip(self, mp_backend):
        ops = [Transform(lambda a: a * 2, name="dbl")]
        payload = np.arange(100_000, dtype=np.float64)  # 800 KB
        (out,) = _prefetched(mp_backend, "narrow", ops, [payload])
        assert np.array_equal(out, payload * 2)

    def test_unpicklable_payload_falls_back_inline(self, mp_backend):
        ops = [Transform(lambda xs: ["ok"], name="const")]
        assert _prefetched(mp_backend, "narrow", ops, [[lambda: 1]]) == [["ok"]]

    def test_unpicklable_result_recomputed_inline(self, mp_backend):
        ops = [Transform(lambda xs: (lambda: xs), name="thunk")]
        (out,) = _prefetched(mp_backend, "narrow", ops, [[1, 2]])
        assert callable(out) and out() == [1, 2]

    def test_operator_error_crosses_process_boundary(self, mp_backend):
        ops = [Transform(lambda xs: 1 / 0, name="boom")]
        with pytest.raises(ExecutionError) as excinfo:
            _prefetched(mp_backend, "narrow", ops, [[1]])
        assert excinfo.value.operator_name == "boom"

    def test_dropped_prefetch_is_reaped_not_served(self, mp_backend):
        ops = [Map(lambda x: x + 1, name="inc")]
        mp_backend.prepare(ops)
        mp_backend.prefetch_stage("s2", "narrow", ops, [[5]])
        mp_backend.drop_prefetched("s2")
        assert mp_backend.take_prefetched("s2") is None


def _explore_mdf(offset, raise_on=None):
    """Source -> three-branch explore -> choose; branch ``raise_on`` fails."""

    def body(pipe, params):
        def step(x, k=params["k"]):
            if k == raise_on:
                raise ValueError("branch fails")
            return x + offset + k

        return pipe.map(step, name=f"step-{offset}-{params['k']}")

    b = MDFBuilder("reuse")
    (
        b.read_data(list(range(40)), name="src", nominal_bytes=64 * MB)
        .explore({"k": [0, 1, 2]}, body, name="grid")
        .choose(CallableEvaluator(lambda xs: -min(xs), name="neg-min"), Max(), name="pick")
        .write(name="out")
    )
    return b.build()


def _digest(result):
    return (result.output, result.completion_time, result.events.to_jsonl())


@needs_fork
class TestCallerOwnedMPBackend:
    def test_raising_run_leaves_nothing_for_the_next(self, mp_backend):
        """Stage ids repeat across MDFs: a sibling prefetched by a run that
        raised must not be served to the next run's same-id stage."""
        with pytest.raises(ExecutionError):
            run_mdf(_explore_mdf(0, raise_on=1), Cluster(2, 1 * GB), backend=mp_backend)
        reused = run_mdf(_explore_mdf(1000), Cluster(2, 1 * GB), backend=mp_backend)
        serial = run_mdf(_explore_mdf(1000), Cluster(2, 1 * GB), backend="serial")
        assert reused.output[:2] == [1000, 1001]
        assert _digest(reused) == _digest(serial)

    def test_new_operators_refork_the_pool(self, mp_backend):
        """Two MDFs with different operators back to back: the second run's
        operators are unknown to the first pool's workers."""
        for offset in (0, 1000):
            ran = run_mdf(_explore_mdf(offset), Cluster(2, 1 * GB), backend=mp_backend)
            serial = run_mdf(_explore_mdf(offset), Cluster(2, 1 * GB), backend="serial")
            assert _digest(ran) == _digest(serial)
        # an inline redo would hide a pool that never learnt the new
        # operators: this one reports where it ran
        where = [Transform(lambda xs: os.getpid(), name="where")]
        assert _prefetched(mp_backend, "narrow", where, [[0]]) != [os.getpid()]


def test_execution_error_pickle_roundtrip():
    err = ExecutionError("op-name", "went sideways")
    clone = pickle.loads(pickle.dumps(err, protocol=5))
    assert isinstance(clone, ExecutionError)
    assert clone.operator_name == "op-name"
    assert clone.message == "went sideways"


# ------------------------------------------------------- executor ownership
def test_executor_owns_named_backend_only():
    cluster = Cluster(2, 1 * GB)
    executor = StageExecutor(cluster, EngineConfig(backend="serial"))
    assert executor._owns_backend
    shared = SerialBackend()
    executor2 = StageExecutor(Cluster(2, 1 * GB), EngineConfig(backend=shared))
    assert executor2.backend is shared
    assert not executor2._owns_backend
    executor2.close()  # must not close a caller-owned instance


# --------------------------------------------------- bugfix 1: fault drain
def _wide_mdf():
    b = MDFBuilder()
    (
        b.read_data(list(range(100)), name="src", nominal_bytes=64 * MB)
        .aggregate(lambda xs: [sum(xs)], name="agg", selectivity=0.01)
        .write(name="out")
    )
    return b.build()


class TestFaultDrainScope:
    def test_choose_evaluation_leaves_faults_pending(self):
        """Injected task faults are scheduled "for the next executed
        stage": a choose evaluation between injection and that stage must
        not silently drain them (the pre-fix ``_wall`` did)."""
        cluster = Cluster(2, 1 * GB)
        sg = StageGraph(_wide_mdf())
        executor = StageExecutor(cluster, EngineConfig())
        first = executor.execute(sg.stages[0], [])
        executor.inject_task_faults({"worker-0": 2})
        evaluator = CallableEvaluator(lambda xs: float(len(xs)), name="count")
        executor.evaluate(evaluator, first.output_dataset_id)
        assert executor._pending_task_faults == {"worker-0": 2}
        second = executor.execute(sg.stages[1], [first.output_dataset_id])
        assert executor._pending_task_faults == {}
        assert second.times.compute > 0

    def test_next_real_stage_pays_for_the_faults(self):
        clean_cluster = Cluster(2, 1 * GB)
        clean_sg = StageGraph(_wide_mdf())
        clean_exec = StageExecutor(clean_cluster, EngineConfig())
        clean_first = clean_exec.execute(clean_sg.stages[0], [])
        clean_second = clean_exec.execute(
            clean_sg.stages[1], [clean_first.output_dataset_id]
        )

        cluster = Cluster(2, 1 * GB)
        sg = StageGraph(_wide_mdf())
        executor = StageExecutor(cluster, EngineConfig())
        first = executor.execute(sg.stages[0], [])
        executor.inject_task_faults({"worker-0": 2})
        evaluator = CallableEvaluator(lambda xs: float(len(xs)), name="count")
        executor.evaluate(evaluator, first.output_dataset_id)
        second = executor.execute(sg.stages[1], [first.output_dataset_id])
        # the retried attempts + backoff land on the stage, not the choose
        assert second.times.compute > clean_second.times.compute
        retried = [e for e in cluster.trace.events if e.kind == "task_retried"]
        assert len(retried) == 1 and retried[0].data["attempts"] == 2


# ------------------------------------------- bugfix 2: cache-hit aliasing
def _sorted_all(xs):
    return sorted(xs)


def _make_mutator(tag):
    def mutate(xs, _tag=tag):  # distinct fingerprint per run via default arg
        xs.append(-1)  # in-place: would corrupt an aliased cache blob
        return list(xs)

    return mutate


def _run_with_mutator(store, tag):
    cluster = Cluster(1, 1 * GB)  # one partition: concat aliases the payload
    cache = ResultCache(store=store, cost_based=False)
    b = MDFBuilder("alias-check")
    (
        b.read_data([5, 3, 7, 1], name="src", nominal_bytes=32 * MB)
        .aggregate(_sorted_all, name="agg", selectivity=0.5)
        .aggregate(_make_mutator(tag), name=f"mut-{tag}", selectivity=0.5)
        .write(name="out")
    )
    result = run_mdf(b.build(), cluster, config=EngineConfig(cache=cache))
    return result, cache


class TestStoreHitIsolation:
    def test_mutating_consumer_cannot_corrupt_later_hits(self, tmp_path):
        """A store-tier hit must serve a private copy: the downstream
        stage here mutates its input in place, and before the fix that
        mutation landed in the cached blob every later hit was served
        from."""
        store = SharedCacheStore(str(tmp_path))
        cold, _ = _run_with_mutator(store, 0)
        warm1, cache1 = _run_with_mutator(store, 1)
        warm2, cache2 = _run_with_mutator(store, 2)
        assert cache1.stats.store_hits >= 1  # the aliasing path really ran
        assert cache2.stats.store_hits >= 1
        assert warm1.output == cold.output == [1, 3, 5, 7, -1]
        assert warm2.output == warm1.output


# -------------------------------------------- bugfix 3: byte-split totals
class TestByteSplit:
    def test_split_bytes_exact(self):
        assert _split_bytes(10, 3) == [4, 3, 3]
        assert _split_bytes(2, 4) == [1, 1, 0, 0]
        assert _split_bytes(0, 3) == [0, 0, 0]
        for total, count in [(7, 4), (1, 1), (999, 7), (12, 5)]:
            parts = _split_bytes(total, count)
            assert sum(parts) == total
            assert max(parts) - min(parts) <= 1

    def test_wide_stage_partition_bytes_sum_to_output_total(self):
        """With a remainder (10 bytes over 3 partitions) the pre-fix
        ``out_total // n`` split summed to 9, silently losing a byte of
        nominal accounting on every wide stage."""
        cluster = Cluster(3, 1 * GB)
        b = MDFBuilder()
        (
            # 102 bytes split 34/34/34 by the source, so the wide head
            # sees 102 in-bytes and emits output_bytes = 10 over 3 parts
            b.read_data(list(range(99)), name="src", nominal_bytes=102)
            .aggregate(lambda xs: list(xs), name="agg", selectivity=0.1)
            .write(name="out")
        )
        sg = StageGraph(b.build())
        executor = StageExecutor(cluster, EngineConfig())
        first = executor.execute(sg.stages[0], [])
        second = executor.execute(sg.stages[1], [first.output_dataset_id])
        record = cluster.record(second.output_dataset_id)
        assert record.num_partitions == 3
        assert sum(record.partition_bytes) == 10  # == output_bytes(100)
        assert max(record.partition_bytes) - min(record.partition_bytes) <= 1
