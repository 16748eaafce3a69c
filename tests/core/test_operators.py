"""Tests for the generic operator classes and their cost/size models."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.errors import ExecutionError
from repro.core.operators import (
    Aggregate,
    Filter,
    FlatMap,
    GroupBy,
    Identity,
    Map,
    Operator,
    Sink,
    Source,
    Transform,
)
from repro.core.datasets import Dataset


class TestCostModel:
    def test_default_cost_linear(self):
        op = Identity(cost_factor=2.0)
        assert op.compute_cost(100) == 200.0

    def test_fixed_cost_added(self):
        op = Transform(lambda x: x, fixed_cost=50.0, cost_factor=1.0)
        assert op.compute_cost(10) == 60.0

    def test_output_bytes_selectivity(self):
        op = Transform(lambda x: x, selectivity=0.5)
        assert op.output_bytes(1000) == 500

    def test_output_bytes_at_least_one(self):
        op = Transform(lambda x: x, selectivity=0.0001)
        assert op.output_bytes(10) == 1

    def test_auto_names_unique(self):
        a, b = Identity(), Identity()
        assert a.name != b.name

    def test_explicit_name(self):
        assert Identity(name="me").name == "me"


class TestMap:
    def test_elementwise(self):
        op = Map(lambda x: x * 2)
        assert op.apply_partition([1, 2, 3]) == [2, 4, 6]

    def test_error_wrapped(self):
        op = Map(lambda x: 1 / 0, name="boom")
        with pytest.raises(ExecutionError, match="boom"):
            op.apply_partition([1])

    def test_narrow(self):
        assert Map(lambda x: x).narrow


class TestFilter:
    def test_list(self):
        op = Filter(lambda x: x > 2)
        assert op.apply_partition([1, 2, 3, 4]) == [3, 4]

    def test_numpy(self):
        op = Filter(lambda x: x > 2)
        out = op.apply_partition(np.array([1, 2, 3, 4]))
        assert out.tolist() == [3, 4]

    def test_default_selectivity_below_one(self):
        assert Filter(lambda x: True).selectivity < 1.0

    def test_error_wrapped(self):
        op = Filter(lambda x: x.missing, name="bad-pred")
        with pytest.raises(ExecutionError):
            op.apply_partition([1])


class TestTransform:
    def test_whole_partition(self):
        op = Transform(lambda xs: sorted(xs))
        assert op.apply_partition([3, 1, 2]) == [1, 2, 3]

    def test_error_wrapped(self):
        op = Transform(lambda xs: xs.undefined)
        with pytest.raises(ExecutionError):
            op.apply_partition([1])


class TestFlatMap:
    def test_expands(self):
        op = FlatMap(lambda x: [x, x])
        assert op.apply_partition([1, 2]) == [1, 1, 2, 2]

    def test_empty_expansion(self):
        op = FlatMap(lambda x: [])
        assert op.apply_partition([1, 2]) == []


class TestAggregate:
    def test_wide(self):
        assert not Aggregate(lambda x: x).narrow

    def test_global_merge(self):
        op = Aggregate(lambda xs: [sum(xs)])
        out = op.apply_global([[1, 2], [3, 4]])
        flat = [x for chunk in out for x in chunk]
        assert flat == [10]

    def test_repartitions_to_input_count(self):
        op = Aggregate(lambda xs: list(xs))
        out = op.apply_global([[1, 2, 3], [4, 5, 6]])
        assert len(out) == 2

    def test_error_wrapped(self):
        op = Aggregate(lambda xs: 1 / 0)
        with pytest.raises(ExecutionError):
            op.apply_global([[1]])


class TestGroupBy:
    def test_groups(self):
        op = GroupBy(lambda x: x % 2)
        out = op.apply_global([[1, 2], [3, 4]])
        groups = dict(pair for chunk in out for pair in chunk)
        assert sorted(groups[0]) == [2, 4]
        assert sorted(groups[1]) == [1, 3]

    def test_wide(self):
        assert not GroupBy(lambda x: x).narrow

    def test_output_does_not_depend_on_the_hash_seed(self):
        """Two processes with different string hash seeds give the same
        grouped output, on both backends: a store entry one process saved
        is served to another in place of its own output."""
        def outputs(seed):
            proc = subprocess.run(
                [sys.executable, "-c", _GROUP_WORDS],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            return proc.stdout

        first = outputs("1")
        assert "serial" in first and "mp" in first
        assert outputs("2") == first


#: explore two sibling branches (so ``mp`` runs them in its pool), each
#: splitting lines into words and grouping them; print each backend's outputs
_GROUP_WORDS = """
from repro import CallableEvaluator, Cluster, GB, MB, MDFBuilder, TopK, run_mdf
b = MDFBuilder("words")
lines = ["w0 w1 w2", "w3 w4", "w5 w6 w0", "w2 w5"]
b.read_data(lines, name="src", nominal_bytes=MB).explore(
    {"times": [1, 2]},
    lambda pipe, p: pipe.flat_map(
        lambda line, n=p["times"]: line.split() * n, name=f"split-{p['times']}"
    ).group_by(lambda word: word, name=f"group-{p['times']}"),
    name="explore",
).choose(CallableEvaluator(len, name="groups"), TopK(2), name="choose").write(name="out")
mdf = b.build()
for backend in ("serial", "mp"):
    print(backend, run_mdf(mdf, Cluster(2, 1 * GB), backend=backend).outputs)
"""


class TestSource:
    def test_generate_partitions(self):
        src = Source.from_data(list(range(10)))
        ds = src.generate(4)
        assert ds.num_partitions == 4
        assert ds.collect() == list(range(10))

    def test_nominal_bytes_divided(self):
        src = Source.from_data([1, 2], nominal_bytes=1000)
        ds = src.generate(2)
        assert ds.nominal_bytes == 1000

    def test_custom_fn(self):
        src = Source(lambda i, n: [i] * 2)
        ds = src.generate(3)
        assert ds.collect() == [0, 0, 1, 1, 2, 2]

    def test_producer_name(self):
        src = Source.from_data([1], name="reader")
        ds = src.generate(1, producer="tail-op")
        assert ds.producer == "tail-op"


class TestSink:
    def test_passthrough_partition(self):
        sink = Sink()
        assert sink.apply_partition([1]) == [1]

    def test_finalize_default(self):
        sink = Sink()
        ds = Dataset.from_data([1, 2, 3], num_partitions=2)
        assert sink.finalize(ds) == [1, 2, 3]

    def test_finalize_custom_fn(self):
        sink = Sink(lambda payload: len(payload))
        ds = Dataset.from_data([1, 2, 3])
        assert sink.finalize(ds) == 3

    def test_finalize_error_wrapped(self):
        sink = Sink(lambda payload: 1 / 0)
        with pytest.raises(ExecutionError):
            sink.finalize(Dataset.from_data([1]))


class TestIdentity:
    def test_passthrough(self):
        assert Identity().apply_partition("x") == "x"

    def test_zero_cost(self):
        assert Identity().compute_cost(10**9) == 0.0
