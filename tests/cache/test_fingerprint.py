"""Tests for canonical lineage fingerprints (repro.cache.fingerprint).

The cache's soundness rests on two properties: *stability* (the same
computation fingerprints identically across processes and runs) and
*discrimination* (any change to the function, its parameters or its inputs
changes the fingerprint).  Anything without a deterministic canonical form
must refuse with :class:`FingerprintError` rather than guess.
"""

import hashlib

import numpy as np
import pytest

from repro import GB, MB, Cluster, MDFBuilder
from repro.cache import (
    FingerprintError,
    ResultCache,
    SharedCacheStore,
    callable_token,
    choose_fingerprint,
    digest,
    operator_fingerprint,
    operator_fingerprints,
    stage_fingerprint,
    value_token,
)
from repro.core.operators import Source, Transform
from repro.engine import EngineConfig, run_mdf
from repro.lab.workloads import available_workloads, get_workload
from repro.workloads import cifar_like, deep_learning_mdf


def make_transform(factor, name="t"):
    return Transform(lambda xs, f=factor: [x * f for x in xs], name=name)


class TestOperatorFingerprints:
    def test_same_parameters_same_fingerprint(self):
        assert operator_fingerprint(make_transform(3)) == operator_fingerprint(
            make_transform(3)
        )

    def test_different_parameters_differ(self):
        assert operator_fingerprint(make_transform(3)) != operator_fingerprint(
            make_transform(4)
        )

    def test_name_is_not_identity(self):
        """Auto-generated labels must not defeat cross-run recognition."""
        assert operator_fingerprint(make_transform(3, "a")) == operator_fingerprint(
            make_transform(3, "b")
        )

    def test_different_bodies_differ(self):
        a = Transform(lambda xs: [x + 1 for x in xs], name="t")
        b = Transform(lambda xs: [x + 2 for x in xs], name="t")
        assert operator_fingerprint(a) != operator_fingerprint(b)

    def test_cost_model_attributes_are_identity(self):
        a = Transform(lambda xs: xs, name="t", cost_factor=1.0)
        b = Transform(lambda xs: xs, name="t", cost_factor=2.0)
        assert operator_fingerprint(a) != operator_fingerprint(b)

    def test_source_payload_is_identity(self):
        a = Source.from_data([1, 2, 3], name="s", nominal_bytes=64)
        b = Source.from_data([1, 2, 3], name="s", nominal_bytes=64)
        c = Source.from_data([1, 2, 4], name="s", nominal_bytes=64)
        assert operator_fingerprint(a) == operator_fingerprint(b)
        assert operator_fingerprint(a) != operator_fingerprint(c)


class TestValueTokens:
    def test_primitives_and_collections(self):
        assert value_token(3) == value_token(3)
        assert value_token(3) != value_token(3.0)
        assert value_token([1, 2]) != value_token((1, 2))
        assert value_token({"a": 1, "b": 2}) == value_token({"b": 2, "a": 1})

    def test_ndarray_content_hashes(self):
        a = np.arange(10.0)
        assert value_token(a) == value_token(np.arange(10.0))
        assert value_token(a) != value_token(np.arange(10.0) + 1)

    def test_dataclass_values(self):
        from repro.workloads.datagen import LabelledImages

        x, y = np.zeros((4, 2)), np.array([0, 1, 0, 1])
        assert value_token(LabelledImages(x, y)) == value_token(
            LabelledImages(x.copy(), y.copy())
        )
        assert value_token(LabelledImages(x, y)) != value_token(
            LabelledImages(x + 1, y)
        )

    def test_plain_object_values(self):
        from repro.core.explore import ParameterGrid

        assert value_token(ParameterGrid(t=[1, 2])) == value_token(
            ParameterGrid(t=[1, 2])
        )
        assert value_token(ParameterGrid(t=[1, 2])) != value_token(
            ParameterGrid(t=[1, 3])
        )

    def test_unfingerprintable_raises(self):
        gen = (x for x in range(3))  # no __dict__, no canonical content
        with pytest.raises(FingerprintError):
            value_token(gen)

    def test_closure_captures_are_identity(self):
        def outer(k):
            return lambda xs: [x + k for x in xs]

        assert callable_token(outer(1)) == callable_token(outer(1))
        assert callable_token(outer(1)) != callable_token(outer(2))


class TestStageAndChooseFingerprints:
    def test_stage_kind_and_layout_discriminate(self):
        base = stage_fingerprint("narrow", ["op"], ["in"], None)
        assert base == stage_fingerprint("narrow", ["op"], ["in"], None)
        assert base != stage_fingerprint("wide", ["op"], ["in"], None)
        assert base != stage_fingerprint("narrow", ["op"], ["in2"], None)
        assert base != stage_fingerprint("narrow", ["op2"], ["in"], None)
        assert stage_fingerprint("source", [], [], 4) != stage_fingerprint(
            "source", [], [], 8
        )

    def test_choose_fingerprint_is_order_sensitive(self):
        assert choose_fingerprint(["a", "b"]) == choose_fingerprint(["a", "b"])
        assert choose_fingerprint(["a", "b"]) != choose_fingerprint(["b", "a"])

    def test_digest_is_stable_and_short(self):
        assert digest(["x", 1]) == digest(["x", 1])
        assert len(digest(["x", 1])) == 40


_RAN = []


def _fingerprint_or_none(op):
    try:
        return operator_fingerprint(op)
    except FingerprintError:
        return None


class TestOnePass:
    """``operator_fingerprints`` — what the master takes before a job runs."""

    @pytest.mark.parametrize("name", available_workloads())
    def test_equals_operator_fingerprint_on_every_zoo_operator(self, name):
        ops = get_workload(name).make_mdf().operators
        table = operator_fingerprints(ops)
        assert table == {op.name: _fingerprint_or_none(op) for op in ops}

    @pytest.mark.parametrize(
        "mode", ["weights_only", "hyper_only", "exhaustive", "early_choose"]
    )
    def test_equals_operator_fingerprint_on_the_deep_learning_modes(self, mode):
        data = cifar_like(n_samples=60, features=16, seed=2)
        ops = deep_learning_mdf(data, mode=mode).operators
        table = operator_fingerprints(ops)
        assert table == {op.name: _fingerprint_or_none(op) for op in ops}
        trains = [op.name for op in ops if op.name.startswith("train-")]
        # only early_choose hands data over outside the dataflow
        assert all((table[t] is None) == (mode == "early_choose") for t in trains)

    def test_shared_array_is_hashed_once(self, monkeypatch):
        shared = np.arange(4096.0)
        ops = [
            Transform(lambda xs, a=shared, k=k: [x + a[k] for x in xs], name=f"t{k}")
            for k in range(5)
        ]
        hashed = []
        real = hashlib.sha256

        def counting(data=b""):
            hashed.append(len(data))
            return real(data)

        monkeypatch.setattr(hashlib, "sha256", counting)
        table = operator_fingerprints(ops)
        assert hashed.count(shared.nbytes) == 1
        hashed.clear()
        assert table == {op.name: operator_fingerprint(op) for op in ops}
        assert hashed.count(shared.nbytes) == len(ops)

    def test_unfingerprintable_operator_is_none_and_the_rest_stand(self):
        good = make_transform(3, "good")
        bad = Transform(lambda xs, g=(x for x in ()): xs, name="bad")
        assert operator_fingerprints([bad, good]) == {
            "bad": None,
            "good": operator_fingerprint(good),
        }

    def test_running_an_operator_cannot_change_a_siblings_fingerprint(self, tmp_path):
        """The regression: ``a`` writes into a list ``b`` also closes over.
        Fingerprinted lazily, ``b`` was identified after ``a`` had run on a
        cold store and before on a warm one (a hit runs nothing): a miss on
        every re-run.  Identified before anything runs, it is served."""
        _RAN.clear()

        def build():
            cell = [0]

            def bump(xs):
                _RAN.append("a")  # a global: not part of the identity
                cell[0] += 1  # an undeclared side effect on a shared cell
                return [x + 1 for x in xs]

            b = MDFBuilder("leaky")
            src = b.read_data(list(range(40)), name="src", nominal_bytes=64 * MB)
            first = src.aggregate(bump, name="a")
            first.aggregate(
                lambda xs: (_RAN.append("b"), [x * len(cell) for x in xs])[1], name="b"
            ).write(name="out")
            return b.build()

        outputs = []
        for _ in range(2):
            cache = ResultCache(store=SharedCacheStore(str(tmp_path)), cost_based=False)
            result = run_mdf(
                build(), Cluster(2, 1 * GB), config=EngineConfig(cache=cache)
            )
            outputs.append(result.outputs)
        assert _RAN == ["a", "b"]  # the warm run executed neither
        assert outputs[0] == outputs[1]
