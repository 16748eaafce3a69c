"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import (
    CallableEvaluator,
    Cluster,
    GB,
    MB,
    MDFBuilder,
    Min,
    TopK,
)


@pytest.fixture
def small_cluster():
    """Four workers with 1 GB each — no memory pressure for small jobs."""
    return Cluster(num_workers=4, mem_per_worker=1 * GB)


@pytest.fixture
def tight_cluster():
    """Four workers with little memory — forces evictions."""
    return Cluster(num_workers=4, mem_per_worker=64 * MB)


def build_filter_mdf(
    thresholds=(10, 100, 500), nominal=64 * MB, data_n=1000, cost_factor=1.0
):
    """A minimal one-explore MDF: filter values below a threshold, keep the
    smallest surviving dataset.  At ``cost_factor=8.0`` recomputing a
    filter costs more than a store-tier read of its output, so a warm
    run's store hits pass the executor's profitability gate."""
    builder = MDFBuilder("filter-mdf")
    src = builder.read_data(list(range(data_n)), name="src", nominal_bytes=nominal)
    result = src.explore(
        {"threshold": list(thresholds)},
        lambda pipe, p: pipe.transform(
            lambda xs, t=p["threshold"]: [x for x in xs if x < t],
            name=f"filter-{p['threshold']}",
            cost_factor=cost_factor,
        ),
    ).choose(CallableEvaluator(len, name="count"), Min(), name="choose-min")
    result.write(name="out")
    return builder.build()


def build_nested_mdf(outer=(2, 3), inner=(5, 7), nominal=64 * MB, data_n=400):
    """A nested two-level MDF multiplying integers, keeping the max sum."""
    builder = MDFBuilder("nested-mdf")
    src = builder.read_data(list(range(data_n)), name="src", nominal_bytes=nominal)
    score = CallableEvaluator(lambda xs: float(sum(xs)), name="sum")

    def inner_branch(pipe, p):
        return pipe.transform(
            lambda xs, m=p["m2"]: [x * m for x in xs],
            name=f"mul-{p['_outer']}-{p['m2']}",
        )

    def outer_branch(pipe, p):
        first = pipe.transform(
            lambda xs, m=p["m1"]: [x * m for x in xs], name=f"mul1-{p['m1']}"
        )
        return first.explore(
            {"m2": list(inner), "_outer": [p["m1"]]},
            inner_branch,
            name=f"inner-{p['m1']}",
        ).choose(score, TopK(1), name=f"choose-inner-{p['m1']}")

    result = src.explore({"m1": list(outer)}, outer_branch, name="outer").choose(
        score, TopK(1), name="choose-outer"
    )
    result.write(name="out")
    return builder.build()


@pytest.fixture
def filter_mdf():
    return build_filter_mdf()


@pytest.fixture
def nested_mdf():
    return build_nested_mdf()
