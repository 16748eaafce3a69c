"""Stress tests: the engine itself must scale to paper-sized MDFs."""

import time

import numpy as np
import pytest

from repro import CallableEvaluator, Cluster, GB, MB, MDFBuilder, Threshold
from repro.engine import run_mdf
from repro.workloads import granularity_grid, oil_well_trace, time_series_mdf


class TestLargeMdfs:
    def test_1024_branch_mdf_completes_quickly(self):
        """The paper's largest sweep: 1024 branches in one MDF.

        This guards the engine's own complexity — scheduling, readiness
        tracking and lifecycle bookkeeping must stay near-linear in the
        number of stages."""
        trace = oil_well_trace(5_000)
        grid = granularity_grid(1024)
        mdf = time_series_mdf(trace, grid, nominal_bytes=64 * MB)
        start = time.time()
        result = run_mdf(mdf, Cluster(8, 2 * GB))
        wall = time.time() - start
        assert len(result.decision_for("choose-mask").scores) == 1024
        assert wall < 60.0, f"engine took {wall:.1f}s for 1024 branches"

    def test_wide_flat_explore(self):
        """A single explore with 500 branches (large fan-out, §4.3)."""
        b = MDFBuilder("wide")
        src = b.read_data(list(range(100)), name="src", nominal_bytes=64 * MB)
        src.explore(
            {"i": list(range(500))},
            lambda pipe, p: pipe.transform(
                lambda xs, i=p["i"]: xs[: (i % 50) + 1], name=f"take-{p['i']}"
            ),
            name="exp",
        ).choose(
            CallableEvaluator(len, name="n"), Threshold(25.0), name="ch"
        ).write()
        mdf = b.build()
        start = time.time()
        result = run_mdf(mdf, Cluster(4, 1 * GB))
        wall = time.time() - start
        decision = result.decision_for("ch")
        assert len(decision.scores) == 500
        assert wall < 30.0

    def test_deep_nesting(self):
        """Three levels of nested explores execute correctly."""
        b = MDFBuilder("deep")
        src = b.read_data(list(range(20)), name="src", nominal_bytes=8 * MB)
        score = CallableEvaluator(lambda xs: float(sum(xs)), name="sum")
        from repro import Max

        def level3(pipe, p):
            return pipe.transform(
                lambda xs, m=p["c"]: [x + m for x in xs],
                name=f"l3-{p['_path']}-{p['c']}",
            )

        def level2(pipe, p):
            path = f"{p['_path']}-{p['b']}"
            return pipe.explore(
                {"c": [1, 2], "_path": [path]}, level3, name=f"e3-{path}"
            ).choose(score, Max(), name=f"c3-{path}")

        def level1(pipe, p):
            path = str(p["a"])
            first = pipe.transform(
                lambda xs, m=p["a"]: [x * m for x in xs], name=f"l1-{path}"
            )
            return first.explore(
                {"b": [1, 2], "_path": [path]}, level2, name=f"e2-{path}"
            ).choose(score, Max(), name=f"c2-{path}")

        b_out = src.explore({"a": [2, 3]}, level1, name="e1").choose(
            score, Max(), name="c1"
        )
        b_out.write()
        mdf = b.build()
        assert len(mdf.scopes) == 1 + 2 + 4
        result = run_mdf(mdf, Cluster(2, 1 * GB))
        # best: a=3, then +2 at the innermost level
        assert result.output == [x * 3 + 2 for x in range(20)]

    def test_determinism_across_runs(self):
        """Two fresh runs of the same large MDF are bit-identical."""
        trace = oil_well_trace(3_000)
        grid = granularity_grid(64)
        mdf = time_series_mdf(trace, grid, nominal_bytes=64 * MB)
        a = run_mdf(mdf, Cluster(8, 1 * GB))
        b = run_mdf(mdf, Cluster(8, 1 * GB))
        assert a.completion_time == b.completion_time
        assert np.array_equal(np.asarray(a.output), np.asarray(b.output))
        # stage ids are per-run counters; the executed op sequence is what
        # must repeat exactly
        ops = [[e.data["ops"] for e in r.events.filter("stage_completed")] for r in (a, b)]
        assert ops[0] == ops[1]
