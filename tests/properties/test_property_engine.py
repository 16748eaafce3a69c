"""Property-based tests over randomly generated MDFs and the engine.

Core invariant: the engine's outcome (winner, final output) is the same
for every scheduler × memory-policy × incremental combination — the
optimisations change *when* and *where* data lives, never *what* is
computed — and it always matches a direct Python evaluation of the family.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CallableEvaluator, Cluster, GB, MB, MDFBuilder, Max, TopK
from repro.engine import EngineConfig, run_mdf

multipliers = st.lists(
    st.integers(min_value=1, max_value=97), min_size=2, max_size=5, unique=True
)
data_sizes = st.integers(min_value=4, max_value=60)


def build_mdf(mults, n):
    builder = MDFBuilder("prop")
    src = builder.read_data(list(range(1, n + 1)), name="src", nominal_bytes=32 * MB)
    score = CallableEvaluator(lambda xs: float(sum(xs)), name="sum")
    result = src.explore(
        {"m": list(mults)},
        lambda pipe, p: pipe.transform(
            lambda xs, m=p["m"]: [x * m for x in xs], name=f"mul-{p['m']}"
        ),
        name="exp",
    ).choose(score, Max(), name="ch")
    result.write(name="out")
    return builder.build()


def expected_output(mults, n):
    best = max(mults)
    return [x * best for x in range(1, n + 1)]


@given(multipliers, data_sizes)
@settings(max_examples=25, deadline=None)
def test_engine_matches_direct_evaluation(mults, n):
    mdf = build_mdf(mults, n)
    result = run_mdf(mdf, Cluster(3, 1 * GB))
    assert result.output == expected_output(mults, n)


@given(multipliers, data_sizes, st.sampled_from(["bas", "bfs"]), st.booleans())
@settings(max_examples=25, deadline=None)
def test_outcome_invariant_under_execution_strategy(mults, n, scheduler, incremental):
    mdf = build_mdf(mults, n)
    result = run_mdf(
        mdf,
        Cluster(3, 1 * GB),
        scheduler=scheduler,
        memory="amm" if incremental else "lru",
        config=EngineConfig(incremental_choose=incremental),
    )
    assert result.output == expected_output(mults, n)


@given(multipliers, data_sizes)
@settings(max_examples=15, deadline=None)
def test_memory_pressure_does_not_change_results(mults, n):
    """A starved cluster spills constantly but must compute the same answer."""
    mdf = build_mdf(mults, n)
    roomy = run_mdf(build_mdf(mults, n), Cluster(3, 1 * GB))
    tight = run_mdf(mdf, Cluster(3, 16 * MB))
    assert tight.output == roomy.output
    assert tight.completion_time >= roomy.completion_time


@given(multipliers, data_sizes)
@settings(max_examples=15, deadline=None)
def test_all_branches_scored_or_pruned(mults, n):
    mdf = build_mdf(mults, n)
    result = run_mdf(mdf, Cluster(3, 1 * GB))
    decision = result.decision_for("ch")
    assert len(decision.scores) + len(decision.pruned) == len(mults)


@given(multipliers, data_sizes)
@settings(max_examples=15, deadline=None)
def test_clock_monotone_in_trace(mults, n):
    result = run_mdf(build_mdf(mults, n), Cluster(3, 1 * GB))
    stages = [e.data for e in result.events.filter("stage_completed")]
    finishes = [s["finished"] for s in stages]
    assert finishes == sorted(finishes)
    assert all(s["started"] <= s["finished"] for s in stages)


@given(multipliers, data_sizes)
@settings(max_examples=15, deadline=None)
def test_hit_ratio_in_unit_interval(mults, n):
    result = run_mdf(build_mdf(mults, n), Cluster(3, 64 * MB))
    assert 0.0 <= result.memory_hit_ratio <= 1.0
