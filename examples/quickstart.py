"""Quickstart: express an exploratory workflow as one meta-dataflow.

A user is unsure which filter threshold to use.  Instead of submitting one
job per choice and comparing results by hand, the explore/choose pair
turns the whole family into a single job: the engine runs the branches,
scores each with the evaluator, keeps the winner, and discards the rest —
all inside one submission.

Run:  python examples/quickstart.py
"""

from repro import (
    CallableEvaluator,
    Cluster,
    GB,
    LiveMonitor,
    MB,
    MDFBuilder,
    Min,
    TimelineSampler,
    run_mdf,
)


def build_quickstart_mdf():
    """The quickstart MDF: one explore over three filter thresholds."""
    builder = MDFBuilder("quickstart")
    source = builder.read_data(
        list(range(1000)), name="numbers", nominal_bytes=256 * MB
    )

    result = source.explore(
        # the explorable: three candidate thresholds
        {"threshold": [10, 100, 500]},
        # the branch body: one pipeline per choice
        lambda pipe, p: pipe.transform(
            lambda xs, t=p["threshold"]: [x for x in xs if x < t],
            name=f"filter-{p['threshold']}",
        ),
        name="explore-threshold",
    ).choose(
        # evaluator: score each branch by its result cardinality;
        # selection: keep the smallest surviving dataset
        CallableEvaluator(len, name="count"),
        Min(),
        name="keep-smallest",
    )
    result.write(name="result")
    return builder.build()


def main() -> None:
    # 1. build the meta-dataflow -------------------------------------------
    mdf = build_quickstart_mdf()

    # 2. execute on a simulated cluster, watched by two observers: the -----
    #    timeline sampler (job.telemetry) and the live monitor (job.live)
    cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
    job = run_mdf(
        mdf,
        cluster,
        scheduler="bas",
        memory="amm",
        observers=[TimelineSampler(), LiveMonitor()],
    )

    # the live monitor watched the run stream by: final progress line
    # (repro.live; mid-run the same line shows partial progress and ETA)
    print(f"live            : {job.live.progress_line()}")

    # 3. inspect the outcome -------------------------------------------------
    decision = job.decision_for("keep-smallest")
    print(f"completion time : {job.completion_time:.3f} simulated seconds")
    print(f"branch scores   : { {b: int(s) for b, s in decision.scores.items()} }")
    print(f"kept branch     : {decision.kept}")
    print(f"result (head)   : {job.output[:10]}")
    print(f"memory hit ratio: {job.memory_hit_ratio:.2f}")
    assert job.output == list(range(10))

    # 4. where did the work go?  per-branch telemetry attribution ------------
    print()
    print(job.telemetry.branch_breakdown())

    # 5. what made the job as long as it was?  critical-path profile ---------
    from repro.prof import critical_path, exploration_cost, profile_from_result, top_segments

    profile = profile_from_result(job)
    print()
    print("top critical-path segments:")
    for segment in top_segments(critical_path(profile), n=3):
        share = 100.0 * segment.seconds / profile.makespan
        print(f"  {segment.seconds:8.4f} s  ({share:4.1f}%)  {segment.description}")
    explo = exploration_cost(profile)
    print(
        f"cost of exploration: {explo.sunk_seconds:.4f} s sunk into discarded "
        f"branches ({100.0 * explo.sunk_share:.1f}% of the makespan), "
        f"{explo.pruned_branches} branch(es) pruned for free"
    )


if __name__ == "__main__":
    main()
