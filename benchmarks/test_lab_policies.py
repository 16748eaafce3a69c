"""Policy-lab benchmarks: every registered scheduler on the smoke zoo.

One benchmark per smoke workload (via the parametrized ``lab_workload``
fixture in conftest).  Each run sweeps the full scheduler registry
through the lab's grid, records every policy's simulated completion time
in ``extra_info`` and asserts the lab's contract at bench scale with the
report's one reducer: every policy produces the outputs and choose
decisions of ``bfs``, on a validator-clean trace.
"""

from repro.lab import Experimentation


def test_lab_policy_sweep(benchmark, lab_workload):
    experiment = Experimentation(workloads=[lab_workload.name])
    report = benchmark.pedantic(experiment.run, rounds=1, iterations=1, warmup_rounds=0)

    benchmark.extra_info["workload"] = lab_workload.name
    benchmark.extra_info.update(
        {f"completion_{c.scheduler}": c.completion_time for c in report.cells}
    )
    assert report.mismatches() == []
