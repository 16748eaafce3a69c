"""Policy-lab benchmarks: every registered scheduler on the smoke zoo.

One benchmark per smoke workload (via the parametrized ``lab_workload``
fixture in conftest).  Each run sweeps the full scheduler registry,
records every policy's simulated completion time in ``extra_info`` and
asserts the lab's differential contract at bench scale: all policies
produce the same outputs and kept branches as ``bfs``.
"""

from repro import Validator, observing
from repro.engine.policies import available_schedulers


def test_lab_policy_sweep(benchmark, lab_workload):
    schedulers = available_schedulers()

    def run():
        out = {}
        with observing(Validator()):
            for scheduler in schedulers:
                result, _ = lab_workload.run(scheduler=scheduler)
                out[scheduler] = result
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)

    benchmark.extra_info["workload"] = lab_workload.name
    benchmark.extra_info.update(
        {
            f"completion_{name}": result.completion_time
            for name, result in results.items()
        }
    )

    reference = results["bfs"]
    for name, result in results.items():
        assert repr(result.outputs) == repr(reference.outputs), (
            f"{name} changed the job's outputs on {lab_workload.name}"
        )
        assert {n: d.kept for n, d in result.decisions.items()} == {
            n: d.kept for n, d in reference.decisions.items()
        }, f"{name} changed a choose decision on {lab_workload.name}"
