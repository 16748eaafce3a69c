"""Self-test of the wall-clock benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/wall -q

Checks the arithmetic the numbers rest on (percentile, span self time,
verdicts), that generated load is a pure function of the seed, that the
correctness oracle is live, and makes one ``--quick`` pass through every
workload, traced and untraced.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import measure  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]


def test_percentile_is_the_service_load_generators():
    from repro.bench.loadgen import percentile

    rng = random.Random(7)
    for n in (1, 2, 3, 10, 99, 120):
        values = [rng.random() for _ in range(n)]
        for q in (0, 1, 50, 90, 95, 99, 100):
            assert measure.percentile(values, q) == percentile(values, q)
    assert measure.percentile([], 50) is None


def test_mix_p50_is_per_kind():
    # per kind, so neither the mix ratio nor its order moves the result
    few_slow = [("a", 1.0)] * 9 + [("b", 2.0)] * 2
    many_slow = [("b", 2.0)] * 9 + [("a", 1.0)] * 2
    assert measure.mix_p50(few_slow) == measure.mix_p50(many_slow) == 1.5


def test_speed_clock_weights_each_stretch_by_the_nearest_sample():
    clock = measure.SpeedClock()
    nominal = clock.NOMINAL_S
    # the machine at nominal speed around t=10, at half speed around t=20
    clock.at, clock.took = [10.0, 20.0], [nominal, 2 * nominal]
    assert clock.scaled(9.0, 11.0) == pytest.approx(2.0)
    assert clock.scaled(18.0, 22.0) == pytest.approx(2.0)
    # half-way between the samples the weight changes
    assert clock.scaled(14.0, 16.0) == pytest.approx(1.0 + 0.5)
    assert clock.scaled(0.0, 30.0) == pytest.approx(15.0 + 7.5)
    assert clock.scaled(12.0, 12.0) == 0.0
    assert clock.slowdown() == 1.0  # nearest rank: the lower of two
    # a job twice as slow beside a sample twice as slow reads the same
    quiet, loud = measure.SpeedClock(), measure.SpeedClock()
    quiet.at, quiet.took = [0.0, 1.1], [0.003, 0.003]
    loud.at, loud.took = [0.0, 2.1], [0.006, 0.006]
    assert quiet.scaled(0.05, 1.05) == pytest.approx(loud.scaled(0.05, 2.05))
    # tick() takes samples, and not more often than the period
    clock = measure.SpeedClock()
    clock.tick(period=60.0)
    clock.tick(period=60.0)
    assert len(clock.at) == len(clock.took) == 1 and clock.took[0] > 0
    clock.tick(reps=3)
    assert len(clock.took) == 2 and clock.at[1] > clock.at[0]


def test_self_time_with_overlapping_children():
    spans = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None, "job": "j"},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0, "job": "j"},
        {"name": "b", "start": 3.0, "end": 6.0, "parent": 0, "job": "j"},  # overlaps a
        {"name": "c", "start": 9.0, "end": 12.0, "parent": 0, "job": "j"},  # sticks out
        {"name": "a1", "start": 1.5, "end": 2.0, "parent": 1, "job": "j"},
    ]
    own = measure.self_times(spans)
    assert own == pytest.approx([10 - (5 + 1), 3 - 0.5, 3.0, 3.0, 0.5])
    totals = measure.layer_totals(spans)
    assert totals["root"] == {"count": 1, "busy": 10.0, "self": pytest.approx(4.0)}


def test_tracer_nests_and_is_off_until_enabled():
    tracer = measure.Tracer()
    with tracer.span("ignored"):
        pass
    assert tracer.spans == []
    tracer.enabled = True
    with tracer.span("job", job="j1") as root:
        with tracer.span("inner"):
            pass
    inner = tracer.spans[1]
    assert (inner["parent"], inner["job"]) == (root, "j1")
    assert tracer.spans[0]["end"] >= inner["end"] >= inner["start"]


def test_load_is_a_pure_function_of_the_seed(tmp_path):
    def plan(seed):
        paced = workloads.ServicePaced(seed, 15.0, str(tmp_path))
        return paced.make_plan(random.Random(seed)), paced.due

    assert plan(3) == plan(3)
    assert plan(3) != plan(4)
    jobs, due = plan(3)
    assert len(jobs) == len(due) == 90 and due == sorted(due) and 0 <= due[0] and due[-1] < 15
    # the mix is exact, only its order is drawn: half shared, tenants 2:1:1
    assert sum(w == workloads.SHARED for _, w in jobs) == 45
    assert sum(t == "t0" for t, _ in jobs) in (45, 46)
    burst = workloads.ServiceBurst(3, 15.0, str(tmp_path))
    mix = burst.make_plan(random.Random(3))
    assert len(mix) == 330 and sum(w == workloads.SHARED for _, w in mix) == 83


def test_verdicts():
    v = measure.verdict
    assert v(1.0, 1.05, "lower", 0.10) == "unchanged"
    assert v(1.0, 1.11, "lower", 0.10) == "regressed"
    assert v(1.0, 0.85, "lower", 0.10) == "improved"
    assert v(10.0, 8.9, "higher", 0.10) == "regressed"
    assert v(10.0, 11.5, "higher", 0.10) == "improved"
    # the instrument cannot resolve a 10% change when A/A differs by 12%
    assert v(1.0, 1.5, "lower", 0.10, spread=0.12) == "unresolved"
    # better by more than the bound but not by more than the A/A spread
    assert v(1.0, 0.92, "lower", 0.05, spread=0.05) == "improved"
    assert v(1.0, 0.96, "lower", 0.03, spread=0.03) == "improved"
    assert v(1.0, 0.98, "lower", 0.03, spread=0.03) == "unchanged"
    # failed_share is absolute: any failure regresses a bound of 0
    assert v(0.0, 0.0, "lower", 0.0, absolute=True) == "unchanged"
    assert v(0.0, 0.01, "lower", 0.0, absolute=True) == "regressed"
    # sim_makespan_s is deterministic
    assert v(192.06, 192.06, "lower", 1e-9) == "unchanged"
    assert v(192.06, 192.07, "lower", 1e-9) == "regressed"


def test_compare_rows_and_exact_counts():
    def result(wall, hits):
        return {
            "workloads": {
                "explore_session": {
                    "end_to_end": {"job_wall_p50_s": wall, "failed_share": 0.0},
                    "per_layer": {"cache.store_hits": hits, "cache.lookup_s": wall / 10},
                }
            }
        }

    base, new = result(0.030, 4980), result(0.020, 4981)
    base["aa_spread"] = measure.aa_spread(base, result(0.0303, 4980))
    rows, layers = measure.compare_results(base, new)
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("job_wall_p50_s", "improved"),
        ("failed_share", "unchanged"),
    ]
    assert rows[0]["spread"] == pytest.approx(0.01)
    assert {r["metric"]: r["exact_mismatch"] for r in layers} == {
        "cache.store_hits": True,
        "cache.lookup_s": False,
    }
    assert "EXACT COUNT DIFFERS" in measure.render_compare(rows, layers)


def test_benchmark_json_agrees_with_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["benchmarks/wall"]
    assert [w["name"] for w in spec["workloads"]] == list(measure.WORKLOADS)
    assert list(workloads.REGISTRY) == list(measure.WORKLOADS)
    table = {n: (u, b, bound) for n, u, b, bound in measure.END_TO_END}
    for metric in spec["end_to_end"]:
        assert table[metric["name"]] == (metric["unit"], metric["better"], metric["bound"])
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == measure.PER_LAYER


def test_a_flipped_digest_fails_every_job(tmp_path):
    wide = workloads.WideExplore(1, 0.2, str(tmp_path))
    wide.setup()
    wide.run()
    wide.check()
    assert (wide.failed, wide.attempted) == (0, 3)
    wide.reference = wide.reference[::-1]
    wide.run()
    assert wide.failed == wide.attempted == 3
    assert "reference" in wide.failures[0]


def test_a_wrong_simulated_makespan_fails(tmp_path):
    wide = workloads.WideExplore(1, 0.2, str(tmp_path))
    wide.setup()
    wide.reference_sim *= 1.0 + 1e-6
    wide.run()
    wide.check()
    assert wide.failed == 1 and "sim_makespan_s" in wide.failures[0]


def test_quick_pass_over_every_workload():
    """Every code path once: five workloads, untraced and traced, the
    oracle, the span files, the result file, then --compare on it."""
    out = os.path.join(HERE, "out", "result.selftest.json")
    done = subprocess.run(
        RUN + ["--quick", "--trace", "--seed", "5", "--out", out],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out) as fh:
        result = json.load(fh)
    assert result["provenance"]["cpu_count"] == os.cpu_count()
    assert result["provenance"]["bench.calibration_s"] > 0
    measured = set()
    for name in measure.WORKLOADS:
        data = result["workloads"][name]
        assert data["correct"] and data["failed"] == 0 and data["attempted"] >= 6, name
        assert all(data["end_to_end"][m] > 0 for m, *_ in measure.END_TO_END[:6]), name
        assert data["end_to_end"]["failed_share"] == 0
        assert "bench.trace_overhead_share" in data["per_layer"]
        measured |= {m for m, value in data["per_layer"].items() if value}
        limit = 0.10 if name in measure.SINGLE_PROCESS else 1.0
        assert data["per_layer"].get("engine.residual_share", 0.0) <= limit
        with open(os.path.join(HERE, "out", f"spans.{name}.json")) as fh:
            spans = json.load(fh)
        assert {"name", "start", "end", "parent", "job"} <= set(spans[0])
        assert any(s["parent"] is not None for s in spans)
    # no per-layer metric is dead: each is non-zero on some workload
    # (nobody waits on a flight in a clean run, a one-second session does
    # not fill the quota, and a fair queue can hit its shares exactly)
    silent = {m for m, *_ in measure.PER_LAYER} - measured
    assert silent <= {
        "cache.flight_waits",
        "cache.quota_evictions",
        "service.admission_share_err",
    }, silent
    # per job, the parts the service stamps add up to the latency it reports
    with open(os.path.join(HERE, "out", "spans.service_paced.json")) as fh:
        spans = json.load(fh)
    own = measure.self_times(spans)
    by_job = {}
    for span, self_time in zip(spans, own):
        by_job.setdefault(span["job"], {})[span["name"]] = (span, self_time)
    for job, parts in by_job.items():
        if job is None or "job" not in parts:
            continue
        wait = parts["service.queue_wait"][0]
        running, pipe_collect = parts["service.running"]
        worker = parts["service.worker"][0]
        assert (wait["end"] - wait["start"]) + pipe_collect + (
            worker["end"] - worker["start"]
        ) == pytest.approx(running["end"] - wait["start"], abs=1e-9)
        assert pipe_collect >= 0
    compared = subprocess.run(
        RUN + ["--compare", out, out], capture_output=True, text=True, timeout=60
    )
    assert compared.returncode == 0 and "unchanged" in compared.stdout
    assert "regressed" not in compared.stdout


def test_driver_form_prints_the_contract_line_last():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(
            RUN + ["--workload", "service_burst", "--seed", "2", "--seconds", "1",
                   "--quick", "--trace", trace],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr[-3000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in spec[section]]
        for metric in spec[section]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in line["metrics"].values())
