#!/usr/bin/env python3
"""One wall-clock benchmark for the whole stack, solo ``run_mdf`` to the
job service.  See README.md beside this file.

    python benchmarks/wall/run.py                      # all five workloads
    python benchmarks/wall/run.py --trace              # ... plus the per-layer run
    python benchmarks/wall/run.py --workload wide_explore --seed 3
    python benchmarks/wall/run.py --aa                 # suite twice, verdicts on itself
    python benchmarks/wall/run.py --compare A.json B.json

With ``--workload`` the last line of standard output is the one-object
JSON result the benchmark contract (BENCHMARK.json) asks for.  Every
workload runs in a fresh subprocess of this same file (``--child``), so
set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import measure  # noqa: E402

#: how often set-up (interpreter start and imports in fresh interpreters,
#: the workload's own set-up in the child) is repeated in one run; the
#: median of each part is reported
SETUP_REPS = 3
#: a child is killed, with its process group, after this long
CHILD_TIMEOUT_S = 170


def contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------------- child
def load_workloads():
    """Import the workloads module (numpy, repro) into this interpreter."""
    # BLAS threads are pinned before numpy loads: un-pinned, the SGD
    # workload swung 340-795 ms per job on two cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"run.py: no repro package under {src}")
    sys.path.insert(0, src)
    import workloads

    return workloads


def child(args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in this process; returns its full result."""
    import gc
    import resource

    workloads = load_workloads()
    reps = 1 if args.quick else SETUP_REPS
    clock = measure.SpeedClock()

    def timed(call) -> float:
        """``call``'s wall time, re-timed to the quiet machine's speed."""
        clock.tick(reps=3)
        t0 = time.perf_counter()
        call()
        t1 = time.perf_counter()
        clock.tick(reps=3)
        return clock.scaled(t0, t1)

    # the host slows one CPU at a time (two pinned kernel loops read 2.3
    # and 3.4 ms side by side, swapping every few seconds), so the fresh
    # interpreters run on the CPU the clock samples on
    importer = [sys.executable, os.path.abspath(__file__), "--import-only"]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        imports = [timed(lambda: subprocess.run(importer, check=True)) for _ in range(reps)]
    finally:
        os.sched_setaffinity(0, allowed)
    tracer = measure.Tracer() if args.trace else None
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT)
    workload = None

    def set_up() -> None:
        nonlocal workload
        if workload is not None:
            workload.close()
        gc.collect()
        workload = workloads.REGISTRY[args.workload](
            args.seed, args.seconds, tmp, tracer, clock
        )
        workload.setup()

    try:
        setups = [timed(set_up) for _ in range(reps)]
        calibration = measure.calibration_s()
        workload.run()
        workload.check()
        end_to_end = dict(workload.end_to_end)
        end_to_end["setup_s"] = measure.percentile(imports, 50) + measure.percentile(setups, 50)
        end_to_end["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        per_layer = {}
        if tracer is not None:
            per_layer = workload.layers(args.quick)
            per_layer["sim_makespan_s"] = end_to_end["sim_makespan_s"]
            per_layer["bench.calibration_s"] = calibration
            per_layer["bench.machine_slowdown"] = clock.slowdown()
            with open(os.path.join(OUT, f"spans.{args.workload}.json"), "w") as fh:
                json.dump(tracer.spans, fh)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    failed = min(workload.failed, workload.attempted)
    end_to_end["failed_share"] = failed / workload.attempted
    provenance = measure.provenance(args.seed, ROOT)
    provenance["bench.calibration_s"] = calibration
    return {
        "workload": args.workload,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": failed,
        "failures": workload.failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": workload.samples,
        "provenance": provenance,
    }


# ------------------------------------------------------------------ parent
def spawn(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    """One workload in a fresh subprocess; returns the child's result."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    if quick:
        command.append("--quick")
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"run.py: {workload} exceeded {CHILD_TIMEOUT_S} s and was killed")
    if proc.returncode != 0:
        raise SystemExit(f"run.py: {workload} child exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_suite(
    names: List[str], seed: int, seconds: float, trace: bool, quick: bool
) -> Dict[str, Any]:
    """Each workload untraced (the end-to-end numbers), then, with
    ``trace``, once more traced (the per-layer numbers only)."""
    result: Dict[str, Any] = {"schema": "wall-bench/1", "workloads": {}}
    for name in names:
        print(f"[{name}] running ...", file=sys.stderr, flush=True)
        plain = spawn(name, seed, seconds, False, quick)
        result["provenance"] = plain.pop("provenance")
        if trace:
            traced = spawn(name, seed, seconds, True, quick)
            for key in ("attempted", "failed"):
                plain[key] += traced[key]
            plain["correct"] = plain["correct"] and traced["correct"]
            plain["failures"] += traced["failures"]
            plain["per_layer"] = traced["per_layer"]
            headline = "latency_p50_s" if name.startswith("service") else "job_wall_p50_s"
            plain["per_layer"]["bench.trace_overhead_share"] = (
                traced["end_to_end"][headline] / plain["end_to_end"][headline] - 1.0
            )
        result["workloads"][name] = plain
    return result


def save(result: Dict[str, Any], path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(path)}", file=sys.stderr)


def contract_line(data: Dict[str, Any], trace: bool) -> str:
    """The driver's one-object result: exactly the metrics BENCHMARK.json
    names for this kind of run (a layer off this workload's path is 0)."""
    spec = contract()
    section, values = (
        ("per_layer", data["per_layer"]) if trace else ("end_to_end", data["end_to_end"])
    )
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in spec[section]
    }
    return json.dumps(
        {
            "correct": data["correct"],
            "attempted": data["attempted"],
            "failed": data["failed"],
            "metrics": metrics,
        }
    )


def run_aa(names: List[str], seed: int, seconds: float, trace: bool, quick: bool) -> int:
    """The suite twice on this checkout; the compare verdicts applied to
    the pair.  Fails when an end-to-end metric moved by more than its own
    bound, or an exact count differs."""
    first = run_suite(names, seed, seconds, trace, quick)
    second = run_suite(names, seed, seconds, trace, quick)
    first["aa_spread"] = measure.aa_spread(first, second)
    save(first, os.path.join(OUT, f"result.seed{seed}.json"))
    save(second, os.path.join(OUT, f"result.seed{seed}.aa.json"))
    rows, layers = measure.compare_results(first, second)
    print(measure.render_compare(rows, layers))
    unresolved = [r for r in rows if r["verdict"] != "unchanged"]
    inexact = [r for r in layers if r["exact_mismatch"]]
    broken = [w for r in (first, second) for w, d in r["workloads"].items() if not d["correct"]]
    for row in unresolved:
        print(f"A/A: {row['workload']} {row['metric']} is {row['verdict']}")
    for row in inexact:
        print(f"A/A: {row['workload']} {row['metric']} is not exact")
    return 1 if unresolved or inexact or broken else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(measure.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed region per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="also make the traced per-layer run (0|1)")
    parser.add_argument("--quick", action="store_true",
                        help="about one second per workload, one set-up")
    parser.add_argument("--aa", action="store_true",
                        help="run twice and apply the compare verdicts to the pair")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--out", help="result file (default: out/result.seed<N>.json "
                        "for the suite, none with --workload)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--import-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.import_only:
        load_workloads()
        return 0
    if args.compare:
        with open(args.compare[0]) as a, open(args.compare[1]) as b:
            rows, layers = measure.compare_results(json.load(a), json.load(b))
        print(measure.render_compare(rows, layers))
        return 1 if any(r["verdict"] == "regressed" for r in rows) else 0
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(contract()["run_seconds"])
    if args.child:
        print(json.dumps(child(args)))
        return 0

    names = [args.workload] if args.workload else list(measure.WORKLOADS)
    trace = bool(args.trace)
    if args.aa:
        return run_aa(names, args.seed, args.seconds, trace, args.quick)
    if args.workload:
        # the driver's form: one run, traced or not, one JSON line last
        data = spawn(args.workload, args.seed, args.seconds, trace, args.quick)
        result = {
            "schema": "wall-bench/1",
            "provenance": data.pop("provenance"),
            "workloads": {args.workload: data},
        }
        if args.out:
            save(result, args.out)
        print(measure.render_result(result))
        print(contract_line(data, trace))
        return 0 if data["correct"] else 1
    result = run_suite(names, args.seed, args.seconds, trace, args.quick)
    save(result, args.out or os.path.join(OUT, f"result.seed{args.seed}.json"))
    print(measure.render_result(result))
    return 0 if all(d["correct"] for d in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
