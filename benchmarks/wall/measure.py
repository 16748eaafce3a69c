"""Measurement primitives of the wall-clock benchmark.

Everything here is independent of ``repro``: the metric tables (names,
units, directions, bounds), the nearest-rank percentile, the speed clock
that re-times intervals to the quiet machine's speed, the in-memory span
recorder with self-time arithmetic, the machine-speed calibration loop,
run provenance, and the ``--compare`` verdict logic.
"""

from __future__ import annotations

import bisect
import math
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

WORKLOADS: Dict[str, str] = {
    "wide_explore": (
        "10x10 nested synthetic explore, memory-starved, in-process: the engine "
        "control plane is ~90% of the wall, so control-plane and observability-tax "
        "changes show here"
    ),
    "heavy_branches": (
        "128 branches of real SGD, in-process: operator compute is ~83% of the wall, "
        "so control-plane changes must not move it and data-plane changes can"
    ),
    "explore_session": (
        "one analyst's sliding-window re-runs against a quota-bound shared store: "
        "repro.cache (fingerprint, lookup, pickle, flock publish, quota scan) does "
        "most of the work, without dispatcher or pool"
    ),
    "service_paced": (
        "open-loop arrivals at 6 jobs/s through JobService at ~20% utilisation: "
        "latency is the fixed per-job chain from submit to collect, the north "
        "star's 'where did this job's 60 ms go'"
    ),
    "service_burst": (
        "a few hundred jobs submitted back-to-back then drained: deep queue, the "
        "dispatcher (write_state, export, poll) bounds throughput, not the workers"
    ),
}

#: (name, unit, better, bound).  ``bound`` is the share of the base value
#: by which the metric may worsen before ``--compare`` calls a regression;
#: for ``failed_share`` it is absolute.  The first five are also gated by
#: the driver through BENCHMARK.json; ``sim_makespan_s`` is deterministic
#: and ``failed_share`` is 0 on a healthy run, which the driver's
#: spread-based gate cannot express, so this harness gates those two itself.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("job_wall_p50_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("sim_makespan_s", "sim_s", "lower", 1e-9),
    ("failed_share", "ratio", "lower", 0.0),
]

#: (name, unit, better).  A value of 0 on a workload means the layer is
#: not on that workload's path.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim_makespan_s", "sim_s", "lower"),
    ("bench.calibration_s", "s", "lower"),
    ("bench.machine_slowdown", "ratio", "lower"),
    ("bench.generator_late_p95_s", "s", "lower"),
    ("core.build_s", "s", "lower"),
    ("core.stages", "count", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.control_s", "s", "lower"),
    ("engine.control_us_per_event", "us", "lower"),
    ("engine.residual_share", "ratio", "lower"),
    ("engine.tasks", "count", "lower"),
    ("engine.branches_executed", "count", "lower"),
    ("engine.backends.mp_wall_ratio", "ratio", "higher"),
    ("workloads.operator_s", "s", "lower"),
    ("workloads.operator_calls", "count", "lower"),
    ("cluster.evictions", "count", "lower"),
    ("cluster.memory_hit_ratio", "ratio", "higher"),
    ("cluster.bytes_read_disk", "bytes", "lower"),
    ("cache.open_s", "s", "lower"),
    ("cache.lookup_s", "s", "lower"),
    ("cache.admit_s", "s", "lower"),
    ("cache.store_load_s", "s", "lower"),
    ("cache.store_save_s", "s", "lower"),
    ("cache.store_hits", "count", "higher"),
    ("cache.store_writes", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.quota_evictions", "count", "lower"),
    ("cache.store_entries", "count", "lower"),
    ("cache.store_bytes", "bytes", "lower"),
    ("cache.cold_job_wall_s", "s", "lower"),
    ("cache.flight_waits", "count", "lower"),
    ("cache.cross_tenant_hits", "count", "higher"),
    ("trace.events", "count", "lower"),
    ("trace.validate_s", "s", "lower"),
    ("obs.snapshot_s", "s", "lower"),
    ("live.stream_tax_s", "s", "lower"),
    ("service.digest_s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.pump_s", "s", "lower"),
    ("service.dispatcher_busy_share", "ratio", "lower"),
    ("service.queue_wait_p50_s", "s", "lower"),
    ("service.pipe_collect_p50_s", "s", "lower"),
    ("service.worker.wall_p50_s", "s", "lower"),
    ("service.worker.inproc_run_job_s", "s", "lower"),
    ("service.write_state_s", "s", "lower"),
    ("service.obs.export_s", "s", "lower"),
    ("service.state_bytes", "bytes", "lower"),
    ("service.events_bytes", "bytes", "lower"),
    ("service.replay_s", "s", "lower"),
    ("service.latency_p90_s", "s", "lower"),
    ("service.latency_residual_share", "ratio", "lower"),
    ("service.admission_share_err", "ratio", "lower"),
    ("service.worker.peak_rss_mb", "MB", "lower"),
]

#: per-layer values that must repeat bit-for-bit between two runs of one
#: commit with one seed on the single-process workloads (``--aa`` checks)
EXACT_LAYERS = frozenset(
    {
        "sim_makespan_s",
        "core.stages",
        "engine.tasks",
        "engine.branches_executed",
        "workloads.operator_calls",
        "cluster.evictions",
        "cluster.memory_hit_ratio",
        "cluster.bytes_read_disk",
        "cache.store_hits",
        "cache.store_writes",
        "cache.hit_ratio",
        "cache.quota_evictions",
        "cache.store_entries",
        "trace.events",
    }
)
SINGLE_PROCESS = ("wide_explore", "heavy_branches", "explore_session")


# ------------------------------------------------------------- statistics
def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Exact nearest-rank percentile (no interpolation)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def mix_p50(samples: Iterable[Tuple[str, float]]) -> float:
    """The median per job kind, averaged over the kinds.

    A service mix is bimodal (a ``dl_grid`` job takes about twice a
    private one), so a pooled median sits on the boundary between the
    modes and jumps with the order a seed happens to draw.
    """
    by_kind: Dict[str, List[float]] = {}
    for kind, value in samples:
        by_kind.setdefault(kind, []).append(value)
    return sum(percentile(v, 50) for v in by_kind.values()) / len(by_kind)


# ------------------------------------------------------------ speed clock
def reference_kernel():
    """A fixed piece of work of about 3 ms, half allocation-heavy pure
    Python (objects, strings, tuples, dicts: what the engine's control
    plane does) and half small-matrix numpy (what the operators do)."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((600, 64))
    w1 = rng.standard_normal((64, 16))
    w2 = rng.standard_normal((16, 10))

    class Item:
        __slots__ = ("a", "b", "c", "d")

        def __init__(self, a, b, c, d):
            self.a, self.b, self.c, self.d = a, b, c, d

    def kernel() -> None:
        items, index = [], {}
        for i in range(1500):
            item = Item(i, str(i), (i, i + 1), {"k": i})
            items.append(item)
            index[item.b] = item
            if i % 7 == 0:
                index.pop(str(i // 2), None)
        for _ in range(2):
            a, b = w1.copy(), w2.copy()
            for s in range(0, 600, 32):
                batch = x[s : s + 32]
                hidden = np.maximum(batch @ a, 0)
                out = hidden @ b
                e = np.exp(out - out.max(axis=1, keepdims=True))
                p = e / e.sum(axis=1, keepdims=True)
                grad_b = hidden.T @ p
                grad_a = batch.T @ ((p @ b.T) * (hidden > 0))
                a -= 0.001 * grad_a
                b -= 0.001 * grad_b

    return kernel


class SpeedClock:
    """Re-times intervals to the speed of the quiet sandbox.

    The host this benchmark runs on is shared, and for seconds to minutes
    at a time its neighbours make *everything* slower: the same
    ``wide_explore`` job took 57 ms and 103 ms within one minute, the
    CPU time it was charged rose with its wall time, and no statistic of
    one run's raw times (median, quietest window, minimum) is the same in
    both phases.  A fixed reference kernel run between the jobs slows
    down by the same factor (job ÷ kernel stayed within a few percent
    through those phases), so the clock samples the kernel all through
    the timed region and weights every stretch of wall time by
    ``NOMINAL_S ÷ (the nearest sample's duration)``.  What comes out is
    still seconds: the time the interval would have taken on the quiet
    machine.  A change to the program moves it like it moves the raw
    time; a change in the neighbours' load does not.
    """

    #: the kernel's time between jobs on the quiet 2-core sandbox
    NOMINAL_S = 0.0027

    def __init__(self) -> None:
        self.kernel = reference_kernel()
        self.at: List[float] = []  # a sample's middle, on perf_counter
        self.took: List[float] = []  # its duration
        self._last_end = -math.inf

    def tick(self, period: float = 0.0, reps: int = 1) -> None:
        """Sample the kernel (median of ``reps`` runs) unless the last
        sample ended less than ``period`` seconds ago."""
        start = time.perf_counter()
        if start - self._last_end < period:
            return
        runs, mark = [], start
        for _ in range(reps):
            self.kernel()
            now = time.perf_counter()
            runs.append(now - mark)
            mark = now
        self.at.append((start + mark) / 2)
        self.took.append(percentile(runs, 50))
        self._last_end = mark

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` with each stretch weighted by the speed of the
        sample nearest to it in time."""
        at, took = self.at, self.took
        i = bisect.bisect_left(at, start)
        # step back when the sample before ``start`` is the nearer one
        if i == len(at) or (i and start - at[i - 1] < at[i] - start):
            i -= 1
        total = 0.0
        while True:
            # sample i is the nearest up to half-way to sample i + 1
            reach = (at[i] + at[i + 1]) / 2 if i + 1 < len(at) else end
            reach = min(max(reach, start), end)
            total += (reach - start) / took[i]
            if reach >= end:
                return total * self.NOMINAL_S
            start, i = reach, i + 1

    def samples(self, origin: float) -> Dict[str, List[float]]:
        """The samples for the result file, times counted from ``origin``."""
        return {
            "speed_sample_at_s": [t - origin for t in self.at],
            "speed_sample_s": self.took,
        }

    def slowdown(self) -> float:
        """Median sample ÷ nominal: how slow the machine was meanwhile."""
        return percentile(self.took, 50) / self.NOMINAL_S


# ------------------------------------------------------------------ spans
class Tracer:
    """In-memory span recorder: ``{name, start, end, parent, job}``.

    Spans opened inside another span (same thread) get it as parent and
    inherit its job id, so the timing subclasses handed into the engine
    need no knowledge of the job they run under.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        #: off outside the timed region, so set-up and reference jobs
        #: that go through the same timing subclasses leave no spans
        self.enabled = False

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        job: Optional[str] = None,
    ) -> int:
        if parent is None and self._stack:
            parent = self._stack[-1]
        if job is None and parent is not None:
            job = self.spans[parent]["job"]
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent, "job": job}
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, job: Optional[str] = None):
        if not self.enabled:
            yield None
            return
        index = self.add(name, time.perf_counter(), 0.0, job=job)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()


def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    """Per span: its duration minus the part its children cover.

    Children may overlap each other and may stick out of the parent;
    the covered part is the union of the child intervals clipped to the
    parent's interval.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = []
    for index, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        covered, reach = 0.0, lo
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        result.append((hi - lo) - covered)
    return result


def layer_totals(spans: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """``{name: {"count", "busy", "self"}}`` summed over the spans."""
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span["name"], {"count": 0, "busy": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["busy"] += span["end"] - span["start"]
        entry["self"] += own
    return totals


# ------------------------------------------------- calibration, provenance
def calibration_s() -> float:
    """A fixed pure-Python + numpy loop: the machine-speed reference
    printed beside ``cpu_count`` (best of three)."""
    import numpy as np

    matrix = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc = (acc * 31 + i) % 1_000_003
        product = matrix
        for _ in range(500):
            product = (product @ matrix) / 64.0
        best = min(best, time.perf_counter() - started)
    assert acc >= 0 and product.shape == (64, 64)
    return best


def provenance(seed: int, root: str) -> Dict[str, Any]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "argv": sys.argv[1:],
    }


# ---------------------------------------------------------------- compare
def worsening(base: float, new: float, better: str, absolute: bool = False) -> float:
    """How much worse ``new`` is than ``base`` (negative = better), as a
    share of ``base`` unless ``absolute``."""
    delta = (new - base) if better == "lower" else (base - new)
    if absolute:
        return delta
    return delta / abs(base) if base else (0.0 if delta == 0 else math.inf)


def verdict(
    base: float,
    new: float,
    better: str,
    bound: float,
    spread: Optional[float] = None,
    absolute: bool = False,
) -> str:
    """``improved`` / ``unchanged`` / ``regressed`` / ``unresolved``.

    ``spread`` is the A/A difference of the same metric on the base
    commit (same units as the bound); when it exceeds the bound the
    instrument cannot resolve a change of the size the bound forbids.
    """
    if spread is not None and spread > bound:
        return "unresolved"
    worse = worsening(base, new, better, absolute)
    if worse > bound:
        return "regressed"
    if worse < -max(bound, spread or 0.0):
        return "improved"
    return "unchanged"


def compare_results(
    base: Dict[str, Any], new: Dict[str, Any]
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Rows for the end-to-end verdict table and the per-layer deltas."""
    spreads = base.get("aa_spread", {})
    rows, layers = [], []
    for workload in WORKLOADS:
        a = base["workloads"].get(workload)
        b = new["workloads"].get(workload)
        if not a or not b:
            continue
        for name, unit, better, bound in END_TO_END:
            if name not in a["end_to_end"] or name not in b["end_to_end"]:
                continue
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            absolute = name == "failed_share"
            spread = spreads.get(workload, {}).get(name)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": unit,
                    "base": x,
                    "new": y,
                    "ratio": (y / x) if x else None,
                    "bound": bound,
                    "spread": spread,
                    "verdict": verdict(x, y, better, bound, spread, absolute),
                }
            )
        for name, unit, _ in PER_LAYER:
            x = a.get("per_layer", {}).get(name)
            y = b.get("per_layer", {}).get(name)
            if x is None or y is None or (x == 0 and y == 0):
                continue
            layers.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": unit,
                    "base": x,
                    "new": y,
                    "ratio": (y / x) if x else None,
                    "exact_mismatch": (
                        name in EXACT_LAYERS
                        and workload in SINGLE_PROCESS
                        and x != y
                    ),
                }
            )
    return rows, layers


def aa_spread(first: Dict[str, Any], second: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per workload × end-to-end metric: how far two runs of one commit
    are apart, in the units of the metric's bound."""
    spread: Dict[str, Dict[str, float]] = {}
    for workload, a in first["workloads"].items():
        b = second["workloads"].get(workload)
        if not b:
            continue
        for name, _, better, _ in END_TO_END:
            if name in a["end_to_end"] and name in b["end_to_end"]:
                spread.setdefault(workload, {})[name] = abs(
                    worsening(
                        a["end_to_end"][name],
                        b["end_to_end"][name],
                        better,
                        absolute=name == "failed_share",
                    )
                )
    return spread


def _num(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.6g}"
    return f"{value:.4e}"


def render_compare(rows: List[Dict[str, Any]], layers: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<16} {'unit':<6} {'base':>12} {'new':>12} "
        f"{'new/base':>9} {'bound':>7} {'A/A':>7}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<16} {r['metric']:<16} {r['unit']:<6} "
            f"{_num(r['base']):>12} {_num(r['new']):>12} {_num(r['ratio']):>9} "
            f"{_num(r['bound']):>7} {_num(r['spread']):>7}  {r['verdict']}"
        )
    if layers:
        lines.append("")
        lines.append(
            f"{'workload':<16} {'layer metric':<34} {'unit':<6} {'base':>12} "
            f"{'new':>12} {'new/base':>9}"
        )
        for r in layers:
            flag = "  EXACT COUNT DIFFERS" if r["exact_mismatch"] else ""
            lines.append(
                f"{r['workload']:<16} {r['metric']:<34} {r['unit']:<6} "
                f"{_num(r['base']):>12} {_num(r['new']):>12} {_num(r['ratio']):>9}{flag}"
            )
    return "\n".join(lines)


def render_result(result: Dict[str, Any]) -> str:
    """Every metric of one result file by name, with its unit."""
    prov = result["provenance"]
    lines = [
        f"cpu_count={prov['cpu_count']} affinity={prov['affinity']} "
        f"calibration_s={_num(prov.get('bench.calibration_s'))} "
        f"git={prov['git_sha'][:12]} python={prov['python']} numpy={prov['numpy']} "
        f"seed={prov['seed']}"
    ]
    units = {name: unit for name, unit, *_ in END_TO_END}
    units.update({name: unit for name, unit, _ in PER_LAYER})
    units["bench.trace_overhead_share"] = "ratio"
    for workload, data in result["workloads"].items():
        lines.append("")
        lines.append(
            f"[{workload}] attempted={data['attempted']} failed={data['failed']} "
            f"correct={data['correct']}"
        )
        for failure in data.get("failures", []):
            lines.append(f"  FAILURE: {failure}")
        for section in ("end_to_end", "per_layer"):
            for name, value in data.get(section, {}).items():
                lines.append(f"  {name:<36} {_num(value):>14} {units.get(name, '')}")
    return "\n".join(lines)
