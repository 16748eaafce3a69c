"""Paper-invariant validators over decision traces.

Each checker replays a :class:`~repro.trace.events.Trace` and returns the
list of :class:`Violation` records it found (empty = invariant holds):

* :func:`check_depth_first` — Algorithm 1: between an explore and its
  choose the schedule is depth-first.  Whenever a ready successor of the
  last executed stage existed, the scheduler must have taken one of them
  (a ready choose stage may preempt, as the algorithm finalises scopes as
  early as possible); only with no ready successor may it fall back to the
  pending branch queue.
* :func:`check_amm_ranking` — Algorithm 2: every AMM eviction picked the
  in-memory partition minimising ``pre(d) = acc(d) · δ(n, d) · α`` (ties
  broken towards least-recently-used, then key order), the recorded
  preferences are consistent with the recorded ``acc``/size/``α`` inputs,
  and dead data (``acc = 0``) was dropped without a spill (R4).
* :func:`check_pruning_sound` — Table 1: every pruned branch carries the
  evaluator/selection properties that justify pruning (associative
  selection plus monotone/convex evaluator or non-exhaustive selection),
  and no pruned stage or branch shows any activity afterwards.
* :func:`check_no_use_after_discard` — R3 safety: no partition of a
  dataset is ever read after the dataset was discarded (or absorbed into
  a composite and then discarded).
* :func:`check_recovery_sound` — §5 recovery: once a partition is marked
  for recomputation (``recovery_started``), no read of it may occur until
  its recompute lands (``partition_stored`` or a fresh registration), and
  every marked partition is eventually rebuilt or discarded.
* :func:`check_cache_sound` — result-cache soundness: a cache hit serves
  exactly the bytes its admit recorded, never lands on an invalidated
  entry, and the dataset it materialises registers with the promised size
  (a hit never changes output bytes vs. cold execution).
* :func:`check_profile_conserved` — profiler conservation: the recorded
  spans (extended ``stage_completed`` plus ``span`` events) tile the
  makespan with no gaps or overlaps, each span's component breakdown sums
  to its wall to 1e-9, and no node's share exceeds the span's wall — so
  every simulated second is attributable to exactly one category
  (:mod:`repro.prof`).

``validate_trace`` runs all seven; ``assert_valid`` raises
:class:`InvariantViolation` listing every violation.  The module-level
auto-validate flag lets the benchmark harness (``python -m repro bench
--validate``) check every figure-reproduction run for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from .events import Trace


@dataclass(frozen=True)
class Violation:
    """One invariant violation, anchored to the offending event."""

    check: str
    seq: int
    message: str

    def __str__(self) -> str:  # pragma: no cover
        return f"[{self.check}] event #{self.seq}: {self.message}"


class InvariantViolation(AssertionError):
    """Raised by :func:`assert_valid` when any invariant checker fails."""

    def __init__(self, violations: List[Violation]):
        self.violations = violations
        lines = "\n".join(f"  [{v.check}] event #{v.seq}: {v.message}" for v in violations)
        super().__init__(f"{len(violations)} trace invariant violation(s):\n{lines}")


# ----------------------------------------------------------------- Algorithm 1


def check_depth_first(trace: Trace) -> List[Violation]:
    """Algorithm 1's depth-first discipline over ``stage_scheduled`` events.

    Only decisions made by a branch-aware scheduler (``scheduler == "bas"``)
    are constrained; BFS and custom schedulers pass vacuously.
    """
    violations: List[Violation] = []
    for event in trace.filter("stage_scheduled"):
        data = event.data
        if data.get("scheduler") != "bas":
            continue
        picked = data["stage"]
        successors = list(data["successors_ready"])
        ready = list(data["ready"])
        chooses = set(data["ready_choose"])
        candidates = successors if successors else ready
        candidate_chooses = [c for c in candidates if c in chooses]
        if candidate_chooses:
            if picked not in candidate_chooses:
                violations.append(
                    Violation(
                        "depth_first",
                        event.seq,
                        f"a choose stage {candidate_chooses} was a candidate but "
                        f"{picked!r} was scheduled (chooses must run as early as possible)",
                    )
                )
        elif picked not in candidates:
            violations.append(
                Violation(
                    "depth_first",
                    event.seq,
                    f"ready successors {successors} of the last stage existed but "
                    f"{picked!r} was scheduled (schedule is not depth-first)",
                )
            )
    return violations


# ----------------------------------------------------------------- Algorithm 2


def check_amm_ranking(trace: Trace, alpha: Optional[float] = None) -> List[Violation]:
    """Algorithm 2's eviction ranking over ``partition_evicted`` events.

    ``alpha`` overrides the recorded hardware cost ratio (useful when
    validating a trace against the cost model it *should* have used);
    by default each event's own recorded ``α`` is used.  Only evictions
    decided by the full AMM policy (``policy == "amm"``) are constrained —
    LRU and the ablation policies make no ``pre(d)`` promise.
    """
    violations: List[Violation] = []
    for event in trace.filter("partition_evicted"):
        data = event.data
        if data.get("policy") != "amm":
            continue
        ranking = data["ranking"]
        if not ranking or any("pre" not in entry for entry in ranking):
            violations.append(
                Violation(
                    "amm_ranking",
                    event.seq,
                    "eviction by an 'amm' policy recorded no pre(d) ranking snapshot",
                )
            )
            continue
        a = alpha if alpha is not None else data["alpha"]
        # the recorded preferences must be the formula applied to the inputs
        for entry in ranking:
            if entry.get("acc") is None:
                continue
            expected = entry["acc"] * entry["nbytes"] * a
            if not math.isclose(expected, entry["pre"], rel_tol=1e-9, abs_tol=1e-12):
                violations.append(
                    Violation(
                        "amm_ranking",
                        event.seq,
                        f"recorded pre={entry['pre']} for {entry['dataset']!r}[{entry['index']}] "
                        f"does not match acc·size·α = {entry['acc']}·{entry['nbytes']}·{a} "
                        f"= {expected}",
                    )
                )
        # the victim must minimise (pre, last_access, key) over the candidates
        def order_key(entry: Dict[str, Any]):
            return (entry["pre"], entry["last_access"], (entry["dataset"], entry["index"]))

        victim_key = (data["dataset"], data["index"])
        victim = next(
            (e for e in ranking if (e["dataset"], e["index"]) == victim_key), None
        )
        if victim is None:
            violations.append(
                Violation(
                    "amm_ranking",
                    event.seq,
                    f"victim {victim_key} is not among the eviction candidates",
                )
            )
            continue
        best = min(ranking, key=order_key)
        if order_key(victim) != order_key(best):
            violations.append(
                Violation(
                    "amm_ranking",
                    event.seq,
                    f"evicted {victim_key} with pre={victim['pre']} but "
                    f"({best['dataset']!r}, {best['index']}) had lower preference "
                    f"pre={best['pre']}",
                )
            )
        # R4: dead data (acc = 0) is dropped for free, live data is spilled
        if victim.get("acc") is not None:
            should_spill = victim["acc"] > 0
            if bool(data["spilled"]) != should_spill:
                violations.append(
                    Violation(
                        "amm_ranking",
                        event.seq,
                        f"victim {victim_key} has acc={victim['acc']} but "
                        f"spilled={data['spilled']} (dead data must drop free, "
                        f"live data must spill)",
                    )
                )
    return violations


# -------------------------------------------------------------------- Table 1


def _prune_justified(properties: Mapping[str, Any]) -> bool:
    """Table 1: associative selection AND (monotone | convex | non-exhaustive)."""
    return bool(properties.get("associative")) and (
        bool(properties.get("monotone"))
        or bool(properties.get("convex"))
        or bool(properties.get("non_exhaustive"))
    )


def check_pruning_sound(
    trace: Trace, table1: Optional[Mapping[str, Any]] = None
) -> List[Violation]:
    """Every ``branch_pruned`` event must be justified by the Table 1 matrix.

    ``table1`` optionally maps choose names to the expected optimisation
    plan (an :class:`~repro.core.optimizations.OptimizationPlan` or a dict
    with ``prune_superfluous``/``discard_incrementally``); recorded plans
    are checked against it.  Pruned branches and their stages must show no
    later activity (no evaluation, scheduling or completion).
    """
    violations: List[Violation] = []
    pruned_stages: Dict[str, int] = {}  # stage id -> seq of the prune event
    pruned_branches: Dict[tuple, int] = {}  # (choose, branch) -> seq
    for event in trace:
        data = event.data
        if event.kind == "branch_pruned":
            properties = data["properties"]
            plan = data["plan"]
            if not plan.get("prune_superfluous"):
                violations.append(
                    Violation(
                        "pruning_sound",
                        event.seq,
                        f"branch {data['branch']!r} pruned although the recorded "
                        f"optimisation plan forbids superfluous-branch pruning",
                    )
                )
            if not _prune_justified(properties):
                violations.append(
                    Violation(
                        "pruning_sound",
                        event.seq,
                        f"branch {data['branch']!r} pruned but the evaluator/selection "
                        f"properties {properties} do not justify it (Table 1)",
                    )
                )
            if table1 is not None and data["choose"] in table1:
                expected = table1[data["choose"]]
                expected_prune = (
                    expected.get("prune_superfluous")
                    if isinstance(expected, Mapping)
                    else getattr(expected, "prune_superfluous")
                )
                if not expected_prune:
                    violations.append(
                        Violation(
                            "pruning_sound",
                            event.seq,
                            f"choose {data['choose']!r} must not prune per the "
                            f"provided Table 1 row, yet branch {data['branch']!r} "
                            f"was pruned",
                        )
                    )
            for stage_id in data["stages"]:
                pruned_stages.setdefault(stage_id, event.seq)
            pruned_branches.setdefault((data["choose"], data["branch"]), event.seq)
        elif event.kind in ("stage_scheduled", "stage_completed"):
            stage_id = data["stage"]
            if stage_id in pruned_stages:
                violations.append(
                    Violation(
                        "pruning_sound",
                        event.seq,
                        f"stage {stage_id!r} was pruned at event "
                        f"#{pruned_stages[stage_id]} but later {event.kind}",
                    )
                )
        elif event.kind == "branch_evaluated":
            key = (data["choose"], data["branch"])
            if key in pruned_branches:
                violations.append(
                    Violation(
                        "pruning_sound",
                        event.seq,
                        f"branch {data['branch']!r} was pruned at event "
                        f"#{pruned_branches[key]} but later evaluated",
                    )
                )
    return violations


# ------------------------------------------------------------------ R3 safety


def check_no_use_after_discard(trace: Trace) -> List[Violation]:
    """No ``dataset_access`` may target a discarded (or absorbed) dataset."""
    violations: List[Violation] = []
    live: set = set()
    gone: Dict[str, int] = {}  # dataset id -> seq of discard/absorb event
    for event in trace:
        data = event.data
        if event.kind == "dataset_registered":
            live.add(data["dataset"])
            gone.pop(data["dataset"], None)
        elif event.kind == "composite_registered":
            live.add(data["dataset"])
            gone.pop(data["dataset"], None)
            for member in data["members"]:
                # members are absorbed: future reads must go via the composite
                live.discard(member)
                gone[member] = event.seq
        elif event.kind == "dataset_discarded":
            live.discard(data["dataset"])
            gone[data["dataset"]] = event.seq
        elif event.kind == "dataset_access":
            dataset = data["dataset"]
            if dataset not in live:
                where = (
                    f"discarded at event #{gone[dataset]}"
                    if dataset in gone
                    else "never registered"
                )
                violations.append(
                    Violation(
                        "no_use_after_discard",
                        event.seq,
                        f"partition {data['index']} of dataset {dataset!r} "
                        f"read on {data['node']!r} but the dataset was {where}",
                    )
                )
    return violations


# -------------------------------------------------------------- §5 recovery


def check_recovery_sound(trace: Trace) -> List[Violation]:
    """No recovered dataset partition is read before its recompute lands.

    ``recovery_started`` declares the master's plan: the ``recomputed``
    list names ``(dataset, index)`` pairs whose contents are *gone* until a
    re-executed stage stores them again.  A ``dataset_access`` touching a
    pending pair — directly, or through a composite one of whose members is
    pending — means the engine consumed data it had not yet rebuilt.  A
    pending pair is settled by a matching ``partition_stored``, by a fresh
    registration of the dataset, or by its discard (the dead-data arm).
    Pairs still pending at the end of the trace were never rebuilt at all.
    """
    violations: List[Violation] = []
    pending: Dict[tuple, int] = {}  # (dataset, index) -> seq of recovery_started
    members_of: Dict[str, List[str]] = {}  # composite id -> member dataset ids
    for event in trace:
        data = event.data
        if event.kind == "recovery_started":
            for dataset, index in data["recomputed"]:
                pending[(dataset, index)] = event.seq
        elif event.kind == "partition_stored":
            pending.pop((data["dataset"], data["index"]), None)
        elif event.kind in ("dataset_registered", "dataset_discarded"):
            dataset = data["dataset"]
            for key in [k for k in pending if k[0] == dataset]:
                del pending[key]
        elif event.kind == "composite_registered":
            members_of[data["dataset"]] = list(data["members"])
        elif event.kind == "dataset_access":
            dataset = data["dataset"]
            touched = [dataset] + members_of.get(dataset, [])
            for target in touched:
                hits = [k for k in pending if k[0] == target]
                if not hits:
                    continue
                first = min(hits, key=lambda k: pending[k])
                violations.append(
                    Violation(
                        "recovery_sound",
                        event.seq,
                        f"dataset {dataset!r} read on {data['node']!r} while "
                        f"partition {first[1]} of {target!r} was still pending "
                        f"recompute (recovery_started at event "
                        f"#{pending[first]})",
                    )
                )
    for (dataset, index), seq in sorted(pending.items(), key=lambda kv: kv[1]):
        violations.append(
            Violation(
                "recovery_sound",
                seq,
                f"partition {index} of dataset {dataset!r} was marked for "
                f"recompute but never rebuilt or discarded",
            )
        )
    return violations


# ------------------------------------------------------------- cache soundness


def check_cache_sound(trace: Trace) -> List[Violation]:
    """A cache hit never changes output bytes vs. cold execution.

    Replays the ``cache_admit``/``cache_hit``/``cache_invalidate`` protocol
    of :mod:`repro.cache`:

    * a hit on a fingerprint admitted earlier in the trace must report the
      exact nominal bytes the admit recorded (store-tier hits may predate
      the trace — those are only checked against their materialisation);
    * a cluster-tier hit must not land on a fingerprint whose entry was
      invalidated after its latest admit (the entry should be gone);
    * the output dataset a hit materialises must register with exactly the
      hit's bytes (unless an incremental choose discards it first).

    Traces from cache-disabled runs contain none of these events and pass
    vacuously — the golden traces stay authoritative.
    """
    violations: List[Violation] = []
    admitted: Dict[str, tuple] = {}  # fingerprint -> (nbytes, seq)
    invalidated: Dict[str, int] = {}  # fingerprint -> seq (since last admit)
    expect: Dict[str, tuple] = {}  # dataset id -> (nbytes, seq of the hit)
    for event in trace:
        data = event.data
        if event.kind == "cache_admit":
            admitted[data["fingerprint"]] = (data["nbytes"], event.seq)
            invalidated.pop(data["fingerprint"], None)
        elif event.kind == "cache_invalidate":
            invalidated[data["fingerprint"]] = event.seq
        elif event.kind == "cache_hit":
            fingerprint = data["fingerprint"]
            known = admitted.get(fingerprint)
            if known is not None and known[0] != data["nbytes"]:
                violations.append(
                    Violation(
                        "cache_sound",
                        event.seq,
                        f"hit on fingerprint {fingerprint!r} served "
                        f"{data['nbytes']} bytes but the admit at event "
                        f"#{known[1]} recorded {known[0]} bytes",
                    )
                )
            if data["tier"] == "cluster" and fingerprint in invalidated:
                violations.append(
                    Violation(
                        "cache_sound",
                        event.seq,
                        f"cluster-tier hit on fingerprint {fingerprint!r} "
                        f"although its entry was invalidated at event "
                        f"#{invalidated[fingerprint]} and never re-admitted",
                    )
                )
            expect[data["dataset"]] = (data["nbytes"], event.seq)
        elif event.kind == "dataset_registered":
            pending = expect.pop(data["dataset"], None)
            if pending is not None and pending[0] != data["nbytes"]:
                violations.append(
                    Violation(
                        "cache_sound",
                        event.seq,
                        f"dataset {data['dataset']!r} registered with "
                        f"{data['nbytes']} bytes but the cache hit at event "
                        f"#{pending[1]} promised {pending[0]} bytes",
                    )
                )
        elif event.kind == "branch_discarded":
            # an incremental choose dropped the hit's pending output before
            # materialisation: nothing left to compare
            expect.pop(data["dataset"], None)
    return violations


# ------------------------------------------------------- profiler conservation

#: relative tolerance of the span-conservation arithmetic (the engine sums
#: exact cost-model floats; only the final ``now + total`` rounding drifts)
_PROFILE_TOL = 1e-9


def check_profile_conserved(trace: Trace) -> List[Violation]:
    """Span events must tile the makespan exactly (profiler conservation).

    Replays the spans ``repro.prof`` reconstructs — ``stage_completed``
    events carrying the wall-time breakdown, plus ``span`` events for
    non-stage clock advances — and verifies, self-contained (no profiler
    import):

    * each span's ``io + compute + network + overhead`` equals its
      ``finished - started`` wall to 1e-9 (nothing inside a span escapes
      categorisation);
    * consecutive spans are contiguous: no gap and no overlap, so the
      spans tile ``[first started, last finished]`` and per-span category
      totals sum to the makespan;
    * no node's ``per_node_io + per_node_compute`` share exceeds the
      span's wall (a node cannot be busier than the span it is busy in);
    * no event is timestamped after the last span's ``finished`` — time
      past the final span would be unattributable.
    """
    violations: List[Violation] = []
    spans: List[tuple] = []  # (seq, started, finished)
    last_t = None
    last_seq = 0
    for event in trace:
        data = event.data
        if event.t is not None and (last_t is None or event.t > last_t):
            last_t, last_seq = event.t, event.seq
        if event.kind not in ("span", "stage_completed"):
            continue
        started, finished = data["started"], data["finished"]
        wall = finished - started
        tol = _PROFILE_TOL * max(1.0, abs(finished))
        parts = data["io"] + data["compute"] + data["network"] + data["overhead"]
        if abs(parts - wall) > tol:
            violations.append(
                Violation(
                    "profile_conserved",
                    event.seq,
                    f"span [{started}, {finished}] has wall {wall} but its "
                    f"components sum to {parts} "
                    f"({abs(parts - wall)} seconds unattributed)",
                )
            )
        shares = {}
        for node, seconds in data["per_node_io"].items():
            shares[node] = shares.get(node, 0.0) + seconds
        for node, seconds in data["per_node_compute"].items():
            shares[node] = shares.get(node, 0.0) + seconds
        for node, share in sorted(shares.items()):
            if share > wall + tol:
                violations.append(
                    Violation(
                        "profile_conserved",
                        event.seq,
                        f"node {node!r} carries {share} busy seconds inside a "
                        f"span of wall {wall} (share exceeds the wall)",
                    )
                )
        spans.append((event.seq, started, finished))
    for (_, _, prev_end), (seq, started, _) in zip(spans, spans[1:]):
        tol = _PROFILE_TOL * max(1.0, abs(prev_end))
        if started > prev_end + tol:
            violations.append(
                Violation(
                    "profile_conserved",
                    seq,
                    f"gap of {started - prev_end} seconds before the span "
                    f"starting at {started}: that time is unattributable",
                )
            )
        elif started < prev_end - tol:
            violations.append(
                Violation(
                    "profile_conserved",
                    seq,
                    f"span starting at {started} overlaps the previous span "
                    f"ending at {prev_end}: that time would be double-counted",
                )
            )
    if spans and last_t is not None:
        end = spans[-1][2]
        if last_t > end + _PROFILE_TOL * max(1.0, abs(end)):
            violations.append(
                Violation(
                    "profile_conserved",
                    last_seq,
                    f"event at t={last_t} lies {last_t - end} seconds past the "
                    f"final span (time after the last span is unattributable)",
                )
            )
    return violations


# ----------------------------------------------------------------- aggregation

ALL_CHECKS = {
    "depth_first": check_depth_first,
    "amm_ranking": check_amm_ranking,
    "pruning_sound": check_pruning_sound,
    "no_use_after_discard": check_no_use_after_discard,
    "recovery_sound": check_recovery_sound,
    "cache_sound": check_cache_sound,
    "profile_conserved": check_profile_conserved,
}


def validate_trace(trace: Optional[Trace]) -> List[Violation]:
    """Run all seven invariant checkers; returns every violation found."""
    if trace is None:
        return []
    violations: List[Violation] = []
    violations.extend(check_depth_first(trace))
    violations.extend(check_amm_ranking(trace))
    violations.extend(check_pruning_sound(trace))
    violations.extend(check_no_use_after_discard(trace))
    violations.extend(check_recovery_sound(trace))
    violations.extend(check_cache_sound(trace))
    violations.extend(check_profile_conserved(trace))
    return violations


def assert_valid(trace: Optional[Trace]) -> None:
    """Raise :class:`InvariantViolation` if any invariant is violated."""
    violations = validate_trace(trace)
    if violations:
        raise InvariantViolation(violations)


class Validator:
    """Run observer: every observed run must satisfy the paper invariants.

    ``run_mdf(..., observers=[Validator()])`` — or ``with
    observing(Validator()):`` around code that calls ``run_mdf``
    internally (``python -m repro bench --validate``) — raises
    :class:`InvariantViolation` out of ``run_mdf`` once the job finished.
    """

    def begin(self, mdf, cluster, config) -> None:
        pass

    def end(self, result) -> None:
        if result is not None:
            assert_valid(result.events)
