"""Typed decision-trace events and the per-job :class:`Trace`.

The engine's two contributions — branch-aware scheduling (Algorithm 1) and
anticipatory memory management (Algorithm 2) — are *decision procedures*.
Aggregate counters (``cluster/metrics.py``) can say *how many* evictions
happened but not *whether each one ranked partitions by*
``pre(d) = acc(d) · δ(n, d) · α``.  This module records every consequential
decision as a typed event with a simulated-clock timestamp, so invariant
checkers (:mod:`repro.trace.validate`) and regression tests can replay the
exact decision sequence after a run.

Every event kind has a fixed payload schema (:data:`EVENT_SCHEMA`); the
trace rejects unknown kinds and malformed payloads at emission time, which
keeps instrumentation drift from silently invalidating the validators.

Exports: canonical JSONL (byte-stable across runs — only simulated time is
recorded, never wall-clock) and the Chrome ``trace_event`` format for
visual inspection in ``chrome://tracing`` / Perfetto.  Canonical JSON is
:func:`canonical_json`, the package's one encoder.
"""

from __future__ import annotations

import functools
import json
import json.encoder
import logging
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional

logger = logging.getLogger("repro.trace")


def _canonical_encoder() -> Callable[[Any], str]:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, built once.

    ``json.dumps`` with any argument makes a new ``JSONEncoder`` and a new C
    encoder per call; this makes the C encoder once, with the settings that
    call passes it, and calls it directly.  Two differences, neither visible
    on the acyclic trees it is given: no cycle check (a cyclic object fails
    with ``RecursionError``, not ``ValueError``), and where the C
    accelerator is missing it is ``json.dumps`` itself.
    """
    make = json.encoder.c_make_encoder
    if make is None:
        return functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    encode = make(
        None,  # markers: no cycle check
        json.JSONEncoder().default,  # raises TypeError, as dumps does
        json.encoder.encode_basestring_ascii,  # ensure_ascii=True
        None,  # indent
        ":",  # key separator
        ",",  # item separator
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )

    def canonical_json(obj: Any) -> str:
        return "".join(encode(obj, 0))

    return canonical_json


#: canonical JSON text of a JSON-ready tree: sorted keys, compact
#: separators, ASCII.  Trace lines, the live stream, the service log and
#: cache fingerprints all go through it.
canonical_json = _canonical_encoder()

#: kind -> exact payload field set.  Emission is strict both ways: missing
#: and unexpected fields are errors, so the schema documented in
#: docs/tracing.md is enforced, not advisory.
EVENT_SCHEMA: Dict[str, frozenset] = {
    # -- scheduling decisions (Algorithm 1)
    "stage_scheduled": frozenset(
        {"stage", "branch", "scheduler", "rationale", "ready", "ready_choose", "successors_ready"}
    ),
    # started/finished plus the wall-time component breakdown (io, compute,
    # network, overhead sum to finished - started) and the per-node io and
    # compute walls the stage's slowest node was chosen from — everything
    # the profiler (repro.prof) needs to attribute the stage's simulated
    # seconds without re-running the cost model.  per_node_tasks (tasks
    # launched on each node) and speculative_tasks (straggler backups among
    # the stage's shares) are what the per-node time/task counters fold from.
    "stage_completed": frozenset(
        {
            "stage",
            "ops",
            "branch",
            "started",
            "finished",
            "io",
            "compute",
            "network",
            "overhead",
            "per_node_io",
            "per_node_compute",
            "per_node_tasks",
            "speculative_tasks",
        }
    ),
    # a clock advance outside any stage: choose evaluation + selection
    # ("choose_evaluation"), a deferred tail's store ("store_commit"), a
    # periodic checkpoint write ("checkpoint") or a §5 checkpoint reload
    # ("recovery_reload").  Together with stage_completed these spans tile
    # [0, completion_time] exactly — check_profile_conserved enforces it.
    "span": frozenset(
        {
            "activity",
            "branch",
            "started",
            "finished",
            "io",
            "compute",
            "network",
            "overhead",
            "per_node_io",
            "per_node_compute",
            "per_node_tasks",
            "speculative_tasks",
        }
    ),
    "task_dispatched": frozenset({"stage", "num_tasks"}),
    # -- choose protocol (Definition 3.3, §4.2)
    "choose_evaluation": frozenset({"evaluator", "dataset", "pipelined"}),
    "branch_evaluated": frozenset({"choose", "branch", "score", "pipelined"}),
    "branch_discarded": frozenset({"choose", "branch", "dataset", "materialized"}),
    "branch_pruned": frozenset({"choose", "branch", "reason", "stages", "plan", "properties"}),
    "choose_finalized": frozenset({"choose", "kept", "discarded", "pruned", "scores"}),
    # -- dataset lifecycle (R3)
    "dataset_registered": frozenset({"dataset", "producer", "nbytes", "partitions"}),
    "composite_registered": frozenset({"dataset", "members", "producer"}),
    "dataset_discarded": frozenset({"dataset"}),
    # seconds is the charged read time; reload marks a miss that streams a
    # partition spilled by an earlier eviction (the profiler splits these
    # out of plain disk io as "eviction-induced reload" time)
    "dataset_access": frozenset(
        {"dataset", "index", "node", "hit", "nbytes", "seconds", "reload"}
    ),
    # a partition landing at a node (tier "memory" or "disk").  Distinct
    # from dataset_access so the trace→metrics bridge can rebuild the
    # per-tier byte-written counters without guessing store sizes.
    "partition_stored": frozenset({"dataset", "index", "node", "nbytes", "tier"}),
    # the source stage streaming the job input from distributed storage.
    # Not a dataset_access: the raw input is never a registered dataset,
    # and check_no_use_after_discard would rightly reject it as one.
    "source_read": frozenset({"dataset", "index", "node", "nbytes"}),
    # -- memory management (Algorithm 2)
    "partition_evicted": frozenset(
        {"node", "dataset", "index", "nbytes", "spilled", "policy", "alpha", "ranking"}
    ),
    # -- fault tolerance (§5)
    "checkpoint_written": frozenset({"dataset", "nbytes"}),
    "node_failed": frozenset({"node", "permanent", "lost", "reloadable"}),
    # a permanently failed node leaving the cluster; its partition shares
    # rebalance across the survivors (graceful degradation)
    "node_decommissioned": frozenset({"node", "reason"}),
    # one partition recovered: action is "reload" (disk/checkpoint copy),
    # "recompute" (re-executed from lineage) or "dropped" (dead data, free)
    "recovery": frozenset({"dataset", "index", "nbytes", "node", "action"}),
    # the master's recovery plan for one node failure: lists of
    # [dataset, index] pairs per classification (a/b/c of §5)
    "recovery_started": frozenset(
        {"node", "stage_index", "permanent", "reloaded", "recomputed", "dropped"}
    ),
    # a stage re-run to rebuild lost partitions; score_reused marks branch
    # tails whose choose score survived in the master's ChooseScoreStore
    "stage_reexecuted": frozenset({"stage", "branch", "dataset", "cause", "score_reused"}),
    # transient task failures retried with backoff (charged per attempt)
    "task_retried": frozenset({"node", "attempts", "seconds"}),
    "task_retries_exhausted": frozenset({"node", "attempts", "max_retries"}),
    # a scheduled FailureEvent/TaskFailureEvent that never fired (its stage
    # index was past the end of the schedule) — benchmark-config rot guard
    "failure_unfired": frozenset({"failure_kind", "node", "stage_index"}),
    # -- lineage-fingerprint result cache (repro.cache)
    # a stage served from cached bytes instead of executing its operators;
    # tier is "cluster" (live partitions, charged by residency) or "store"
    # (the persistent disk tier).  saved_seconds is the modelled recompute
    # cost the hit avoided (reads already charged separately).
    "cache_hit": frozenset(
        {"stage", "dataset", "fingerprint", "tier", "nbytes", "saved_seconds"}
    ),
    # a consulted stage that executed for real.  reason: "cold" (no entry),
    # "not-profitable" (reading the entry would cost more than recomputing
    # under the cost model), "unfingerprintable" (no canonical identity)
    "cache_miss": frozenset({"stage", "fingerprint", "reason"}),
    # a freshly materialised output remembered by the cache; tier records
    # whether the persistent store also kept a copy ("cluster+store")
    "cache_admit": frozenset(
        {"fingerprint", "dataset", "nbytes", "partitions", "tier"}
    ),
    # an entry dropped: "dataset-discarded" (eager, on release), "backing-
    # lost" (lazy, at lookup), "node-failure" (post-recovery revalidation)
    "cache_invalidate": frozenset({"fingerprint", "dataset", "reason"}),
}


class TraceEvent(NamedTuple):
    """One recorded decision: sequence number, time (simulated in a job's
    trace, wall-clock in the service log), kind, payload."""

    seq: int
    t: float
    kind: str
    data: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "t": self.t, "kind": self.kind, "data": self.data}

    def to_json(self) -> str:
        """Canonical one-line JSON: sorted keys, compact separators."""
        return canonical_json(self.as_dict())


def events_jsonl(events: Iterable[TraceEvent]) -> str:
    """Canonical JSONL of ``events``: each one's :meth:`TraceEvent.to_json`
    line, newline-terminated — what :meth:`Trace.to_jsonl` joins and what
    :class:`~repro.live.stream.StreamWriter` writes, batch by batch."""
    return "".join([canonical_json(event.as_dict()) + "\n" for event in events])


def check_event(schema: Dict[str, frozenset], kind: str, data: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``kind`` is in ``schema`` and ``data``
    has exactly its fields: the one payload check, for the engine trace
    (:data:`EVENT_SCHEMA`) and the service log (its own schema) alike."""
    fields = schema.get(kind)
    if fields is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    if data.keys() != fields:
        raise ValueError(
            f"malformed {kind!r} event: missing={sorted(fields - data.keys())} "
            f"unexpected={sorted(data.keys() - fields)}"
        )


def read_events(text: str) -> Iterator[TraceEvent]:
    """The events of complete JSONL lines (blank lines skipped): the one
    line -> :class:`TraceEvent` parser of every trace reader.  An
    undecodable line raises ``ValueError`` naming its 1-based number."""
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                raw = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"line {number}: undecodable event: {exc}") from None
            yield TraceEvent(raw["seq"], raw["t"], raw["kind"], raw.get("data", {}))


class Trace:
    """An append-only, strictly-typed event log for one job execution.

    The cluster owns one trace per run (reset with the cluster); the master,
    executor and memory manager all emit into it through the cluster.  A
    disabled trace (``enabled = False``) turns every emit into a no-op.

    **Fold** (``repro.obs.bridge``): the owning cluster sets ``fold`` to its
    metrics fold, which is applied to each event right after the append and
    before any subscriber — so a subscriber handling event *N* reads
    counters through *N*.  It is an internal step, not a subscriber: nothing
    can detach it, and an exception in it is an engine bug that propagates.

    **Subscriber bus** (``repro.live``): callbacks registered with
    :meth:`subscribe` are invoked *after* each event is committed to
    ``self.events``, in registration order.  Because notification happens
    strictly post-append, every subscriber observes exactly the committed
    event sequence — at any point, the events a subscriber has seen are a
    prefix of the final trace.  Subscribers are pure observers: they must
    not emit events or mutate engine state (a subscriber that did would
    break the byte-identity contract between monitored and unmonitored
    runs).  A raising subscriber is detached after a logged warning — one
    bad dashboard must never kill a job — and the optional
    ``on_subscriber_error`` hook (wired by the cluster to the
    ``live_subscriber_errors`` obs counter) is informed.
    """

    def __init__(self, clock=None, strict: bool = True):
        self.events: List[TraceEvent] = []
        self._clock = clock  # duck-typed: anything with a ``.now`` float
        self.strict = strict
        self.enabled = True
        self._subscribers: List[Callable[[TraceEvent], None]] = []
        #: applied to every committed event before the subscribers; set by
        #: the owning cluster to its counters' ``TraceFold.apply``
        self.fold: Optional[Callable[[TraceEvent], None]] = None
        #: called as ``hook(subscriber, exception)`` when a subscriber
        #: raises (after the subscriber has been detached); set by the
        #: owning cluster to count ``live_subscriber_errors``
        self.on_subscriber_error: Optional[
            Callable[[Callable[[TraceEvent], None], BaseException], None]
        ] = None

    # ---------------------------------------------------------- subscribers
    def subscribe(
        self, callback: Callable[[TraceEvent], None]
    ) -> Callable[[TraceEvent], None]:
        """Register a callback invoked with every *committed* event.

        Callbacks run synchronously, in registration order, after the
        event is appended.  Returns the callback (handy for later
        :meth:`unsubscribe`).  Registering the same callable twice is an
        error — it would double-deliver every event.
        """
        if callback in self._subscribers:
            raise ValueError(f"subscriber {callback!r} already registered")
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable[[TraceEvent], None]) -> bool:
        """Remove a subscriber; returns whether it was registered."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            return False
        return True

    @property
    def subscribers(self) -> List[Callable[[TraceEvent], None]]:
        """The currently attached subscribers (a copy, in call order)."""
        return list(self._subscribers)

    def _notify(self, event: TraceEvent) -> None:
        """Deliver one committed event to every subscriber, in order.

        Exception isolation: a raising subscriber is detached (so it can
        never raise twice), the failure is logged as a warning, and the
        ``on_subscriber_error`` hook is told — the emitting engine code
        path never sees the exception.
        """
        for callback in list(self._subscribers):
            try:
                callback(event)
            except Exception as exc:
                try:
                    self._subscribers.remove(callback)
                except ValueError:
                    pass  # already detached (e.g. by a prior event)
                logger.warning(
                    "trace subscriber %r raised %r on %s event (seq %d); "
                    "detached",
                    callback,
                    exc,
                    event.kind,
                    event.seq,
                )
                hook = self.on_subscriber_error
                if hook is not None:
                    hook(callback, exc)

    # ------------------------------------------------------------- recording
    def emit(self, kind: str, **data: Any) -> Optional[TraceEvent]:
        """Append one event, timestamped with the bound simulated clock.

        Return contract: the *committed* :class:`TraceEvent` — or ``None``
        if and only if the trace is disabled (``enabled = False``), in
        which case nothing was recorded and no subscriber is invoked.
        Subscribers are therefore never called with ``None``: every
        notification carries a real, already-appended event.  On a strict
        trace a malformed emission raises *before* anything is appended,
        so subscribers never observe an event the trace rejected.
        """
        if not self.enabled:
            return None
        if self.strict:
            check_event(EVENT_SCHEMA, kind, data)
        t = float(self._clock.now) if self._clock is not None else 0.0
        event = TraceEvent(len(self.events), t, kind, data)
        self.events.append(event)
        if self.fold is not None:
            self.fold(event)
        if self._subscribers:
            self._notify(event)
        return event

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def filter(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def kinds(self) -> Dict[str, int]:
        """Event-count histogram by kind (debug/report helper)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    # --------------------------------------------------------------- exports
    def to_jsonl(self) -> str:
        """Canonical JSONL: one sorted-key compact JSON object per line.

        Byte-stable across re-executions of the same job: timestamps are
        simulated seconds and all payloads are deterministic, so golden
        traces can be compared byte-for-byte.
        """
        return events_jsonl(self.events)

    def save_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Rebuild a trace from its JSONL export (validators accept it)."""
        trace = cls(strict=False)
        trace.events.extend(read_events(text))
        return trace

    @classmethod
    def load_jsonl(cls, path) -> "Trace":
        with open(path) as fh:
            return cls.from_jsonl(fh.read())

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` JSON object (open in chrome://tracing).

        Stage executions become complete ("X") events — one timeline row per
        branch — and every decision (prune, evict, discard, failure, choose)
        becomes a global instant ("i") event, so depth-first traversal and
        eviction storms are visible at a glance.
        """
        tids: Dict[str, int] = {}

        def tid_of(branch: Optional[str]) -> int:
            key = branch or "main"
            if key not in tids:
                tids[key] = len(tids) + 1
            return tids[key]

        instants = {
            "branch_pruned",
            "branch_discarded",
            "partition_evicted",
            "dataset_discarded",
            "choose_finalized",
            "checkpoint_written",
            "node_failed",
            "node_decommissioned",
            "recovery",
            "recovery_started",
            "stage_reexecuted",
            "task_retried",
            "task_retries_exhausted",
            "failure_unfired",
            "cache_hit",
            "cache_miss",
            "cache_admit",
            "cache_invalidate",
        }
        out: List[Dict[str, Any]] = []
        for event in self.events:
            data = event.data
            if event.kind in ("stage_completed", "span"):
                staged = event.kind == "stage_completed"
                out.append(
                    {
                        "name": data["stage"] if staged else data["activity"],
                        "cat": "stage" if staged else "span",
                        "ph": "X",
                        "ts": data["started"] * 1e6,
                        "dur": max(data["finished"] - data["started"], 0.0) * 1e6,
                        "pid": 0,
                        "tid": tid_of(data.get("branch")),
                        "args": data,
                    }
                )
            elif event.kind in instants:
                out.append(
                    {
                        "name": event.kind,
                        "cat": "decision",
                        "ph": "i",
                        "s": "g",
                        "ts": event.t * 1e6,
                        "pid": 0,
                        "tid": 0,
                        "args": data,
                    }
                )
        meta = [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": name}}
            for name, tid in sorted(tids.items(), key=lambda kv: kv[1])
        ]
        return {"traceEvents": meta + out, "displayTimeUnit": "ms"}

    def save_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Trace(events={len(self.events)})"
