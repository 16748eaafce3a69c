"""Master-driven lineage recovery (§5: "failures are cheap, not free").

When a worker fails, the master classifies every partition the failure
destroyed:

(a) **reloadable** — a checkpoint copy survives on stable storage: charge a
    disk reload via the cost model and promote the partition back to its
    pre-failure residency;
(b) **recomputable** — no copy exists but the producing operator is known:
    walk the ``_producer_op``/``_output_of`` lineage back to surviving
    inputs and re-execute the producing stages, re-entering the master's
    normal bookkeeping so the re-runs advance the clock, the metrics and
    the decision trace exactly like first-class stages;
(c) **dead** — the data already lost its last consumer (``acc = 0``) or
    its dataset was discarded by a choose: drop it for free (R4).

Choose *decisions* never recompute: the :class:`ChooseScoreStore` lives at
the master and survives every worker failure, so a branch tail is re-run
only for its bytes, never for its score — the recovery path records
``score_reused=True`` on such re-executions and the §5 benchmark asserts
no extra ``choose_evaluations`` happen.

Every re-executed stage emits ``stage_reexecuted`` before any of its work,
so the trace fold attributes the recovery loads/stores, seconds and tasks
to the re-executed stage.  The total charge of one failure lands in the
``recovery_seconds`` histogram (per failed node), making the §5 exactness
claim checkable:
``completion_time(failed) - completion_time(clean) == Σ recovery_seconds``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from ..cluster.cluster import FailureReport
from ..cluster.node import PartitionKey
from ..core.errors import FaultError
from ..core.stages import Stage
from .executor import StageTimes

if TYPE_CHECKING:  # pragma: no cover
    from .master import Master


class RecoveryManager:
    """Rebuilds lost partitions for one :class:`~repro.engine.master.Master`."""

    def __init__(self, master: "Master"):
        self.master = master
        self.cluster = master.cluster
        self.executor = master.executor
        #: operator name -> the stage whose tail produces its output
        self._stage_of_tail: Dict[str, Stage] = {
            s.tail.name: s for s in master.stage_graph.stages
        }
        #: choose name -> its scope runtime (choose outputs recover through
        #: the surviving ChooseScoreStore, never by re-evaluating branches)
        self._scope_of_choose = {
            rt.choose.name: rt for rt in master._scopes.values()
        }
        #: discarded inputs transiently rebuilt during one recovery; freed
        #: again once the recompute that needed them finishes
        self._transients: List[str] = []

    # ------------------------------------------------------------ entrypoint
    def handle_failure(self, report: FailureReport, stage_index: int) -> float:
        """Recover from one node failure; returns the charged seconds."""
        cluster = self.cluster
        master = self.master
        # everything the clock pays for until we return is §5 recovery: the
        # profiler and the profile counters both recognise it from the
        # trace (stage_reexecuted announcements, recovery_reload spans)
        started = cluster.clock.now
        dropped: Dict[Optional[str], List[PartitionKey]] = {}
        recompute: Dict[str, List[PartitionKey]] = {}
        for key in report.lost:
            live = self._resolve_live(key[0])
            if live is None:
                dropped.setdefault(None, []).append(key)
                continue
            record = cluster.record(live)
            if master._future_accesses(live) == 0 and not record.pinned:
                dropped.setdefault(live, []).append(key)
            else:
                recompute.setdefault(live, []).append(key)
        reload_keys = self._live_only(report.reload)
        relocated_keys = self._live_only(report.relocated)
        cluster.trace.emit(
            "recovery_started",
            node=report.node_id,
            stage_index=stage_index,
            permanent=report.permanent,
            reloaded=[list(k) for k in reload_keys + relocated_keys],
            recomputed=sorted(
                [list(k) for keys in recompute.values() for k in keys]
            ),
            dropped=sorted(
                [list(k) for keys in dropped.values() for k in keys]
            ),
        )
        self._drop_dead(report.node_id, dropped)
        self._reload(reload_keys, promote=True)
        self._reload(relocated_keys, promote=False)
        for live_id in sorted(recompute):
            if not cluster.has_dataset(live_id):
                continue  # released as dead data in the meantime
            if not cluster.missing_partitions(live_id):
                continue  # already rebuilt while recovering another target
            self._recompute_dataset(live_id, cause="node-failure")
        self._drop_transients()
        cache = self.master.config.cache
        if cache is not None:
            # lineage recovery restored byte-identical content under the
            # original keys, so surviving entries refresh in place; anything
            # whose backing really is gone (dead data, dropped transients)
            # is invalidated here rather than lazily at its next lookup
            cache.revalidate(cluster, reason="node-failure")
        seconds = cluster.clock.now - started
        cluster.obs.histogram("recovery_seconds", node=report.node_id).observe(
            seconds
        )
        return seconds

    # ---------------------------------------------------------- classification
    def _resolve_live(self, dataset_id: str) -> Optional[str]:
        """Follow composite absorption to the live dataset owning an id."""
        seen: Set[str] = set()
        current = dataset_id
        while not self.cluster.has_dataset(current):
            if current in seen or current not in self.master._composite_of:
                return None
            seen.add(current)
            current = self.master._composite_of[current]
        return current

    def _drop_dead(
        self,
        node_id: str,
        dropped: Dict[Optional[str], List[PartitionKey]],
    ) -> None:
        """Free already-dead data (R4): no cost, but the trace records it."""
        for live_id, keys in sorted(
            dropped.items(), key=lambda kv: (kv[0] is not None, kv[0] or "")
        ):
            if live_id is None:
                continue  # slots of long-discarded datasets: nothing to do
            record = self.cluster.record(live_id)
            for key in sorted(keys):
                pos = record.partition_keys.index(key)
                self.cluster.trace.emit(
                    "recovery",
                    dataset=live_id,
                    index=pos,
                    nbytes=record.partition_bytes[pos],
                    node=node_id,
                    action="dropped",
                )
            self.master._release(live_id)

    # --------------------------------------------------------------- reloads
    def _live_only(self, keys: List[PartitionKey]) -> List[PartitionKey]:
        """Keep only reloadable keys something will still read (R4 again:
        a checkpointed partition of dead data stays on disk, free)."""
        out: List[PartitionKey] = []
        for key in keys:
            live = self._resolve_live(key[0])
            if live is None:
                continue
            if (
                self.master._future_accesses(live) == 0
                and not self.cluster.record(live).pinned
            ):
                continue
            out.append(key)
        return out

    def _reload(self, keys: List[PartitionKey], promote: bool) -> None:
        """Charge the checkpoint reloads of class-(a) partitions."""
        if not keys:
            return
        started = self.cluster.clock.now
        seconds = 0.0
        for key in sorted(keys):
            seconds += self.cluster.recover_reload(key, promote=promote)
        if seconds:
            self.master._advance(
                StageTimes(io=seconds), None, started, activity="recovery_reload"
            )

    # ------------------------------------------------------------ recomputes
    def _recompute_dataset(self, live_id: str, cause: str) -> None:
        """Re-execute the producing stage(s) of a dataset's lost partitions."""
        master = self.master
        producer = master._producer_op.get(live_id)
        if producer is None:
            raise FaultError(
                f"no lineage for lost dataset {live_id!r}: cannot recompute"
            )
        runtime = self._scope_of_choose.get(producer)
        if runtime is not None:
            self._recompute_choose_output(live_id, runtime, cause)
            return
        stage = self._stage_of_tail.get(producer)
        if stage is None:
            raise FaultError(
                f"producer {producer!r} of lost dataset {live_id!r} has no "
                f"stage to re-execute"
            )
        self._reexecute_stage(
            stage, live_id, cause, score_reused=self._score_survives(stage)
        )

    def _score_survives(self, stage: Stage) -> bool:
        """Whether the stage is a branch tail whose choose score is banked."""
        branch = self.master.stage_graph.branch_ending_at(stage)
        if branch is None:
            return False
        choose = self.master._scopes[branch.explore_name].choose
        return self.master.score_store.has(choose.name, branch.id)

    def _recompute_choose_output(self, live_id: str, runtime, cause: str) -> None:
        """Rebuild a choose's output without re-running any choose logic.

        The output is an alias or composite over kept branch tails; each
        missing partition belongs to one member, whose tail stage re-runs
        for its *bytes only* — the selection already happened and its
        scores survive at the master (§5), which this path asserts.
        """
        master = self.master
        choose = runtime.choose
        members: Dict[str, List[PartitionKey]] = {}
        for key in self.cluster.missing_partitions(live_id):
            members.setdefault(key[0], []).append(key)
        for member_id in sorted(members):
            tail_name = member_id[2:] if member_id.startswith("d:") else None
            stage = self._stage_of_tail.get(tail_name) if tail_name else None
            if stage is None:
                raise FaultError(
                    f"cannot rebuild choose output {live_id!r}: no lineage "
                    f"for member {member_id!r}"
                )
            branch = master.stage_graph.branch_ending_at(stage)
            if branch is not None and not master.score_store.has(
                choose.name, branch.id
            ):
                raise FaultError(
                    f"choose {choose.name!r} kept branch {branch.id!r} "
                    f"but its score is missing from the master's store"
                )
            self._reexecute_stage(stage, live_id, cause, score_reused=True)

    def _reexecute_stage(
        self,
        stage: Stage,
        into_id: str,
        cause: str,
        score_reused: bool,
        transient: bool = False,
    ) -> str:
        """Re-run one stage and land its output in the existing record.

        Re-enters the very :meth:`StageExecutor.execute` a first-class
        stage runs through, over the inputs the master's ``_stage_inputs``
        names.  Those are secured *first* (recursively recomputing or
        transiently rebuilding them), then ``stage_reexecuted`` is emitted,
        so by the time the bridge re-attributes metrics to this stage every
        read it performs is backed by real data — exactly what
        ``check_recovery_sound`` verifies.
        """
        master = self.master
        cluster = self.cluster
        input_ids = [
            self._ensure_available(input_id)
            for input_id in master._stage_inputs(stage)
        ]
        cluster.trace.emit(
            "stage_reexecuted",
            stage=stage.id,
            branch=stage.branch_id,
            dataset=into_id,
            cause=cause,
            score_reused=score_reused,
        )
        produced_id = f"d:{stage.tail.name}"
        missing: List[PartitionKey] = (
            []
            if transient
            else [
                k
                for k in cluster.missing_partitions(into_id)
                if k[0] == produced_id
            ]
        )
        started = cluster.clock.now
        if stage.kind == "source":
            # sources re-read the job input and re-register wholesale
            # (the partition count may have changed after a decommission);
            # drop the holed record first so no surviving slot leaks
            if cluster.has_dataset(into_id):
                cluster.discard_dataset(into_id)
            outcome = self.executor.execute(stage, input_ids)
            produced_id = outcome.output_dataset_id
        else:
            outcome = self.executor.execute(stage, input_ids, defer_store=True)
            if transient:
                store_times = self.executor.commit_store(outcome.pending)
                self._transients.append(outcome.pending.id)
            else:
                store_times = self._restore(outcome.pending, into_id, missing)
            outcome.times.io += store_times.io
            for node_id, io_seconds in store_times.per_node_io.items():
                outcome.times.per_node_io[node_id] = (
                    outcome.times.per_node_io.get(node_id, 0.0) + io_seconds
                )
        cluster.trace.emit(
            "task_dispatched", stage=stage.id, num_tasks=outcome.num_tasks
        )
        master._advance(outcome.times, stage, started)
        if missing:
            self._note_recovered(into_id, missing)
        return produced_id

    def _restore(self, pending, into_id: str, missing: List[PartitionKey]) -> StageTimes:
        """Write a re-executed stage's output back into its record."""
        pending_keys = {p.key for p in pending.partitions}
        uncovered = [k for k in missing if k not in pending_keys]
        if uncovered:
            if pending.id == into_id:
                # the stage repartitioned (topology changed after a
                # decommission): replace the record wholesale
                self.cluster.discard_dataset(into_id)
                return self.executor.commit_store(pending)
            raise FaultError(
                f"re-executed stage produced {sorted(pending_keys)} but "
                f"composite {into_id!r} still misses {sorted(uncovered)} "
                f"(members cannot be repartitioned in place)"
            )
        return self.executor.commit_restore(pending, into_id, keys=missing)

    def _ensure_available(self, dataset_id: str) -> str:
        """Make a re-execution input readable, recomputing it if needed."""
        live = self._resolve_live(dataset_id)
        if live is not None:
            if self.cluster.missing_partitions(live):
                self._recompute_dataset(live, cause="lost-input")
            return live
        # the input itself was discarded (e.g. consumed and released):
        # rebuild it transiently, to be freed again after the recovery
        tail_name = dataset_id[2:] if dataset_id.startswith("d:") else None
        stage = self._stage_of_tail.get(tail_name) if tail_name else None
        if stage is None:
            raise FaultError(
                f"input {dataset_id!r} of a recovery re-execution was "
                f"discarded and has no lineage to rebuild it"
            )
        return self._reexecute_stage(
            stage,
            dataset_id,
            cause="lost-input",
            score_reused=self._score_survives(stage),
            transient=True,
        )

    def _drop_transients(self) -> None:
        """Free transiently rebuilt inputs nothing will read again (R4)."""
        for dataset_id in self._transients:
            if (
                self.cluster.has_dataset(dataset_id)
                and self.master._future_accesses(dataset_id) == 0
            ):
                self.master._release(dataset_id)
        self._transients = []

    def _note_recovered(self, into_id: str, missing: List[PartitionKey]) -> None:
        """Count and trace each partition a re-execution brought back."""
        record = self.cluster.record(into_id)
        for key in sorted(missing):
            try:
                pos = record.partition_keys.index(key)
            except ValueError:
                continue  # record was replaced wholesale (repartitioned)
            node_id = record.partition_nodes[pos]
            self.cluster.trace.emit(
                "recovery",
                dataset=into_id,
                index=pos,
                nbytes=record.partition_bytes[pos],
                node=node_id,
                action="recompute",
            )
