"""The harness's live observer: a fresh monitor per run, with a verdict.

Benchmark figures call :func:`repro.engine.runner.run_mdf` internally,
so ``python -m repro.bench --live`` wraps them in ``with
observing(LiveHook()):``.  Every run inside gets its own buffered
:class:`~repro.live.monitor.LiveMonitor` and is recorded — together with
a per-run stream/batch byte-identity verdict — on the hook.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List

from .monitor import LiveMonitor


@dataclass
class LiveRunRecord:
    """One hooked run: its monitor, streamed bytes, and the verdict."""

    monitor: LiveMonitor
    streamed: str
    #: streamed NDJSON == post-hoc ``Trace.to_jsonl()`` (the tentpole's
    #: byte-identity contract), checked the moment the run finishes
    byte_identical: bool


class LiveHook:
    """Run observer: monitor every observed run, keep one record each."""

    def __init__(self) -> None:
        self.runs: List[LiveRunRecord] = []

    def begin(self, mdf, cluster, config) -> None:
        self._buffer = io.StringIO()
        self._monitor = LiveMonitor(stream=self._buffer)
        self._monitor.begin(mdf, cluster, config)

    def end(self, result) -> None:
        monitor = self._monitor
        monitor.end(result)
        if result is not None:
            batch = result.events.to_jsonl()
            streamed = self._buffer.getvalue()
            self.runs.append(LiveRunRecord(monitor, streamed, streamed == batch))

    # ------------------------------------------------------------ summaries
    @property
    def all_byte_identical(self) -> bool:
        return all(r.byte_identical for r in self.runs)

    def alert_kinds(self) -> Dict[str, int]:
        """Alerts raised across all recorded runs, counted by kind."""
        counts: Dict[str, int] = {}
        for record in self.runs:
            for kind, n in record.monitor.alert_kinds().items():
                counts[kind] = counts.get(kind, 0) + n
        return counts
