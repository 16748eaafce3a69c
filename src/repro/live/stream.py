"""Streaming NDJSON trace sink and follow-mode reader.

:class:`StreamWriter` is the canonical bus sink: subscribed to a
:class:`~repro.trace.events.Trace`, it collects each committed event and,
at every clock advance, writes the batch's canonical JSON lines in one
call.  Because the bus notifies strictly post-append and a batch is
encoded by :func:`~repro.trace.events.events_jsonl`, the function
:meth:`Trace.to_jsonl` joins at job end, the streamed file is
**byte-identical** to the post-hoc export — after every write the file
is a byte-prefix of the final JSONL, and after the final event the two
are equal (property-tested in ``tests/live/test_stream.py``).

:func:`follow_events` is the reading half: it tails an NDJSON file
(complete lines only — a partially-written line is left for the next
poll), yielding :class:`TraceEvent` objects; the CLI dashboard
(``python -m repro live --follow``) reads one poll at a time the same
way.  :func:`read_events` is the trace package's one line parser.
"""

from __future__ import annotations

import io
import os
import time
from typing import Callable, Iterator, List, Optional, Union

from ..trace.events import Trace, TraceEvent, events_jsonl, read_events


#: the clock advances: a StreamWriter writes its batch when it takes one
_FLUSH_KINDS = frozenset({"stage_completed", "span"})


class StreamWriter:
    """Write committed trace events as canonical NDJSON, a batch per clock
    advance.

    Accepts a path (the writer opens and owns the file) or any writable
    text file object (the caller keeps ownership; ``close()`` only closes
    handles the writer opened).  Events are held until the clock advances
    (``stage_completed`` / ``span``) or the writer closes; then the batch
    is encoded, written in one call and flushed, so a follower is at most
    one stage behind and the file is a byte-prefix of ``to_jsonl()``
    after every write.  ``events_written`` / ``bytes_written`` count what
    reached the file.

    A run observer (``run_mdf(live=sink)`` is ``observers=[StreamWriter
    (sink)]``) and a plain event callable (``trace.subscribe(writer)``).
    A path is created, truncated, by ``begin`` or by the writer's first
    write, whichever comes first — not by the constructor, so a writer
    whose run never started leaves no handle behind.
    """

    def __init__(
        self,
        target: Union[str, "os.PathLike[str]", io.TextIOBase],
    ):
        self._owns = not hasattr(target, "write")
        if self._owns:
            if not isinstance(target, (str, os.PathLike)):
                raise TypeError(
                    "an NDJSON sink is a path or a writable text stream, got "
                    f"{target!r} (monitors go through observers=[LiveMonitor(...)])"
                )
            self._fh = None
            self.path: Optional[str] = os.fspath(target)
        else:
            self._fh = target
            self.path = getattr(target, "name", None)
        self.events_written = 0
        self.bytes_written = 0
        self.closed = False
        self._pending: List[TraceEvent] = []
        self._trace: Optional[Trace] = None

    # The bus calls subscribers as plain callables.
    def __call__(self, event: TraceEvent) -> None:
        self.on_event(event)

    def on_event(self, event: TraceEvent) -> None:
        if self.closed:
            raise ValueError("StreamWriter is closed")
        self._pending.append(event)
        if event.kind in _FLUSH_KINDS:
            self._write()

    def _write(self) -> None:
        """Encode the pending events, write them in one call and flush."""
        batch, self._pending = self._pending, []
        text = events_jsonl(batch)  # ASCII (the encoder escapes the rest)
        fh = self._fh or self._file()
        fh.write(text)
        fh.flush()
        self.events_written += len(batch)
        self.bytes_written += len(text)

    def _file(self):
        if self._fh is None:  # an owned path, not yet (re)created
            self._fh = open(self.path, "w")
        return self._fh

    def begin(self, mdf, cluster, config) -> None:
        self.closed = False  # reusable: each run starts the file afresh
        self._file()
        self._trace = cluster.trace
        catch_up(self._trace, self)

    def end(self, result) -> None:
        self._trace.unsubscribe(self)
        self.close()

    def close(self) -> None:
        if self.closed:
            return
        if self._pending:
            self._write()
        if self._fh is not None:
            self._fh.flush()
            if self._owns:
                self._fh.close()
                self._fh = None
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover
        where = self.path or "<stream>"
        return f"StreamWriter({where!r}, events={self.events_written})"


def catch_up(trace: Trace, subscriber: Callable[[TraceEvent], None]) -> None:
    """Subscribe ``subscriber`` after replaying what ``trace`` already holds.

    A warm-continuation run (``reset=False``) joins a trace that already
    has committed events.  Delivering them first keeps the bus contract —
    every subscriber sees exactly the committed event sequence — so a
    streamed file stays byte-identical to the full post-hoc export.
    """
    for event in list(trace.events):
        subscriber(event)
    trace.subscribe(subscriber)


def follow_events(
    path: Union[str, "os.PathLike[str]"],
    follow: bool = False,
    poll_interval: float = 0.1,
    idle_timeout: Optional[float] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> Iterator[TraceEvent]:
    """Yield trace events from an NDJSON file, optionally tailing it.

    Only complete lines (terminated by ``\\n``) are parsed — a line still
    being written is held back until its newline arrives, so a follower
    never sees a torn event.  Each read is split once: its complete lines
    are parsed and only the torn tail is kept, so a read costs time linear
    in its size however many lines it holds.  With ``follow=False`` the
    iterator stops at end-of-file; with ``follow=True`` it keeps polling
    every ``poll_interval`` wall seconds until ``idle_timeout`` wall
    seconds pass with no file growth (``None`` = tail forever).  ``sleep``
    and ``clock`` are injectable for deterministic tests.
    """
    tail = ""
    last_growth = clock()
    with open(os.fspath(path)) as fh:
        while True:
            chunk = fh.read()
            if chunk:
                last_growth = clock()
                complete, _, tail = (tail + chunk).rpartition("\n")
                yield from read_events(complete)
                continue
            if not follow:
                return
            if idle_timeout is not None and clock() - last_growth >= idle_timeout:
                return
            sleep(poll_interval)
