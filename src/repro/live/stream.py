"""Streaming NDJSON trace sink and follow-mode reader.

:class:`StreamWriter` is the canonical bus sink: subscribed to a
:class:`~repro.trace.events.Trace`, it appends each committed event's
canonical JSON line the moment it is emitted.  Because the bus notifies
strictly post-append and :meth:`TraceEvent.to_json` is the same
serialisation :meth:`Trace.to_jsonl` joins at job end, the streamed file
is **byte-identical** to the post-hoc export — at every point during the
run the file is a byte-prefix of the final JSONL, and after the final
event the two are equal (property-tested in
``tests/live/test_stream.py``).

:func:`follow_events` is the reading half: it tails an NDJSON file
(complete lines only — a partially-written line is left for the next
poll), yielding :class:`TraceEvent` objects for the CLI dashboard
(``python -m repro.live --follow``).
"""

from __future__ import annotations

import io
import json
import os
import time
from typing import Callable, Iterator, Optional, Union

from ..trace.events import Trace, TraceEvent


class StreamWriter:
    """Append each committed trace event as one canonical NDJSON line.

    Accepts a path (the writer opens and owns the file) or any writable
    text file object (the caller keeps ownership; ``close()`` only closes
    handles the writer opened).  Lines are flushed per event
    so a follower process observes committed events promptly.
    """

    def __init__(
        self,
        target: Union[str, "os.PathLike[str]", io.TextIOBase],
    ):
        if hasattr(target, "write"):
            self._fh = target
            self._owns = False
            self.path: Optional[str] = getattr(target, "name", None)
        else:
            self.path = os.fspath(target)
            self._fh = open(self.path, "w")
            self._owns = True
        self.events_written = 0
        self.bytes_written = 0
        self.closed = False

    # The bus calls subscribers as plain callables.
    def __call__(self, event: TraceEvent) -> None:
        self.on_event(event)

    def on_event(self, event: TraceEvent) -> None:
        if self.closed:
            raise ValueError("StreamWriter is closed")
        line = event.to_json() + "\n"
        self._fh.write(line)
        self._fh.flush()
        self.events_written += 1
        self.bytes_written += len(line.encode("utf-8"))

    def attach(self, trace: Trace) -> "StreamWriter":
        """Subscribe to a trace (convenience for standalone use)."""
        trace.subscribe(self)
        return self

    def detach(self, trace: Trace) -> bool:
        return trace.unsubscribe(self)

    def flush(self) -> None:
        if not self.closed:
            self._fh.flush()

    def close(self) -> None:
        if self.closed:
            return
        self._fh.flush()
        if self._owns:
            self._fh.close()
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover
        where = self.path or "<stream>"
        return f"StreamWriter({where!r}, events={self.events_written})"


def read_events(text: str) -> Iterator[TraceEvent]:
    """Parse complete NDJSON lines into :class:`TraceEvent` objects."""
    for line in text.splitlines():
        if not line.strip():
            continue
        raw = json.loads(line)
        yield TraceEvent(raw["seq"], raw["t"], raw["kind"], raw.get("data", {}))


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
    being written is buffered until its newline arrives, so a follower
    never sees a torn event.  With ``follow=False`` the iterator stops at
    end-of-file; with ``follow=True`` it keeps polling every
    ``poll_interval`` wall seconds until ``idle_timeout`` wall seconds
    pass with no file growth (``None`` = tail forever).  ``sleep`` and
    ``clock`` are injectable for deterministic tests.
    """
    buffer = ""
    last_growth = clock()
    with open(os.fspath(path)) as fh:
        while True:
            chunk = fh.read()
            if chunk:
                buffer += chunk
                last_growth = clock()
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    if not line.strip():
                        continue
                    raw = json.loads(line)
                    yield TraceEvent(
                        raw["seq"], raw["t"], raw["kind"], raw.get("data", {})
                    )
                continue
            if not follow:
                return
            if idle_timeout is not None and clock() - last_growth >= idle_timeout:
                return
            sleep(poll_interval)
