"""Deterministic simulated clock.

All completion times reported by the engine are simulated seconds advanced
through this clock, never wall-clock time.  This keeps every benchmark
deterministic and lets laptop-scale runs reproduce the *shape* of the
paper's cluster-scale results.

Subscribers (the telemetry timeline sampler) are notified after every
advance with the new time; they observe the clock, never drive it, so a
subscribed clock behaves identically to an unsubscribed one.
"""

from __future__ import annotations

from typing import Callable, List


class SimClock:
    """Monotonically advancing simulated time in seconds.

    ``now`` is a plain attribute, read several times per event: only
    :meth:`advance` and :meth:`reset` write it.
    """

    def __init__(self):
        self.now = 0.0
        self._subscribers: List[Callable[[float], None]] = []

    def advance(self, seconds: float) -> float:
        """Advance the clock; negative advances are rejected."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self.now += seconds
        for subscriber in tuple(self._subscribers):
            subscriber(self.now)
        return self.now

    def subscribe(self, callback: Callable[[float], None]) -> None:
        """Call ``callback(now)`` after every advance."""
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[float], None]) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    def reset(self) -> None:
        """Rewind to t=0.  Subscribers survive (they track runs, not time)."""
        self.now = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"SimClock(t={self.now:.3f}s)"
