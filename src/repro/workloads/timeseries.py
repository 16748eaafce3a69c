"""Time-series analysis job (§6.1, App. C Fig. 22).

Three pipeline steps over a sensor trace:

1. **masking** — drop points whose value range within a sliding window of
   length ``W`` exceeds a permitted ratio ``T`` (volatile regions are
   masked out);
2. **marking** — mark discrete events: positions where the value change
   over a window of length ``L`` exceeds magnitude ``M``;
3. **detection** — detect sequences of marked events that fall within a
   duration ``D``.

The MDF explores the masking parameters; its choose keeps only branches
whose surviving-point ratio stays above a threshold (masking must not be
too aggressive), pruning the rest before marking/detection run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np


def mask_series(window: int, threshold: float) -> Callable:
    """Masking operator: keep points whose window max/min ratio ≤ threshold.

    Payload: 1-D value array → array of surviving ``(index, value)`` rows.
    ``threshold`` is a ratio ≥ 1 (the paper sweeps 1.0001…1.5): smaller
    thresholds mask more aggressively, so the surviving fraction is
    monotone in the threshold.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    if threshold < 1.0:
        raise ValueError("threshold is a max/min ratio and must be >= 1")

    def mask(payload) -> np.ndarray:
        data = np.asarray(payload, dtype=np.float64)
        n = data.size
        if n < window:
            return np.empty((0, 2))
        # rolling window min/max via stride tricks kept simple: cumulative
        # approach with numpy's sliding_window_view
        windows = np.lib.stride_tricks.sliding_window_view(data, window)
        lo = windows.min(axis=1)
        hi = windows.max(axis=1)
        # guard: ratios need positive values; shift if necessary
        shift = min(0.0, float(lo.min()))
        if shift < 0.0:
            lo = lo - shift + 1.0
            hi = hi - shift + 1.0
        ratio = hi / np.maximum(lo, 1e-12)
        keep = ratio <= threshold
        # a point survives if the window ending at it is calm
        indices = np.arange(window - 1, n)[keep]
        return np.column_stack([indices, data[indices]])

    mask.__name__ = f"mask_w{window}_t{threshold}"
    return mask


def mark_events(window: int, magnitude: float) -> Callable:
    """Marking operator: positions where |Δ| over ``window`` ≥ ``magnitude``.

    Payload: (index, value) rows → (index, delta) rows of marked events.
    """
    if window < 2:
        raise ValueError("window must be >= 2")

    def mark(payload) -> np.ndarray:
        rows = np.asarray(payload, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < window:
            return np.empty((0, 2))
        idx = rows[:, 0]
        values = rows[:, 1]
        delta = values[window - 1 :] - values[: -(window - 1)]
        events = np.abs(delta) >= magnitude
        return np.column_stack([idx[window - 1 :][events], delta[events]])

    mark.__name__ = f"mark_l{window}_m{magnitude}"
    return mark


def detect_sequences(duration: float, min_events: int = 3) -> Callable:
    """Detection operator: runs of ≥ ``min_events`` marks within ``duration``.

    Payload: (index, delta) rows → (start, end, count) rows of detected
    sequences, each indicating a sustained change.
    """

    def detect(payload) -> np.ndarray:
        rows = np.asarray(payload, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            return np.empty((0, 3))
        idx = rows[:, 0]
        sequences: List[Tuple[float, float, int]] = []
        start = 0
        for i in range(1, len(idx) + 1):
            closes = i == len(idx) or idx[i] - idx[start] > duration
            if closes:
                count = i - start
                if count >= min_events:
                    sequences.append((float(idx[start]), float(idx[i - 1]), count))
                start = i
        if not sequences:
            return np.empty((0, 3))
        return np.asarray(sequences, dtype=np.float64)

    detect.__name__ = f"detect_d{duration}"
    return detect


@dataclass(frozen=True)
class TimeSeriesGrid:
    """One granularity level of the §6.1 parameter sweep.

    The paper explores five explorables — masking windows ``W`` and
    thresholds ``T``, marking windows ``L``, magnitudes ``M``, and event
    durations ``D`` — at granularities yielding 16…1024 branches.  Only
    masking parameters fan out in the MDF (App. C Fig. 22); the marking /
    detection settings are fixed (constants of :mod:`repro.workloads.mdfs`).
    """

    windows: Tuple[int, ...]
    thresholds: Tuple[float, ...]

    @property
    def num_branches(self) -> int:
        return len(self.windows) * len(self.thresholds)


def granularity_grid(num_branches: int) -> TimeSeriesGrid:
    """Build a W×T grid with (approximately) the requested branch count.

    Supported sizes are perfect grids: 16 (4×4), 64 (8×8), 256 (16×16),
    1024 (32×32) — matching the paper's 16…1024 sweep.
    """
    side = int(round(num_branches**0.5))
    if side * side != num_branches:
        raise ValueError(f"num_branches must be a perfect square, got {num_branches}")
    windows = tuple(range(2, 2 + side))
    thresholds = tuple(float(t) for t in np.geomspace(1.0001, 1.5, side))
    return TimeSeriesGrid(windows=windows, thresholds=thresholds)
