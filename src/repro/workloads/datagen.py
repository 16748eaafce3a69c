"""Synthetic dataset generators for the four evaluation workloads (§6).

Replaces data we cannot ship (see DESIGN.md §2):

* :func:`normal_values` — the data-profiling job's "100 million normally
  distributed random values" (scaled down, nominal sizes scaled up);
* :func:`oil_well_trace` — a stand-in for the proprietary oil-well sensor
  traces [18]: a baseline pressure regime with slow drift, injected
  outliers, and step events of varying magnitude;
* :func:`cifar_like` — a 10-class Gaussian-mixture image dataset with the
  CIFAR-10 shape, separable enough that hyper-parameters genuinely change
  validation accuracy (so choose decisions are meaningful);
* :func:`string_int_pairs` — the synthetic job's string/integer pairs.

All generators are deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


def normal_values(
    n: int = 20_000, mu: float = 0.0, sigma: float = 1.0, seed: int = 7
) -> np.ndarray:
    """Normally distributed sensor readings (data-profiling input)."""
    rng = np.random.default_rng(seed)
    return rng.normal(mu, sigma, size=n).astype(np.float64)


def oil_well_trace(n: int = 50_000, seed: int = 11) -> np.ndarray:
    """Synthetic oil-well pressure trace: baseline + drift + events + noise.

    Events are step changes of random magnitude and duration; outliers are
    isolated spikes.  The trace exercises exactly what the time-series job
    measures: masking aggressiveness vs. window/threshold choices.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    baseline = 100.0 + 5.0 * np.sin(2 * np.pi * t / max(n // 4, 1))
    drift = np.cumsum(rng.normal(0.0, 0.01, size=n))
    noise = rng.normal(0.0, 0.5, size=n)
    series = baseline + drift + noise
    # step events: one per 500 points
    num_events = max(1, int(n * 0.002))
    starts = rng.integers(0, max(n - 100, 1), size=num_events)
    for start in starts:
        duration = int(rng.integers(20, 200))
        magnitude = float(rng.normal(0.0, 8.0))
        series[start : start + duration] += magnitude
    # isolated outlier spikes: 1% of points
    num_outliers = max(1, int(n * 0.01))
    positions = rng.integers(0, n, size=num_outliers)
    series[positions] += rng.normal(0.0, 40.0, size=num_outliers)
    return series


@dataclass
class LabelledImages:
    """A supervised image dataset: ``x`` is (n, d) float32, ``y`` (n,) int."""

    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def split(self, holdout_fraction: float, seed: int = 0) -> Tuple["LabelledImages", "LabelledImages"]:
        """Deterministic train/validation split."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.y))
        cut = int(len(self.y) * (1.0 - holdout_fraction))
        train, val = order[:cut], order[cut:]
        return (
            LabelledImages(self.x[train], self.y[train]),
            LabelledImages(self.x[val], self.y[val]),
        )

    # ---- repro partitioning protocol (see repro.core.datasets) ----
    def split_into(self, num_partitions: int) -> List["LabelledImages"]:
        """Contiguous row-wise partitioning for the simulated cluster."""
        xs = np.array_split(self.x, num_partitions)
        ys = np.array_split(self.y, num_partitions)
        return [LabelledImages(x, y) for x, y in zip(xs, ys)]

    def concat_with(self, other: "LabelledImages") -> "LabelledImages":
        """Row-wise concatenation (dual of :meth:`split_into`)."""
        return LabelledImages(
            np.concatenate([self.x, other.x]), np.concatenate([self.y, other.y])
        )


def cifar_like(
    n_samples: int = 2_000,
    num_classes: int = 10,
    features: int = 3 * 32 * 32,
    seed: int = 17,
    class_separation: float = 2.0,
) -> LabelledImages:
    """CIFAR-10-shaped Gaussian-mixture data for the deep-learning job.

    Each class is an isotropic Gaussian around a random center; pixel
    intensities are clipped to [0, 255] like RGB data.  ``features``
    defaults to the CIFAR shape (3×32×32 = 3072) but can be reduced for
    faster benchmark iterations without changing the job's structure.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, class_separation, size=(num_classes, features))
    y = rng.integers(0, num_classes, size=n_samples)
    x = centers[y] + rng.normal(0.0, 1.0, size=(n_samples, features))
    x = np.clip((x + 8.0) * 16.0, 0.0, 255.0).astype(np.float32)
    return LabelledImages(x, y.astype(np.int64))


def string_int_pairs(n: int = 10_000, seed: int = 23) -> List[Tuple[str, int]]:
    """String/integer pairs processed by the synthetic job (App. C)."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1_000_000, size=n)
    return [(f"key-{i % 977}", int(v)) for i, v in enumerate(values)]
