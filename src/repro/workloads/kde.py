"""Kernel density estimation (the data-profiling job, §2.2 and §6.1).

Implements the estimator ``g(x) = 1/(n·h) Σ K((x − x_i)/h)`` with the
kernel functions the paper explores (Gaussian, top-hat, linear, cosine,
Epanechnikov, biweight, triweight) plus the two quality measures it uses:

* MISE — the mean integrated squared error against a known true density
  (the running example's evaluator, Fig. 3); MISE is *convex* over the
  ordered bandwidth domain, which is what enables the Table 1 pruning;
* held-out log-likelihood — §6's evaluator: the log of the estimated pdf
  summed over a hold-out sample.

Estimates are represented on a fixed evaluation grid so branch outputs are
small, concatenable datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

#: kernel name -> K(u), defined for |u| <= 1 except gaussian (all u)
KERNELS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "gaussian": lambda u: np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi),
    "top-hat": lambda u: 0.5 * (np.abs(u) <= 1.0),
    "linear": lambda u: np.clip(1.0 - np.abs(u), 0.0, None),
    "cosine": lambda u: (np.pi / 4.0) * np.cos(np.pi * u / 2.0) * (np.abs(u) <= 1.0),
    "epanechnikov": lambda u: 0.75 * np.clip(1.0 - u * u, 0.0, None),
    "biweight": lambda u: (15.0 / 16.0) * np.clip(1.0 - u * u, 0.0, None) ** 2,
    "triweight": lambda u: (35.0 / 32.0) * np.clip(1.0 - u * u, 0.0, None) ** 3,
}


def kernel_names() -> List[str]:
    return list(KERNELS)


@dataclass
class DensityEstimate:
    """A KDE result evaluated on a regular grid."""

    grid: np.ndarray
    density: np.ndarray
    kernel: str
    bandwidth: float
    sample_size: int

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Interpolate the gridded density at arbitrary points."""
        return np.interp(x, self.grid, self.density, left=0.0, right=0.0)

    def log_likelihood(self, holdout: np.ndarray) -> float:
        """Mean log pdf over a hold-out sample (higher is better); a zero
        density counts as 1e-12, so one stray point does not give -inf."""
        values = np.maximum(self.pdf(np.asarray(holdout)), 1e-12)
        return float(np.mean(np.log(values)))

    def mise(self, true_pdf: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integrated squared error against a known density (lower is better)."""
        diff = self.density - true_pdf(self.grid)
        dx = float(self.grid[1] - self.grid[0]) if len(self.grid) > 1 else 1.0
        return float(np.sum(diff * diff) * dx)


class KernelDensityEstimator:
    """Fits :class:`DensityEstimate` objects on numeric samples."""

    def __init__(
        self,
        kernel: str = "gaussian",
        bandwidth: float = 0.2,
        grid_points: int = 256,
        max_fit_sample: int = 4_000,
        seed: int = 0,
    ):
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; options: {sorted(KERNELS)}")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.kernel = kernel
        self.bandwidth = bandwidth
        self.grid_points = grid_points
        self.max_fit_sample = max_fit_sample
        self.seed = seed

    def fit(self, data: np.ndarray, grid: Optional[np.ndarray] = None) -> DensityEstimate:
        """Estimate the density of ``data`` on a regular grid.

        Large samples are subsampled deterministically (the estimator is a
        Monte-Carlo approximation either way); the grid defaults to the
        sample range padded by three bandwidths.
        """
        data = np.asarray(data, dtype=np.float64).ravel()
        if data.size == 0:
            grid = grid if grid is not None else np.linspace(-1, 1, self.grid_points)
            return DensityEstimate(grid, np.zeros_like(grid), self.kernel, self.bandwidth, 0)
        if data.size > self.max_fit_sample:
            rng = np.random.default_rng(self.seed)
            data = rng.choice(data, size=self.max_fit_sample, replace=False)
        if grid is None:
            pad = 3.0 * self.bandwidth
            grid = np.linspace(data.min() - pad, data.max() + pad, self.grid_points)
        kernel_fn = KERNELS[self.kernel]
        # (grid, sample) pairwise evaluation, chunked to bound memory
        density = np.zeros_like(grid)
        h = self.bandwidth
        chunk = 1_000
        for start in range(0, data.size, chunk):
            block = data[start : start + chunk]
            u = (grid[:, None] - block[None, :]) / h
            density += kernel_fn(u).sum(axis=1)
        density /= data.size * h
        return DensityEstimate(grid, density, self.kernel, self.bandwidth, int(data.size))


def normal_pdf(mu: float = 0.0, sigma: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """The true density of the synthetic profiling dataset."""

    def pdf(x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x) - mu) / sigma
        return np.exp(-0.5 * z * z) / (sigma * np.sqrt(2 * np.pi))

    return pdf


# ------------------------------------------------------- dataflow adapters


def kde_fit_payload(kernel: str, bandwidth: float, grid_points: int = 256):
    """Operator function: fit a KDE on a (full) payload of values."""

    estimator = KernelDensityEstimator(kernel, bandwidth, grid_points=grid_points)

    def fit(payload) -> List[DensityEstimate]:
        return [estimator.fit(np.asarray(payload, dtype=np.float64))]

    fit.__name__ = f"kde_{kernel}_{bandwidth}"
    return fit


def mise_of_payload(true_pdf: Callable[[np.ndarray], np.ndarray]):
    """Evaluator function: MISE of a branch's estimate list (averaged)."""

    def mise(payload) -> float:
        estimates = [e for e in payload if isinstance(e, DensityEstimate)]
        if not estimates:
            return float("inf")
        return float(np.mean([e.mise(true_pdf) for e in estimates]))

    return mise


def loglik_of_payload(holdout: np.ndarray):
    """Evaluator function: hold-out log-likelihood of a branch's estimate."""

    holdout = np.asarray(holdout, dtype=np.float64)

    def loglik(payload) -> float:
        estimates = [e for e in payload if isinstance(e, DensityEstimate)]
        if not estimates:
            return float("-inf")
        return float(np.mean([e.log_likelihood(holdout) for e in estimates]))

    return loglik
