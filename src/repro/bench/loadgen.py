"""Exact percentile on the 0-100 scale.

The module keeps this name because ``benchmarks/wall/test_harness.py``
checks the harness's own percentile against
``repro.bench.loadgen.percentile``.
"""

from typing import Optional, Sequence

from ..obs.registry import nearest_rank

__all__ = ["percentile"]


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile (0 <= q <= 100); ``None`` when empty."""
    return nearest_rank(values, q / 100.0) if values else None
