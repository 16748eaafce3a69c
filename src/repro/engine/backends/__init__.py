"""Execution backends: who may run pure stage transforms ahead of turn.

``BACKENDS`` maps the names accepted by ``EngineConfig.backend`` /
``run_mdf(backend=...)`` to backend classes.
"""

from __future__ import annotations

from typing import Dict, List, Type, Union

from .base import ExecutionBackend, run_stage
from .mp import MPBackend
from .serial import SerialBackend

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "MPBackend",
    "BACKENDS",
    "available_backends",
    "make_backend",
    "run_stage",
]

BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "mp": MPBackend,
}


def available_backends() -> List[str]:
    return sorted(BACKENDS)


def make_backend(spec: Union[str, ExecutionBackend, None]) -> ExecutionBackend:
    """Resolve a config spec (name, instance or None) to a backend instance."""
    if spec is None:
        spec = "serial"
    if isinstance(spec, ExecutionBackend):
        return spec
    try:
        cls = BACKENDS[spec]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {spec!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return cls()
