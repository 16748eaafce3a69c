"""The serial backend: nothing runs ahead of turn (the reference)."""

from __future__ import annotations

from .base import ExecutionBackend

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """In-process reference backend (the determinism baseline)."""

    name = "serial"
