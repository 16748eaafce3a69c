"""Profile collection for harness runs (``repro.bench --profile``).

The bench harness wraps each figure in ``with
observing(ProfileCollector()):`` — figures call ``run_mdf`` internally —
and reads back one reconstructed profile per run.
"""

from __future__ import annotations

from typing import List

from .spans import SpanProfile, profile_from_result


class ProfileCollector:
    """Run observer accumulating one :class:`SpanProfile` per finished run."""

    def __init__(self) -> None:
        self.profiles: List[SpanProfile] = []

    def begin(self, mdf, cluster, config) -> None:
        pass

    def end(self, result) -> None:
        if result is not None:
            self.profiles.append(profile_from_result(result))


__all__ = ["ProfileCollector"]
