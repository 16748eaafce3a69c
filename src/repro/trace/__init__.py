"""Decision-trace observability: typed events, exports, invariant checkers.

See docs/tracing.md for the event schema and the validator API, and
docs/paper_mapping.md for the algorithm → validator correspondence.
"""

from .events import EVENT_SCHEMA, Trace, TraceEvent
from .validate import (
    ALL_CHECKS,
    InvariantViolation,
    Validator,
    Violation,
    assert_valid,
    check_amm_ranking,
    check_cache_sound,
    check_depth_first,
    check_no_use_after_discard,
    check_profile_conserved,
    check_pruning_sound,
    check_recovery_sound,
    validate_trace,
)

__all__ = [
    "ALL_CHECKS",
    "EVENT_SCHEMA",
    "InvariantViolation",
    "Trace",
    "TraceEvent",
    "Validator",
    "Violation",
    "assert_valid",
    "check_amm_ranking",
    "check_cache_sound",
    "check_depth_first",
    "check_no_use_after_discard",
    "check_profile_conserved",
    "check_pruning_sound",
    "check_recovery_sound",
    "validate_trace",
]
