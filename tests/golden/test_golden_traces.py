"""Golden-trace regression: canonical workloads reproduce byte-for-byte.

Any drift in a scheduling, eviction, pruning or discard decision changes
the recorded JSONL and fails here.  For *intended* decision changes,
regenerate with ``PYTHONPATH=src python -m tests.golden.regenerate`` and
review the diff.
"""

import pytest

from repro.trace import Trace, validate_trace

from .regenerate import (
    GOLDEN_FILES,
    RECORDERS,
    REGISTRY_FILES,
    SCENARIOS,
    registry_views_json,
)


@pytest.mark.parametrize("name", sorted(RECORDERS))
class TestGoldenTraces:
    def test_reproduces_byte_for_byte(self, name):
        path = GOLDEN_FILES[name]
        assert path.exists(), (
            f"golden trace {path} missing — regenerate with "
            f"`PYTHONPATH=src python -m tests.golden.regenerate`"
        )
        result = RECORDERS[name]()
        assert result.events.to_jsonl() == path.read_text(), (
            f"decision trace of {name!r} drifted from the golden recording; "
            f"if the change is intended, regenerate via "
            f"`PYTHONPATH=src python -m tests.golden.regenerate` and review the diff"
        )

    def test_golden_file_satisfies_invariants(self, name):
        """The recordings themselves must pass all four validators."""
        trace = Trace.load_jsonl(GOLDEN_FILES[name])
        assert validate_trace(trace) == []


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_registry_views_reproduce_byte_for_byte(name):
    """The counters are a fold of the trace; these files pin the fold
    (recorded from the hand-instrumented engine before it was deleted)."""
    _, cluster = SCENARIOS[name]()
    assert registry_views_json(cluster.obs) == REGISTRY_FILES[name].read_text(), (
        f"registry views of {name!r} drifted from the golden recording; "
        f"if the change is intended, regenerate via "
        f"`PYTHONPATH=src python -m tests.golden.regenerate` and review the diff"
    )


class TestGoldenCoverage:
    def test_explore_choose_golden_pins_evictions_and_pruning(self):
        trace = Trace.load_jsonl(GOLDEN_FILES["explore_choose"])
        kinds = trace.kinds()
        assert kinds.get("partition_evicted", 0) > 0
        assert kinds.get("branch_pruned", 0) > 0
        assert kinds.get("choose_finalized", 0) == 1

    def test_quickstart_golden_matches_docs_walkthrough(self):
        trace = Trace.load_jsonl(GOLDEN_FILES["quickstart"])
        finalized = trace.filter("choose_finalized")
        assert len(finalized) == 1
        assert finalized[0].data["kept"] == ["explore-threshold#0"]
