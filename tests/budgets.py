"""The size and seam budgets CI's tier-1 summary tracks, counted from source.

``python tests/budgets.py`` (with ``PYTHONPATH=src``) prints one markdown
table row per budget.  The counts are exact and need no clock, so two
commits compare by running this same file on both: PRs used to quote a
"settable values" number from a script nobody else had.  Not collected by
pytest.
"""

import ast
import inspect
import re
from pathlib import Path

import repro
from repro.cache import SharedCacheStore

SRC = Path(repro.__file__).resolve().parent
ENGINE_FILES = ("executor", "master", "recovery")
SEAM_FILES = ("master", "executor", "runner", "job")
TOUCH_POINTS = ("obs.counter(", "obs.histogram(", "obs.gauge(", "label_context(")
HOOK_SETTERS = r"def set_(auto_validate|profile_collector|live_hook)"
CHOOSE_EVENTS = ("choose_evaluation", "branch_evaluated", "branch_discarded")
#: an assignment, augmented assignment or append into a ``JobResult`` field
RESULT_WRITE = r"\bresult\.\w+(\[[^]]*\])? *(\+?=(?!=)|\.append\()"


def sources(*packages):
    roots = [SRC / package for package in packages] or [SRC]
    return [path.read_text() for root in roots for path in sorted(root.rglob("*.py"))]


def lines_matching(pattern, *packages):
    """What ``git grep -c`` adds up to: lines with a match, under ``packages``."""
    lines = (line for text in sources(*packages) for line in text.splitlines())
    return sum(bool(re.search(pattern, line)) for line in lines)


def settable_values():
    """Independently settable values: parameters with a default, and
    annotated class fields with one (a dataclass's)."""
    count = 0
    for text in sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = node.args.defaults + node.args.kw_defaults
                count += sum(default is not None for default in defaults)
            elif isinstance(node, ast.ClassDef):
                count += sum(
                    isinstance(field, ast.AnnAssign) and field.value is not None
                    for field in node.body
                )
    return count


def arity(function):
    return len(inspect.signature(function).parameters)


def slashed(counts):
    return " / ".join(map(str, counts))


def rows():
    yield "`src/` lines", sum(text.count("\n") for text in sources())
    yield "lines of engine/ " + slashed(ENGINE_FILES), slashed(
        (SRC / "engine" / f"{name}.py").read_text().count("\n") for name in ENGINE_FILES
    )
    yield "`engine/backends/` lines", sum(
        text.count("\n") for text in sources("engine/backends")
    )
    yield "`service/obs.py` lines", (SRC / "service" / "obs.py").read_text().count("\n")
    yield "`backend` / `prefetch` sites in engine/ " + slashed(SEAM_FILES), sum(
        bool(re.search("backend|prefetch", line))
        for name in SEAM_FILES
        for line in (SRC / "engine" / f"{name}.py").read_text().splitlines()
    )
    yield "settable values under `src/` (defaulted parameters + class fields)", (
        settable_values()
    )
    yield "direct `obs.counter(` sites under cluster/ engine/ cache/", lines_matching(
        re.escape(TOUCH_POINTS[0]), "cluster", "engine", "cache"
    )
    yield "registry touch points under engine/: " + slashed(TOUCH_POINTS), slashed(
        lines_matching(re.escape(touch), "engine") for touch in TOUCH_POINTS
    )
    yield "writes into `JobResult` under engine/", lines_matching(RESULT_WRITE, "engine")
    yield "`run_mdf` parameters", arity(repro.run_mdf)
    yield "`SharedCacheStore` parameters", arity(SharedCacheStore)
    yield "process-wide hook setters under `src/`", lines_matching(HOOK_SETTERS)
    yield "choose-protocol emit sites: " + slashed(CHOOSE_EVENTS), slashed(
        lines_matching(rf'^ *"{kind}",$', "engine") for kind in CHOOSE_EVENTS
    )


if __name__ == "__main__":
    for row, value in rows():
        print(f"| {row} | {value} |")
