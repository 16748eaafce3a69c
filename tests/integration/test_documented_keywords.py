"""Every keyword argument the docs pass to a public ``repro`` name exists.

The README, the design notes and ``docs/*.md`` show calls such as
``run_mdf(mdf, cluster, scheduler="bas")`` in code blocks and code spans.
A keyword that the callee's signature lacks (a parameter that was removed,
or never existed) fails here, unless the callee takes ``**kwargs``.
Calls on attributes (``result.dashboard()``) are not resolved.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]
DOCUMENTED = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]
#: fenced code blocks first, then code spans in what is left
FENCED = re.compile(r"```.*?```", re.S)
SPAN = re.compile(r"``?[^`\n]+``?")
#: a bare or ``repro.``-qualified name followed by its opening parenthesis
CALL = re.compile(r"(?<![\w.])(?:repro\.(?:\w+\.)*)?([A-Za-z_]\w*)\(")
KEYWORD = re.compile(r"\s*([A-Za-z_]\w*)\s*=(?!=)")
OPENERS, CLOSERS = "([{", ")]}"


def public_names():
    """``{name: [objects]}`` over the ``__all__`` of ``repro`` and of each
    of its modules."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    ]
    names = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj) and all(obj is not seen for seen in names.get(name, [])):
                names.setdefault(name, []).append(obj)
    return names


def code_regions(text):
    """``(offset, code)`` for every fenced block and code span of ``text``."""
    for match in FENCED.finditer(text):
        yield match.start(), match.group()
    prose = FENCED.sub(lambda m: " " * len(m.group()), text)
    for match in SPAN.finditer(prose):
        yield match.start(), match.group()


def keywords(code, start):
    """The keyword names passed at the top level of the call whose
    arguments begin at ``code[start]`` (it need not parse as Python:
    ``f(replay=)`` names ``replay``)."""
    found, depth, quote, i = [], 0, None, start
    at_argument = True
    while i < len(code):
        char = code[i]
        if quote:
            quote = None if char == quote else quote
        elif char in "'\"":
            quote = char
        elif char in OPENERS:
            depth += 1
        elif char in CLOSERS:
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and at_argument:
            match = KEYWORD.match(code, i)
            if match:
                found.append(match.group(1))
                i = match.end()
                at_argument = False
                continue
        at_argument = depth == 0 and (char == "," or (at_argument and char.isspace()))
        i += 1
    return found


def accepts(obj, keyword):
    try:
        parameters = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # no signature to check against
        return True
    return any(
        p.kind is p.VAR_KEYWORD
        or (p.name == keyword and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))
        for p in parameters
    )


def unknown_keywords():
    names = public_names()
    for path in DOCUMENTED:
        text = path.read_text()
        for offset, code in code_regions(text):
            for call in CALL.finditer(code):
                objects = names.get(call.group(1))
                if not objects:
                    continue
                line = text.count("\n", 0, offset + call.start()) + 1
                for keyword in keywords(code, call.end()):
                    if not any(accepts(obj, keyword) for obj in objects):
                        yield f"{path.name}:{line}: {call.group(1)}({keyword}=)"


def test_keyword_scanner_reads_calls_that_do_not_parse():
    code = "TraceFold(replay=) and run_mdf(mdf, c, config=EngineConfig(pruning=False), x=[a, b=1])"
    assert keywords(code, code.index("(") + 1) == ["replay"]
    call = code.index("run_mdf(") + len("run_mdf(")
    assert keywords(code, call) == ["config", "x"]


def test_documented_keyword_arguments_exist():
    assert list(unknown_keywords()) == []
