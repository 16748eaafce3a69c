"""Every documented command is one the front door parses.

Each ``python -m repro ...`` line in the README, the design notes, the
docs, CI and the verify recipe goes through ``build_parser()``; and no
retired per-package entry point (``python -m repro.<package>``) is named
anywhere but in the change history.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import build_parser

ROOT = Path(__file__).resolve().parents[2]
DOCUMENTED = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
#: a command (a name or a flag, not a ``<placeholder>``) runs to the end
#: of its code span, pipe, redirect or comment
COMMAND = re.compile(r"python -m repro ([a-z-][^`|>#\n]*)")
#: everything but the change history (CHANGES.md, ROADMAP.md), which may
#: name the entry points this repo used to have
SCANNED = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "setup.py", "pyproject.toml",
           "src", "tests", "docs", "benchmarks", "examples", ".github", ".claude"]
TEXT = {".py", ".md", ".yml", ".yaml", ".json", ".toml", ".cfg", ".txt", ".sh"}


def documented_commands():
    for path in DOCUMENTED:
        text = path.read_text().replace("\\\n", " ")  # shell line continuations
        commands = {" ".join(match.group(1).split()) for match in COMMAND.finditer(text)}
        for command in sorted(commands):
            yield pytest.param(command, id=f"{path.name}: {command}")


@pytest.mark.parametrize("command", documented_commands())
def test_documented_command_parses(command, capsys):
    try:
        build_parser().parse_args(shlex.split(command))
    except SystemExit as exit_info:
        assert exit_info.code == 0, capsys.readouterr().err  # --help


def test_the_documents_name_commands():
    assert len(list(documented_commands())) >= 20


def test_no_retired_entry_point_is_named():
    retired = re.compile(r"python\s+-m\s+repro\.[a-z]")  # also across a line break
    named = []
    paths = [ROOT / name for name in SCANNED]
    for path in sorted(paths + [p for root in paths if root.is_dir() for p in root.rglob("*")]):
        if path.suffix not in TEXT or not path.is_file():
            continue
        text = path.read_text()
        for match in retired.finditer(text):
            number = text.count("\n", 0, match.start()) + 1
            named.append(f"{path.relative_to(ROOT)}:{number}: {match.group()!r}")
    assert named == []
