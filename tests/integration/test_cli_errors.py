"""Malformed CLI input: exit 2 and one usage line — never a traceback.

Every command of ``python -m repro`` parses with ``argparse``: a value
that does not convert, a zero where a count must be positive or a name
nobody registered is a usage error reported on stderr, not a
``ValueError`` blowing up mid-command or a value silently replaced.
"""

import io

import pytest

from repro.__main__ import main


def command(*argv):
    return lambda spool: main([part.replace("SPOOL", spool) for part in argv], out=io.StringIO())


def service(name, *argv):
    return command("service", name, "--spool", "SPOOL", *argv)


MALFORMED = {
    "service submit --cost": service("submit", "--workload", "filter_min", "--cost", "abc"),
    "service serve --workers": service("serve", "--once", "--workers", "two"),
    "service serve --workers 0": service("serve", "--once", "--workers", "0"),
    "service serve --max-idle": service("serve", "--once", "--max-idle", "soon"),
    "service serve --quota-bytes": service("serve", "--once", "--quota-bytes", "1GB"),
    "service serve --tenant": service("serve", "--once", "--tenant", "alice:heavy"),
    "service serve --tenant weight 0": service("serve", "--once", "--tenant", "alice:0"),
    "service status --follow --interval": service("status", "--follow", "--interval", "x"),
    "live --interval": command("live", "--interval", "fast", "t.ndjson"),
    "live --interval -1": command("live", "--follow", "--interval", "-1", "t.ndjson"),
    "bench unknown flag": command("bench", "--no-such-flag"),
    "lab --sizes 2,x": command("lab", "--sizes", "2,x"),
    "lab --sizes 0": command("lab", "--sizes", "0"),
    "lab unknown policy": command("lab", "--policies", "no-such-policy"),
    "prof --what-if": command("prof", "t.jsonl", "--what-if", "bogus"),
    "gate --inject-slowdown": command("gate", "b.json", "--inject-slowdown", "lots"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_value_is_a_usage_error(case, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        MALFORMED[case](str(tmp_path))
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.startswith("usage: ") for line in err] == [True, False], err
    assert "error: " in err[1]


def test_every_command_has_a_malformed_row():
    commands = {case.split()[0] for case in MALFORMED}
    assert commands == {"bench", "lab", "prof", "gate", "live", "service"}


@pytest.mark.parametrize("command", [("status",), ("status", "--follow")], ids=" ".join)
def test_undecodable_state_is_reported_not_raised(command, tmp_path):
    (tmp_path / "state.json").write_text("{not json")
    out = io.StringIO()
    code = main(["service", command[0], "--spool", str(tmp_path), *command[1:]], out=out)
    assert code == 2
    assert out.getvalue().startswith(f"unreadable state.json under {tmp_path}: ")
    assert len(out.getvalue().splitlines()) == 1


@pytest.mark.parametrize(
    "command",
    [("status",), ("status", "--follow"), ("follow",), ("follow", "--job", "job-0001")],
    ids=" ".join,
)
def test_read_only_commands_do_not_create_the_spool(command, tmp_path):
    """Only ``serve`` and ``submit`` create a spool: asked to read a
    path that is not there, the others say so and leave it absent."""
    spool = tmp_path / "typo"
    out = io.StringIO()
    code = main(["service", command[0], "--spool", str(spool), *command[1:]], out=out)
    assert code == 2, out.getvalue()
    assert not spool.exists()
