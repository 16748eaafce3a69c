"""Malformed CLI input: exit 2 and one usage line — never a traceback.

``bench``, ``live`` and ``service`` parse with ``argparse`` like ``prof``
and ``lab``: a value that does not convert is a usage error reported on
stderr, not an unchecked ``float()`` blowing up mid-command.
"""

import io

import pytest

from repro.bench.__main__ import main as bench_main
from repro.live.__main__ import main as live_main
from repro.service.__main__ import main as service_main


def service(*argv):
    return lambda spool: service_main([argv[0], "--spool", spool, *argv[1:]], out=io.StringIO())


MALFORMED = {
    "service submit --cost": service("submit", "--workload", "filter_min", "--cost", "abc"),
    "service serve --workers": service("serve", "--once", "--workers", "two"),
    "service serve --max-idle": service("serve", "--once", "--max-idle", "soon"),
    "service serve --quota-bytes": service("serve", "--once", "--quota-bytes", "1GB"),
    "service serve --tenant": service("serve", "--once", "--tenant", "alice:heavy"),
    "service status --stale-after": service("status", "--stale-after", "x"),
    "service top --interval": service("top", "--once", "--interval", "x"),
    "service top --iterations": service("top", "--iterations", "1.5"),
    "live --interval": lambda spool: live_main(["--interval", "fast", "t.ndjson"], out=io.StringIO()),
    "live --refresh": lambda spool: live_main(["--refresh", "often", "t.ndjson"], out=io.StringIO()),
    "bench unknown flag": lambda spool: bench_main(["--no-such-flag"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_value_is_a_usage_error(case, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        MALFORMED[case](str(tmp_path))
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.startswith("usage: ") for line in err] == [True, False], err
    assert "error: " in err[1]


@pytest.mark.parametrize("command", [("status",), ("top", "--once")], ids=" ".join)
def test_undecodable_state_is_reported_not_raised(command, tmp_path):
    (tmp_path / "state.json").write_text("{not json")
    out = io.StringIO()
    code = service_main([command[0], "--spool", str(tmp_path), *command[1:]], out=out)
    assert code == 2
    assert out.getvalue().startswith(f"unreadable state.json under {tmp_path}: ")
    assert len(out.getvalue().splitlines()) == 1
