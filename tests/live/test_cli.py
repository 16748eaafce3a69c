"""The ``python -m repro live`` follow-mode dashboard CLI."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.__main__ import main
from repro.live.cli import follow

from ..golden.regenerate import GOLDEN_FILES


def run_cli(argv):
    out = io.StringIO()
    code = main(["live", *argv], out=out)
    return code, out.getvalue()


def golden_path():
    return str(GOLDEN_FILES["explore_choose"])


class TestBatchMode:
    def test_renders_final_dashboard_from_a_trace_file(self):
        code, output = run_cli([golden_path()])
        assert code == 0
        assert output.startswith("repro.live ")
        assert "stages" in output
        assert "eta n/a" in output  # trace-only: no plan, no ETA
        assert "pruned" in output  # the golden prunes branches

    def test_works_on_the_quickstart_golden(self):
        code, output = run_cli([str(GOLDEN_FILES["quickstart"])])
        assert code == 0
        assert "explore-threshold#0" in output

    def test_missing_file(self):
        code, output = run_cli(["/no/such/trace.ndjson"])
        assert code == 2
        assert "no such trace file" in output

    def test_no_args_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli([])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: python -m repro live TRACE")

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["--help"])
        assert exit_info.value.code == 0
        output = capsys.readouterr().out
        assert output.startswith("usage: python -m repro live TRACE")
        assert "--idle-timeout" in output

    def test_bad_numeric_flag(self):
        with pytest.raises(SystemExit):
            run_cli(["--interval", "fast", golden_path()])


class TestFollowMode:
    def test_follow_terminates_on_idle_timeout(self, tmp_path):
        path = tmp_path / "static.ndjson"
        path.write_text(GOLDEN_FILES["quickstart"].read_text())
        code, output = run_cli(
            [
                "--follow",
                "--interval",
                "0.01",
                "--idle-timeout",
                "0.03",
                str(path),
            ]
        )
        assert code == 0
        # at least one intermediate frame comes before the final dashboard
        assert output.count("stages") >= 2
        assert "repro.live " in output


class TestRedrawLoop:
    """``follow``, the loop ``live --follow``, ``service follow`` and
    ``service status --follow`` share."""

    def run_loop(self, news, out):
        polls = iter(news)
        frames = iter(range(len(news)))
        follow(lambda: next(polls, False), lambda: f"frame {next(frames)}\n", out,
               interval=0.0, idle_timeout=0.05)
        return out.getvalue()

    def test_off_a_terminal_a_rule_separates_frames(self):
        output = self.run_loop([True, False, True], io.StringIO())
        assert output == "frame 0\n" + "-" * 64 + "\nframe 1\n"

    def test_on_a_terminal_each_frame_replaces_the_last(self):
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        output = self.run_loop([True, True], Terminal())
        assert output == "frame 0\n\x1b[2J\x1b[Hframe 1\n"

    def test_stops_after_idle_timeout_without_news(self):
        started = time.monotonic()
        assert self.run_loop([False], io.StringIO()) == ""
        assert time.monotonic() - started < 5.0


class TestFailOnAlert:
    def write_retry_storm(self, tmp_path):
        """A minimal NDJSON stream whose retries trip the storm watchdog."""
        lines = []
        for seq, attempts in enumerate((1, 2, 3)):
            lines.append(
                json.dumps(
                    {
                        "seq": seq,
                        "t": 0.1 * seq,
                        "kind": "task_retried",
                        "data": {
                            "node": "worker-0",
                            "attempts": attempts,
                            "seconds": 0.05,
                        },
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        path = tmp_path / "storm.ndjson"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_alerts_reported_but_exit_zero_by_default(self, tmp_path):
        code, output = run_cli([self.write_retry_storm(tmp_path)])
        assert code == 0
        assert "1 alert(s) raised" in output
        assert "[retry_storm]" in output

    def test_fail_on_alert_exits_nonzero(self, tmp_path):
        code, output = run_cli(
            ["--fail-on-alert", self.write_retry_storm(tmp_path)]
        )
        assert code == 1

    def test_fail_on_alert_passes_clean_traces(self):
        code, _ = run_cli(["--fail-on-alert", golden_path()])
        assert code == 0
