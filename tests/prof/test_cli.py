"""``python -m repro prof``: flags, outputs, artifacts."""

import json

import pytest

from repro.__main__ import build_parser, main

from ..golden.regenerate import GOLDEN_FILES

GOLDEN = str(GOLDEN_FILES["explore_choose"])


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["prof", GOLDEN])
        assert args.trace == GOLDEN
        assert not args.critical_path and not args.by_branch
        assert args.what_if is None and "baselines" not in args

    def test_trace_is_optional_only_for_gate_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prof"])
        assert exc.value.code == 2
        assert "required: TRACE" in capsys.readouterr().err


class TestTraceMode:
    def test_plain_run_prints_attribution(self, capsys):
        assert main(["prof", GOLDEN]) == 0
        out = capsys.readouterr().out
        assert "makespan attribution" in out
        assert "reload" in out

    def test_critical_path_flag(self, capsys):
        assert main(["prof", GOLDEN, "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "critical-path length" in out
        assert "== completion time" in out

    def test_by_branch_flag(self, capsys):
        assert main(["prof", GOLDEN, "--by-branch"]) == 0
        out = capsys.readouterr().out
        assert "exploration cost" in out
        assert "pruned" in out

    def test_per_node_flag(self, capsys):
        assert main(["prof", GOLDEN, "--per-node"]) == 0
        assert "idle" in capsys.readouterr().out

    def test_what_if_flag(self, capsys):
        assert main(["prof", GOLDEN, "--what-if", "compute=0.5x,alpha=2x"]) == 0
        out = capsys.readouterr().out
        assert "compute" in out and "alpha" in out

    def test_artifact_flags_write_files(self, tmp_path, capsys):
        speedscope = tmp_path / "p.speedscope.json"
        chrome = tmp_path / "p.chrome.json"
        assert (
            main(["prof", GOLDEN, "--speedscope", str(speedscope), "--chrome", str(chrome)])
            == 0
        )
        with open(speedscope) as fh:
            assert json.load(fh)["profiles"]
        with open(chrome) as fh:
            assert json.load(fh)["traceEvents"]
