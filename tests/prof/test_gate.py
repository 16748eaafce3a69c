"""CI perf-regression gate (``python -m repro gate``).

The simulator is deterministic, so the gate compares exact simulated
completion times against the committed baselines.  These tests prove the
three properties a gate must have: it passes on an unchanged engine, it
demonstrably fails on an injected slowdown, and ``--update`` writes a
baseline file the next run accepts.
"""

import errno
import json

import pytest

from repro.__main__ import main
from repro.prof import gate
from repro.prof.gate import (
    DEFAULT_TOLERANCE,
    SCENARIOS,
    GateRow,
    measure,
    run_gate,
)

BASELINES = "benchmarks/baselines.json"


class TestGateRow:
    def test_delta_is_relative(self):
        row = GateRow(scenario="s", baseline=2.0, measured=2.2)
        assert row.delta == pytest.approx(0.1)

    def test_delta_handles_zero_baseline(self):
        assert GateRow(scenario="s", baseline=0.0, measured=1.0).delta == float("inf")
        assert GateRow(scenario="s", baseline=0.0, measured=0.0).delta == 0.0


class TestMeasure:
    def test_covers_every_scenario_deterministically(self):
        first = measure()
        second = measure()
        assert set(first) == set(SCENARIOS)
        assert first == second

    def test_slowdown_scales_measurements(self):
        clean = measure()
        slow = measure(slowdown=1.1)
        for name, seconds in clean.items():
            assert slow[name] == pytest.approx(1.1 * seconds, rel=1e-12)


class TestRunGate:
    def test_update_writes_baselines(self, tmp_path):
        path = tmp_path / "baselines.json"
        report = run_gate(path, update=True)
        assert report.updated and report.ok
        with open(path) as fh:
            payload = json.load(fh)
        assert set(payload["scenarios"]) == set(SCENARIOS)
        assert payload["tolerance"] == DEFAULT_TOLERANCE

    def test_clean_run_passes_against_fresh_baselines(self, tmp_path):
        path = tmp_path / "baselines.json"
        run_gate(path, update=True)
        report = run_gate(path)
        assert report.ok and not report.failures
        assert "gate PASSED" in report.render()

    def test_injected_slowdown_fails_every_scenario(self, tmp_path):
        """The gate must be demonstrably capable of failing: a simulated
        10% regression trips the default 5% tolerance on all scenarios."""
        path = tmp_path / "baselines.json"
        run_gate(path, update=True)
        report = run_gate(path, slowdown=1.1)
        assert not report.ok
        assert len(report.failures) == len(SCENARIOS)
        assert "gate FAILED" in report.render()

    def test_tolerance_wide_enough_absorbs_the_slowdown(self, tmp_path):
        path = tmp_path / "baselines.json"
        run_gate(path, update=True)
        assert run_gate(path, tolerance=0.5, slowdown=1.1).ok

    def test_failed_update_leaves_the_baselines_whole(self, tmp_path, monkeypatch):
        """A write that dies half way (a full disk) must not tear the
        committed file: the old bytes stay and no tmp is left behind."""
        path = tmp_path / "baselines.json"
        run_gate(path, update=True)
        before = path.read_bytes()

        def full_disk(payload, fh, **kwargs):
            fh.write('{\n  "_comment": "half')
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(gate, "measure", lambda slowdown=1.0: {"chain": 1.0})
        monkeypatch.setattr(gate.json, "dump", full_disk)
        with pytest.raises(OSError):
            main(["gate", str(path), "--update"])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["baselines.json"]

    def test_missing_scenario_is_an_error(self, tmp_path):
        path = tmp_path / "baselines.json"
        run_gate(path, update=True)
        with open(path) as fh:
            payload = json.load(fh)
        del payload["scenarios"]["quickstart"]
        path.write_text(json.dumps(payload))
        with pytest.raises(KeyError, match="--update"):
            run_gate(path)


class TestCommittedBaselines:
    def test_repo_baselines_match_the_current_engine(self):
        """The committed baselines must agree with the engine as built —
        this is the very check CI runs."""
        report = run_gate(BASELINES)
        assert report.ok, report.render()


class TestCli:
    def test_gate_mode_exit_codes(self, tmp_path, capsys):
        path = str(tmp_path / "baselines.json")
        assert main(["gate", path, "--update"]) == 0
        assert main(["gate", path]) == 0
        assert "gate PASSED" in capsys.readouterr().out
        assert main(["gate", path, "--inject-slowdown", "1.1"]) == 1
        assert "gate FAILED" in capsys.readouterr().out
