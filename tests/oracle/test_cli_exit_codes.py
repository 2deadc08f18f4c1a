"""Exit-code contracts: oracle/sanitizer violations must fail the CLI.

CI keys off process exit codes, so a red oracle that exits 0 is a
silent pass — these tests pin the wiring from violation to non-zero
return for both ``repro`` and ``python -m repro.bench``.
"""

import json

import pytest

import repro.bench.oracle as bench_oracle
import repro.bench.runner as bench_runner
from repro.bench.__main__ import main as bench_main
from repro.cli import main as cli_main
from repro.errors import SanitizerError
from repro.oracle import GOLDEN_SCENARIO, Scenario

TINY = Scenario(name="cli-tiny", dataset="tiny", epochs=1)


# ----------------------------------------------------------------------
# repro bench oracle / python -m repro.bench oracle
# ----------------------------------------------------------------------
def test_bench_oracle_exit_zero_when_clean(tmp_path):
    out = str(tmp_path / "BENCH_oracle.json")
    rc = bench_main(["oracle", "--fuzz", "0", "--no-golden", "-o", out,
                     "--quiet"])
    assert rc == 0
    artifact = json.load(open(out))
    assert artifact["ok"] and artifact["matrix"]["ok"]
    assert "fuzz" not in artifact


def test_bench_oracle_exit_nonzero_on_missing_golden(tmp_path):
    artifact = bench_oracle.run(
        matrix=(), fuzz=0, golden=True, golden_dir=str(tmp_path),
        verbose=False)[0]
    assert not artifact["ok"]
    assert "regen" in artifact["golden"]["error"]


def test_bench_oracle_exit_nonzero_on_golden_mismatch(tmp_path, monkeypatch):
    digests = {s: "0" * 64 for s in ("gnndrive-gpu",)}
    with open(tmp_path / "digests.json", "w") as fh:
        json.dump({"scenario": GOLDEN_SCENARIO.to_dict(),
                   "digests": digests}, fh)
    artifact = bench_oracle.run(
        matrix=(), fuzz=0, golden=True, golden_dir=str(tmp_path),
        verbose=False)[0]
    assert not artifact["ok"]
    systems = [m["system"] for m in artifact["golden"]["mismatches"]]
    assert "gnndrive-gpu" in systems


def test_repro_oracle_exit_codes(monkeypatch, tmp_path):
    out = str(tmp_path / "BENCH_oracle.json")
    monkeypatch.setattr(bench_oracle, "run",
                        lambda **kw: ({"ok": True}, {}, {}, {}))
    assert cli_main(["bench", "oracle", "-o", out]) == 0
    monkeypatch.setattr(bench_oracle, "run",
                        lambda **kw: ({"ok": False}, {}, {}, {}))
    assert cli_main(["bench", "oracle", "-o", out]) == 1
    assert json.load(open(out))["ok"] is False


def test_oracle_violation_fails_the_artifact(monkeypatch):
    """A violating scenario report makes the oracle bench red end to
    end."""

    def fake_check(scenario, oracles=None):
        return {"scenario": scenario.to_dict(),
                "checked": ["always-fires"], "skipped": [],
                "violations": ["[always-fires] synthetic violation"],
                "ok": False}

    monkeypatch.setattr(bench_oracle, "check_scenario", fake_check)
    artifact = bench_oracle.run(matrix=(TINY,), fuzz=0, golden=False,
                                verbose=False)[0]
    assert not artifact["ok"]
    assert any("synthetic violation" in v
               for v in artifact["matrix"]["violations"])


# ----------------------------------------------------------------------
# repro run --sanitize
# ----------------------------------------------------------------------
def test_run_sanitize_clean_exits_zero(capsys):
    rc = cli_main(["run", "gnndrive-gpu", "--dataset", "tiny",
                   "--scale", "1.0", "--epochs", "1", "--sanitize"])
    assert rc == 0


def test_run_sanitize_violation_exits_nonzero(monkeypatch, capsys):
    def boom(*a, **kw):
        raise SanitizerError("[leak] host:staging: leaked 42 B")

    monkeypatch.setattr(bench_runner, "run_system", boom)
    rc = cli_main(["run", "gnndrive-gpu", "--dataset", "tiny",
                   "--scale", "1.0", "--epochs", "1", "--sanitize"])
    assert rc == 1
    assert "sanitizer violation" in capsys.readouterr().out


def test_run_sanitize_findings_exit_nonzero(monkeypatch, capsys):
    """Non-strict findings left on the machine also fail the command."""

    class FakeFinding:
        def render(self):
            return "[ring] ring(depth=8): completion before submission"

    class FakeSanitizer:
        clean = False
        findings = [FakeFinding()]

    class FakeMachine:
        sanitizer = FakeSanitizer()

    class FakeResult:
        ok = True
        status = "ok"
        stats = []
        machine = FakeMachine()
        error = ""

    monkeypatch.setattr(bench_runner, "run_system",
                        lambda *a, **kw: FakeResult())
    rc = cli_main(["run", "gnndrive-gpu", "--dataset", "tiny",
                   "--scale", "1.0", "--epochs", "1", "--sanitize"])
    assert rc == 1
    assert "completion before submission" in capsys.readouterr().out
