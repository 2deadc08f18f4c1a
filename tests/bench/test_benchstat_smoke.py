"""Tier-1 smoke: one tiny bench end-to-end through the repeated-run
executor, the enriched artifact schema, and the ``compare`` CLI gate.

This is the cheap proof that the statistical layer's pieces actually
compose: executor -> summaries -> fingerprinted artifact -> save/load
-> ``python -m repro.bench compare --fail-on-regression`` exit codes.
The heavyweight benches reuse exactly these paths.
"""

import numpy as np
import pytest

from repro.bench import stats as bstats
from repro.bench.__main__ import main as bench_main
from repro.bench.results_io import load_artifact, save_artifact

pytestmark = pytest.mark.benchstat

#: Small but non-trivial: enough work for nonzero wall samples.
_PLAN = bstats.RunPlan(runs=3, warmup=1, seed=0)


def _tiny_bench(scale: float) -> dict:
    """A miniature two-case bench through the interleaved executor:
    sorting vs. cumulative-summing the same array, with a deterministic
    'simulated' byproduct per case."""
    rng = np.random.default_rng(0)
    data = rng.standard_normal(20_000)

    def case(fn, simulated):
        def measure(_rep: int) -> dict:
            _, dt = bstats.timed_call(lambda: fn(data))
            return {"wall_s": dt, "checksum": simulated}
        return measure

    samples = bstats.interleaved_measure(
        {"sort": case(np.sort, 100.0 * scale),
         "cumsum": case(np.cumsum, 40.0 * scale)}, _PLAN)
    metrics = bstats.summarize_metrics(
        samples, {"wall_s": bstats.WALL_S, "checksum": bstats.SIM_S},
        ci_seed=_PLAN.seed)
    return {"ok": True,
            "stats": bstats.build_stats_block(
                metrics, _PLAN, config={"bench": "tiny", "scale": scale})}


def test_executor_shape():
    doc = _tiny_bench(1.0)
    metrics = doc["stats"]["metrics"]
    assert set(metrics) == {"sort.wall_s", "sort.checksum",
                            "cumsum.wall_s", "cumsum.checksum"}
    for m in metrics.values():
        assert m["n"] == _PLAN.runs
        assert len(m["samples"]) == _PLAN.runs
    assert all(s > 0 for s in metrics["sort.wall_s"]["samples"])
    assert doc["stats"]["run_plan"] == _PLAN.to_dict()
    assert doc["stats"]["fingerprint"]["config"]["bench"] == "tiny"


def test_compare_cli_same_seed_passes(tmp_path, capsys):
    """Two artifacts from the same deterministic bench: the gate must
    exit 0 — the acceptance criterion that same-seed re-runs never
    trip the regression gate.  Only the gated rows (the simulated
    checksums) must not read REGRESSED; the ungated ``wall_s`` rows
    measure real time and may, under machine load."""
    old, new = str(tmp_path / "old.json"), str(tmp_path / "new.json")
    save_artifact(_tiny_bench(1.0), old)
    save_artifact(_tiny_bench(1.0), new)
    rc = bench_main(["compare", old, new, "--fail-on-regression",
                     "--gate-kinds", "simulated,count"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "## Bench comparison" in out
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in out.splitlines() if line.startswith("| ")]
    gated = [row for row in rows if row[1] in ("simulated", "count")]
    assert sorted(row[0] for row in gated) == ["cumsum.checksum",
                                               "sort.checksum"]
    assert not any("REGRESSED" in row[-1] for row in gated)


def test_compare_cli_perturbed_fails(tmp_path, capsys):
    """A perturbed simulated metric must be reported as a regression
    and flip the exit code to 1."""
    old, new = str(tmp_path / "old.json"), str(tmp_path / "new.json")
    save_artifact(_tiny_bench(1.0), old)
    save_artifact(_tiny_bench(1.2), new)
    report_md = str(tmp_path / "report.md")
    rc = bench_main(["compare", old, new, "--fail-on-regression",
                     "--gate-kinds", "simulated,count",
                     "--report", report_md])
    assert rc == 1
    assert "REGRESSED" in capsys.readouterr().out
    with open(report_md) as fh:
        text = fh.read()
    assert "sort.checksum" in text and "✗ REGRESSED" in text
    # fingerprint config hash differs (scale changed) -> warned.
    assert "fingerprint mismatch: config_hash" in text


def test_compare_cli_without_gate_exits_zero(tmp_path, capsys):
    """Without --fail-on-regression the compare is informational."""
    old, new = str(tmp_path / "old.json"), str(tmp_path / "new.json")
    save_artifact(_tiny_bench(1.0), old)
    save_artifact(_tiny_bench(1.2), new)
    assert bench_main(["compare", old, new, "--quiet"]) == 0
    assert bench_main(["compare", old, str(tmp_path / "missing.json"),
                       "--quiet"]) == 2
    capsys.readouterr()


def test_round_trip_then_gate(tmp_path):
    """load_artifact feeds compare_artifacts losslessly."""
    path = str(tmp_path / "a.json")
    doc = _tiny_bench(1.0)
    save_artifact(doc, path)
    report = bstats.compare_artifacts(load_artifact(path),
                                      load_artifact(path))
    assert report.regressions() == []
    assert {c.name for c in report.comparisons} == set(
        doc["stats"]["metrics"])
