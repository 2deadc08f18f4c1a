"""The enriched ``stats`` schema survives the artifact round-trip, and
``compare`` rejects a document that has no stats block.

JSON traps exercised here: NaN / inf metric fields (invalid JSON —
stored as tagged strings and restored to floats on load), numpy scalars
leaking in from summaries, and a document without the stats block.
"""

import math

import numpy as np
import pytest

from repro.bench import stats as bstats
from repro.bench.__main__ import main as bench_main
from repro.bench.results_io import (has_stats, load_artifact,
                                    metric_is_finite, save_artifact,
                                    stats_metrics)

pytestmark = pytest.mark.benchstat


def _artifact():
    metrics = bstats.summarize_metrics(
        {"a.epoch_time_s": [1.0, 1.1, 0.9, 1.05, 0.95],
         "a.wall_s": [0.2, 0.22, 0.19, 0.21, 0.2],
         "a.dropped": [0.0] * 5},
        {"epoch_time_s": bstats.SIM_S, "wall_s": bstats.WALL_S,
         "dropped": bstats.COUNT_BAD}, ci_seed=0)
    return {"ok": True,
            "stats": bstats.build_stats_block(
                metrics, bstats.RunPlan(runs=5, warmup=1),
                config={"bench": "unit", "epochs": 2})}


def test_round_trip_preserves_summaries(tmp_path):
    doc = _artifact()
    path = str(tmp_path / "BENCH_unit.json")
    save_artifact(doc, path)
    loaded = load_artifact(path)

    assert has_stats(loaded)
    assert loaded["stats"]["schema"] == bstats.STATS_SCHEMA
    assert loaded["stats"]["run_plan"] == {"runs": 5, "warmup": 1,
                                           "seed": 0}
    got = stats_metrics(loaded)["a.epoch_time_s"]
    want = doc["stats"]["metrics"]["a.epoch_time_s"]
    for key in ("n", "mean", "stddev", "p50", "p90", "ci_low", "ci_high"):
        assert got[key] == pytest.approx(want[key])
    assert got["samples"] == pytest.approx(want["samples"])
    assert got["kind"] == "simulated" and got["direction"] == "lower"


def test_round_trip_fingerprint(tmp_path):
    doc = _artifact()
    path = str(tmp_path / "BENCH_unit.json")
    save_artifact(doc, path)
    fp = load_artifact(path)["stats"]["fingerprint"]
    for key in ("python", "numpy", "platform", "machine", "config",
                "config_hash", "commit"):
        assert key in fp
    assert fp["config"]["bench"] == "unit"
    assert fp["config_hash"] == bstats.config_hash({"bench": "unit",
                                                    "epochs": 2})


def test_round_trip_nan_inf_numpy_traps(tmp_path):
    """NaN/inf summary fields and numpy scalars must survive the trip
    as *floats*, not as the tagged strings the JSON layer stores."""
    doc = _artifact()
    m = doc["stats"]["metrics"]["a.epoch_time_s"]
    m["stddev"] = float("nan")
    m["ci_high"] = float("inf")
    m["mean"] = np.float64(1.25)
    m["samples"] = [np.float32(1.0), float("nan"), 2.0]
    path = str(tmp_path / "BENCH_traps.json")
    save_artifact(doc, path)
    got = load_artifact(path)["stats"]["metrics"]["a.epoch_time_s"]

    assert math.isnan(got["stddev"])
    assert got["ci_high"] == float("inf")
    assert got["mean"] == pytest.approx(1.25)
    assert got["samples"][0] == pytest.approx(1.0)
    assert math.isnan(got["samples"][1])
    # Finiteness is judged on the mean (NaN spread fields are allowed:
    # they just mean "no variance information").
    assert metric_is_finite(got)
    got["mean"] = float("nan")
    assert not metric_is_finite(got)


def test_reloaded_artifacts_compare_cleanly(tmp_path):
    """save -> load -> compare(A, A): the tagged-string restoration is
    good enough for the full statistical path, not just display."""
    doc = _artifact()
    path = str(tmp_path / "BENCH_unit.json")
    save_artifact(doc, path)
    loaded = load_artifact(path)
    report = bstats.compare_artifacts(loaded, loaded)
    assert report.regressions() == []
    assert report.improvements() == []
    assert not report.removed and not report.added


# ----------------------------------------------------------------------
# Artifacts without a stats block
# ----------------------------------------------------------------------
def test_artifact_without_stats_is_rejected(tmp_path, capsys):
    """A document with no ``stats.metrics`` fails to load, and compare
    exits 2 naming it instead of passing with nothing compared."""
    good = str(tmp_path / "BENCH_unit.json")
    save_artifact(_artifact(), good)
    bare = str(tmp_path / "x.json")
    save_artifact({"artifact": "x"}, bare)
    with pytest.raises(ValueError, match="x.json"):
        load_artifact(bare)

    argv = ["compare", good, bare, "--fail-on-regression",
            "--gate-kinds", "simulated,count", "--quiet"]
    assert bench_main(argv) == 2
    assert "x.json" in capsys.readouterr().err


def test_unrecognizable_artifact_warns():
    metrics, warnings = bstats.extract_metrics({"name": "junk"})
    assert metrics == {}
    assert any("no stats block" in w for w in warnings)


def test_fingerprint_mismatch_warns():
    a, b = _artifact(), _artifact()
    b["stats"]["fingerprint"]["config_hash"] = "deadbeef"
    report = bstats.compare_artifacts(a, b)
    assert any("fingerprint mismatch: config_hash" in w
               for w in report.warnings)


def test_gate_kinds_excludes_wall_metrics():
    """A wall-clock regression must not fail a simulated/count gate —
    the cross-machine CI contract."""
    old = {"stats": bstats.build_stats_block(
        bstats.summarize_metrics({"a.wall_s": [1.0, 1.01, 0.99, 1.0, 1.0]},
                                 {"wall_s": bstats.WALL_S}),
        bstats.RunPlan(runs=5))}
    new = {"stats": bstats.build_stats_block(
        bstats.summarize_metrics({"a.wall_s": [2.0, 2.01, 1.99, 2.0, 2.0]},
                                 {"wall_s": bstats.WALL_S}),
        bstats.RunPlan(runs=5))}
    report = bstats.compare_artifacts(old, new)
    assert len(report.regressions()) == 1
    assert report.regressions(gate_kinds=("simulated", "count")) == []
