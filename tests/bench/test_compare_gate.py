"""``compare --fail-on-regression`` cannot be switched off by accident:
a gated metric that NEW lacks fails the gate, and a threshold or alpha
that would disable it is rejected."""

import json
from pathlib import Path

import pytest

from repro.bench import stats as bstats
from repro.bench.__main__ import main as bench_main
from repro.bench.results_io import load_artifact

pytestmark = pytest.mark.benchstat

BASELINE = str(Path(__file__).resolve().parents[2] / "BENCH_faults.json")
GATE = ["--fail-on-regression", "--gate-kinds", "simulated,count"]


def _variant(tmp_path, edit):
    with open(BASELINE) as fh:
        doc = json.load(fh)
    edit(doc["stats"]["metrics"])
    path = tmp_path / "new.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_missing_simulated_metric_fails_the_gate(tmp_path, capsys):
    new = _variant(tmp_path,
                   lambda metrics: metrics.pop("ginex.epoch_time_s"))
    assert bench_main(["compare", BASELINE, new] + GATE) == 1
    err = capsys.readouterr().err
    assert "missing from NEW: ginex.epoch_time_s" in err


def test_missing_ungated_metric_passes_the_gate(tmp_path, capsys):
    new = _variant(tmp_path, lambda metrics: metrics.pop("ginex.wall_s"))
    assert bench_main(["compare", BASELINE, new] + GATE) == 0
    assert "missing from NEW" not in capsys.readouterr().err
    # Without --gate-kinds every kind is gated, wall included.
    assert bench_main(["compare", BASELINE, new,
                       "--fail-on-regression"]) == 1


def _slower_ginex(metrics):
    metric = metrics["ginex.epoch_time_s"]
    metric["samples"] = [1.5 * x for x in metric["samples"]]
    for key in ("mean", "min", "max", "p50", "p90", "ci_low", "ci_high"):
        metric[key] *= 1.5


@pytest.mark.parametrize("flag, value", [
    ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "-1"),
    ("--alpha", "nan"), ("--alpha", "0"), ("--alpha", "1"),
])
def test_gate_disabling_params_are_rejected(flag, value, tmp_path,
                                            capsys):
    new = _variant(tmp_path, _slower_ginex)
    assert bench_main(["compare", BASELINE, new, "--quiet"] + GATE) == 1
    assert bench_main(["compare", BASELINE, new, flag, value]
                      + GATE) == 2
    assert f"compare: {flag} must" in capsys.readouterr().err
    kw = ({"threshold_pct": float(value)} if flag == "--threshold"
          else {"alpha": float(value)})
    old_doc, new_doc = load_artifact(BASELINE), load_artifact(new)
    with pytest.raises(ValueError):
        bstats.compare_artifacts(old_doc, new_doc, **kw)
    name = "ginex.epoch_time_s"
    with pytest.raises(ValueError):
        bstats.compare_metric(name, old_doc["stats"]["metrics"][name],
                              new_doc["stats"]["metrics"][name], **kw)
