"""Golden-trace pinning: the committed digests and the divergence diff."""

import json
import os

import pytest

from repro.oracle import (GOLDEN_DIR, GOLDEN_SCENARIO, GOLDEN_SYSTEMS,
                          check_golden, golden_digests)
from repro.oracle.golden import _trace_name, first_divergence_vs_golden
from repro.oracle.scenario import ScenarioRunner


def test_golden_files_are_committed():
    digests = golden_digests()
    assert set(digests) == set(GOLDEN_SYSTEMS)
    for system in GOLDEN_SYSTEMS:
        path = os.path.join(GOLDEN_DIR, _trace_name(system))
        assert os.path.exists(path), f"missing golden trace for {system}"
    with open(os.path.join(GOLDEN_DIR, "digests.json")) as fh:
        assert json.load(fh)["scenario"] == GOLDEN_SCENARIO.to_dict()


@pytest.mark.oracle
def test_golden_digests_match():
    """Tier-1 drift tripwire: the pinned scenario replays bit-for-bit."""
    mismatches = check_golden()
    assert mismatches == [], "\n".join(m["detail"] for m in mismatches)


@pytest.mark.oracle
def test_perturbed_knob_diverges_with_readable_diff():
    """Halving the SSD channel count must change the pinned trace, and
    the report must name the first divergent event, not just the hash."""
    runner = ScenarioRunner(GOLDEN_SCENARIO)
    perturbed = runner.run("gnndrive-gpu", channels=4)
    assert perturbed.ok
    assert perturbed.digest != golden_digests()["gnndrive-gpu"]
    div = first_divergence_vs_golden("gnndrive-gpu", perturbed.trace)
    assert div is not None
    assert isinstance(div["step"], int)
    assert div["golden"] != div["current"]
    # The lines are the sanitizer tuples rendered readably.
    for line in (div["golden"], div["current"]):
        when, priority, seq, kind, name = line.split("\t")
        assert float(when) >= 0.0
        assert priority in ("0", "1")
        assert int(seq) >= 0
        assert kind


def test_missing_golden_dir_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        check_golden(golden_dir=str(tmp_path))


def test_tampered_golden_reports_divergence(tmp_path):
    """A corrupted pin is reported with the offending first event, and
    so is trace text that no longer matches its (intact) digest."""
    golden_dir = str(tmp_path)
    with open(os.path.join(GOLDEN_DIR, "digests.json")) as fh:
        payload = json.load(fh)
    payload["digests"]["gnndrive-gpu"] = "0" * 64
    with open(os.path.join(golden_dir, "digests.json"), "w") as fh:
        json.dump(payload, fh)
    src = os.path.join(GOLDEN_DIR, _trace_name("gnndrive-gpu"))
    with open(src) as fh:
        lines = fh.read().splitlines()
    lines[5] = lines[5] + "-tampered"
    with open(os.path.join(golden_dir, _trace_name("gnndrive-gpu")),
              "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for system in GOLDEN_SYSTEMS:
        if system == "gnndrive-gpu":
            continue
        with open(os.path.join(GOLDEN_DIR, _trace_name(system))) as fh:
            lines = fh.read().splitlines()
        if system == "serve":
            lines[7] = lines[7] + "-tampered"
        with open(os.path.join(golden_dir, _trace_name(system)), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    mismatches = check_golden(golden_dir=golden_dir)
    assert [m["system"] for m in mismatches] == ["gnndrive-gpu", "serve"]
    m = mismatches[0]
    assert m["divergence"]["step"] == 5
    assert "first divergence at step 5" in m["detail"]
    m = mismatches[1]
    assert m["current_digest"] == m["golden_digest"]
    assert m["divergence"]["step"] == 7
    assert "trace text differs" in m["detail"]
