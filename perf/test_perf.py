"""Tests of the benchmark itself: the tracer only observes, the output
checks bite.  Run from the repository root::

    PYTHONPATH=src python -m pytest perf -q
"""

import json
import sys

import pytest

import checks
import run
import tracer

WORKLOADS = [w["name"] for w in run.load_spec()["workloads"]]


@pytest.fixture(scope="module")
def smoke_rounds():
    """One untraced and one traced smoke-size round per workload."""
    return {w: (run.run_round(w, 0, smoke=True),
                run.run_round(w, 0, trace=True, smoke=True))
            for w in WORKLOADS}


def test_traced_and_untraced_outputs_identical(smoke_rounds):
    for w, (plain, traced) in smoke_rounds.items():
        assert traced["outputs"] == plain["outputs"], w
        assert traced["ops"] == plain["ops"] > 0, w
        assert checks.invariants(plain["outputs"]) == [], w


def test_self_times_sum_to_traced_wall(smoke_rounds):
    for w, (_, traced) in smoke_rounds.items():
        tr = traced["trace"]
        for phase in ("setup", "run"):
            total = sum(rec[2] for rec in tr[phase]["stats"].values())
            assert total == pytest.approx(tr[f"{phase}_wall"], rel=0.01), \
                (w, phase)


def test_every_per_layer_metric_reported(smoke_rounds):
    names = {m["name"] for m in run.load_spec()["per_layer"]}
    for w, (_, traced) in smoke_rounds.items():
        metrics = run.layer_metrics(traced)
        assert names <= set(metrics) | {"trace.overhead"}, w
        assert metrics["simcore.calls"] > 0, w
        if w != "cluster-zipf":
            assert metrics["sampling.sample.calls"] > 0, w
            assert metrics["tensor.fwd.calls"] > 0, w


def _namespaces():
    """Every attribute of every loaded repro module and of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("repro"):
            continue
        for attr, val in vars(mod).items():
            out[(name, attr)] = val
            if isinstance(val, type) and val.__module__ == name:
                for cattr, cval in vars(val).items():
                    out[(name, attr, cattr)] = cval
    return out


def test_every_wrapped_name_restored():
    targets = tracer.all_targets()
    for _, target in targets:
        tracer.resolve(target)              # imports every traced module
    import repro.graph
    import repro.sampling.neighbor as neighbor

    original = repro.graph.make_dataset
    before = _namespaces()
    t = tracer.LayerTracer()
    t.install(targets)
    try:
        assert repro.graph.make_dataset is not original
        assert neighbor.NeighborSampler.sample.__wrapped__ is not None
    finally:
        t.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_loss_tolerance_and_exact_simulated_outputs():
    want = {"epochs": [{"epoch_time": 0.5, "loss": 1.0, "num_batches": 3}]}
    close = {"epochs": [{"epoch_time": 0.5, "loss": 1.019, "num_batches": 3}]}
    far = {"epochs": [{"epoch_time": 0.5, "loss": 1.03, "num_batches": 3}]}
    drift = {"epochs": [{"epoch_time": 0.5000001, "loss": 1.0,
                         "num_batches": 3}]}
    assert checks.mismatches(close, want) == []
    assert len(checks.mismatches(far, want)) == 1
    assert len(checks.mismatches(drift, want)) == 1


def _rounds(*times):
    return [{"windows": [[25, t] for t in ts]} for ts in times]


def test_rate_counts_every_window_once():
    # One round's ops over the sum of each window's fastest time.
    assert run.window_rate(_rounds([0.3, 0.5], [0.4, 0.45])) == \
        pytest.approx(50 / 0.75)
    # Moving time from one window to another leaves the rate unchanged.
    assert run.window_rate(_rounds([0.4, 0.4], [0.5, 0.35])) == \
        pytest.approx(50 / 0.75)
    # A round slowed throughout by the machine does not lower it.
    assert run.window_rate(_rounds([0.3, 0.45], [0.6, 0.9])) == \
        pytest.approx(50 / 0.75)
    with pytest.raises(run.BenchError):
        run.window_rate([{"windows": [[25, 0.3]]},
                         {"windows": [[24, 0.3]]}])


def test_pins_at_other_sizes_refused(tmp_path, monkeypatch):
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps(
        {"serve-async": {"params": {"requests": 1}, "seeds": {"0": {}}}}))
    monkeypatch.setattr(run, "EXPECTED_PATH", expected)
    with pytest.raises(run.BenchError, match="re-pin"):
        run.pinned_outputs("serve-async", 0, {"requests": 2}, smoke=False)
    assert run.pinned_outputs("serve-async", 0, {"requests": 2},
                              smoke=True) is None
    assert run.pinned_outputs("serve-async", 0, {"requests": 1},
                              smoke=False) == {}


def test_committed_pins_fit_full_sizes():
    import workloads

    pins = json.loads(run.COMMITTED_PINS.read_text())
    assert sorted(pins) == sorted(WORKLOADS)
    for w, entry in pins.items():
        assert entry["params"] == workloads.WORKLOADS[w].params(), w
        assert sorted(entry["seeds"]) == [str(s) for s in run.PIN_SEEDS], w


def test_smoke_pins_never_replace_committed_file():
    with pytest.raises(SystemExit):
        run.main(["--pin", "--smoke", "--workload", "serve-async"])


def test_planted_mismatch_fails_every_op(tmp_path, monkeypatch, capsys):
    expected = tmp_path / "expected.json"
    monkeypatch.setattr(run, "EXPECTED_PATH", expected)
    assert run.main(["--pin", "--smoke", "--workload", "serve-async"]) == 0
    pins = json.loads(expected.read_text())
    pins["serve-async"]["seeds"]["0"]["completed"] += 1
    expected.write_text(json.dumps(pins))
    capsys.readouterr()

    rc = run.main(["--smoke", "--workload", "serve-async", "--seconds", "0"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert rc != 0
    assert "pinned: true" in out
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
