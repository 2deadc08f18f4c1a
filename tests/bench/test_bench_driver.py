"""The bench registry and its one driver, end to end through ``main()``.

Every registered bench shares the driver's flags, and the cheap
sizings of five of them run here at one recorded run and no warmup:
exit 0, ``ok: true``, and the same measured-phase metric names as the
committed artifacts.
"""

import json
from pathlib import Path

import pytest

from repro.bench.__main__ import REGISTRY, build_parser
from repro.bench.__main__ import main as bench_main

ROOT = Path(__file__).resolve().parents[2]


def _committed(name):
    with open(ROOT / f"BENCH_{name}.json") as fh:
        return set(json.load(fh)["stats"]["metrics"])


def _names(cases, metrics):
    return {f"{case}.{metric}" for case in cases for metric in metrics}


def test_every_entry_takes_the_shared_flags():
    parser = build_parser()
    for name in REGISTRY:
        args = parser.parse_args([name])
        assert args.output == f"BENCH_{name}.json"
        assert args.runs is None and not args.quiet
        args = parser.parse_args([name, "-o", "x.json", "--runs", "3",
                                  "--quiet"])
        assert (args.output, args.runs, args.quiet) == ("x.json", 3, True)


@pytest.mark.parametrize("argv, expected", [
    (["serve", "--smoke"],
     _names(("async", "sync"), ("wall_s", "p50_s", "p99_s", "throughput",
                                "shed", "timed_out"))),
    (["chaos_serve", "--smoke"], _committed("chaos_serve")),
    (["cluster", "--smoke"], _committed("cluster")),
    (["determinism", "--systems", "pyg+", "--epochs", "1"],
     _names(("pyg+",), ("wall_s", "epoch_time_s", "steps"))),
    (["faults", "--systems", "pyg+", "--epochs", "1"],
     {name for name in _committed("faults") if name.startswith("pyg+.")}),
], ids=["serve", "chaos_serve", "cluster", "determinism", "faults"])
def test_bench_runs_through_main(argv, expected, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_RUNS", "1")
    monkeypatch.setenv("REPRO_BENCH_WARMUP", "0")
    out = tmp_path / "artifact.json"
    assert bench_main(argv + ["-o", str(out), "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    stats = doc["stats"]
    assert set(stats["metrics"]) == expected
    assert stats["run_plan"] == {"runs": 1, "warmup": 0, "seed": 0}
    assert stats["fingerprint"]["config"]["bench"] == argv[0]
    if "--smoke" in argv:
        assert doc["mode"] == stats["fingerprint"]["config"]["mode"] \
            == "smoke"
