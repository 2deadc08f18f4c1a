"""Correctness-oracle bench: matrix + golden pin + scenario fuzz.

``python -m repro.bench oracle`` drives three layers of checking and
writes ``BENCH_oracle.json``:

1. **Matrix** — every scenario in :data:`repro.oracle.DEFAULT_MATRIX`
   runs through the full oracle catalogue (differential relations
   between the five systems, metamorphic monotonicity relations within
   each system).  Zero violations required.
2. **Golden** — the pinned ``golden-tiny`` scenario re-runs and its
   per-system trace digests are diffed against ``tests/golden/``; a
   mismatch reports the first divergent event.  ``--regen`` rewrites
   the golden files instead (after an *intended* behaviour change).
3. **Fuzz** — ``--fuzz N`` scenarios sampled deterministically from the
   configuration space (:func:`repro.oracle.sample_scenarios`), each
   run through the same catalogue.  Same seed => same scenarios, so a
   red artifact is replayable bit-for-bit.

The exit code is non-zero as soon as any layer reports a violation —
this is the CI tripwire for silent simulator-behaviour drift.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.bench import stats as bstats
from repro.oracle import (DEFAULT_MATRIX, GOLDEN_DIR, GOLDEN_SCENARIO,
                          check_golden, check_scenario, golden_digests,
                          regen_golden, sample_scenarios)
from repro.oracle.scenario import Scenario


def _check_many(scenarios: Sequence[Scenario], verbose: bool,
                label: str) -> Dict:
    reports = []
    for sc in scenarios:
        report = check_scenario(sc)
        reports.append(report)
        if verbose:
            mark = "ok" if report["ok"] else "FAIL"
            print(f"{label} {sc.name:<16} {mark}  "
                  f"({len(report['checked'])} oracles, "
                  f"{len(report['skipped'])} n/a)")
            for v in report["violations"]:
                print(f"    {v}")
    return {"scenarios": [r["scenario"] for r in reports],
            "reports": reports,
            "violations": [v for r in reports for v in r["violations"]],
            "ok": all(r["ok"] for r in reports)}


def _check_golden_layer(verbose: bool, golden_dir: str) -> Dict:
    """Golden-digest layer: compare against the committed pin."""
    layer: Dict = {"scenario": GOLDEN_SCENARIO.to_dict()}
    if not golden_digests(golden_dir):
        layer.update(ok=False, mismatches=[],
                     error="no golden digests committed; run "
                           "`python -m repro.bench oracle --regen` and "
                           "commit tests/golden/")
        if verbose:
            print(f"golden: MISSING ({layer['error']})")
        return layer
    mismatches = check_golden(golden_dir)
    layer.update(ok=not mismatches, mismatches=mismatches)
    if verbose:
        if mismatches:
            for m in mismatches:
                print(f"golden {m['system']:<14} FAIL  {m['detail']}")
        else:
            print("golden: all pinned digests match")
    return layer


def _regen(verbose: bool) -> Dict:
    """``--regen``: rewrite ``tests/golden/`` from the pinned scenario."""
    digests = regen_golden()
    if verbose:
        for system, digest in sorted(digests.items()):
            print(f"pinned {system:<14} {digest}")
        print("golden files rewritten under tests/golden/ — "
              "review the diff and commit them with the change")
    return {"ok": True, "digests": digests}


def run(matrix: Sequence[Scenario] = DEFAULT_MATRIX, fuzz: int = 50,
        fuzz_seed: int = 0, golden: bool = True,
        golden_dir: str = GOLDEN_DIR, regen: bool = False,
        verbose: bool = True):
    """Run the three oracle layers once; see module docs.  Returns the
    gate artifact, the measured-phase cases, their specs and the stats
    config; ``regen`` returns no cases.

    The measured phase re-checks the first matrix scenario (a fresh
    runner each pass, so nothing is memoised away) and the golden
    digests.  Violations and oracle counts are deterministic; wall time
    carries the error bars.  Layers that did not run (empty matrix,
    ``golden=False``, missing pins) contribute no cases.
    """
    if regen:
        return _regen(verbose), None, None, None
    artifact: Dict = {"fuzz_seed": fuzz_seed}
    artifact["matrix"] = _check_many(matrix, verbose, "matrix")
    if golden:
        artifact["golden"] = _check_golden_layer(verbose, golden_dir)
    if fuzz > 0:
        artifact["fuzz"] = _check_many(
            sample_scenarios(fuzz, seed=fuzz_seed), verbose, "fuzz")
    artifact["ok"] = all(layer.get("ok", True)
                         for layer in artifact.values()
                         if isinstance(layer, dict))

    cases = {}
    if matrix:
        scenario = matrix[0]

        def measure_scenario(_rep: int) -> Dict[str, float]:
            report = check_scenario(scenario)
            return {"violations": float(len(report["violations"])),
                    "oracles_checked": float(len(report["checked"]))}

        cases[f"matrix:{scenario.name}"] = measure_scenario
    if golden and golden_digests(golden_dir):
        cases["golden"] = lambda _rep: {
            "mismatches": float(len(check_golden(golden_dir)))}
    return (artifact, cases,
            {"violations": bstats.COUNT_BAD,
             "mismatches": bstats.COUNT_BAD,
             "oracles_checked": bstats.COUNT_INFO},
            {"fuzz": fuzz, "fuzz_seed": fuzz_seed,
             "matrix": [sc.name for sc in matrix]})
