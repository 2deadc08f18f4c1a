"""Race & deadlock bench: static sweep + dynamic matrix + overhead.

``python -m repro.bench races`` drives three layers of checking and
writes ``BENCH_races.json``:

1. **Static** — the interprocedural RACE2xx analysis
   (:mod:`repro.analysis.races`) sweeps ``src/repro``; zero *active*
   findings required (every shared-state conflict is either fixed or
   carries a justified ``# sim-race: ordered -- why`` annotation, whose
   count is recorded).
2. **Dynamic** — every run path (the five training systems plus
   ``in-memory`` and ``multigpu``, plus the inference server) executes
   over the oracle scenario matrix with the runtime
   :class:`repro.analysis.RaceDetector` armed.  Zero unwaived
   intra-cohort conflicts and zero wait-for deadlock cycles required.
   Each system also re-runs with the detector *disarmed* and the two
   sanitizer trace digests must match bit-for-bit — the detector is an
   observer, never a participant.
3. **Overhead** — the measured phase times a representative run with
   the detector on vs. off and records both wall times and their
   run-for-run ratio in the ``stats`` block (not gated: per-method
   recording is expected to cost real time).

``--smoke`` is the CI sizing: the first matrix scenario only.  Exit
non-zero on any gate failure.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence

from repro.bench import stats as bstats
from repro.bench.runner import EXTRA_SYSTEMS, SYSTEM_NAMES, get_dataset, \
    run_system
from repro.oracle.scenario import DEFAULT_MATRIX, Scenario, ScenarioRunner

#: All training-side run paths exercised by the dynamic layer; the
#: inference server is the seventh path (handled separately — it has
#: its own scenario type).
ALL_SYSTEMS = SYSTEM_NAMES + EXTRA_SYSTEMS


def _static_layer(verbose: bool) -> Dict:
    """RACE2xx static sweep over the shipped source tree."""
    from repro.analysis.races import analyze_paths

    src = Path(__file__).resolve().parent.parent  # src/repro
    active = analyze_paths([src])
    suppressed = analyze_paths([src], keep_suppressed=True)
    annotated = sum(1 for f in suppressed if f.suppressed)
    layer = {
        "active_findings": [f.render() for f in active],
        "annotated_findings": annotated,
        "ok": not active,
    }
    if verbose:
        mark = "ok" if layer["ok"] else "FAIL"
        print(f"static  src/repro {mark}  "
              f"({len(active)} active, {annotated} annotated)")
        for line in layer["active_findings"]:
            print(f"    {line}")
    return layer


def _run_entry(on, off, system: str, scenario: str,
               verbose: bool) -> Dict:
    """One run path with the detector armed (*on*) and disarmed
    (*off*): the race report, and whether the digests match."""
    rr = on.race_report or {}
    entry = {
        "system": system,
        "status": on.status,
        "unwaived": rr.get("unwaived", 0),
        "conflicts": rr.get("conflicts", 0),
        "waived": rr.get("waived", {}),
        "deadlock_groups": rr.get("deadlock_groups", []),
        "accesses_recorded": rr.get("accesses_recorded", 0),
        "scenario": scenario,
        "digest_equal": on.digest == off.digest,
    }
    entry["ok"] = (entry["unwaived"] == 0 and not entry["deadlock_groups"]
                   and entry["digest_equal"])
    if verbose:
        mark = "ok" if entry["ok"] else "FAIL"
        print(f"dynamic {scenario:<14} {system:<13} {on.status:<4} {mark}  "
              f"(unwaived={entry['unwaived']}, "
              f"conflicts={entry['conflicts']}, "
              f"deadlocks={len(entry['deadlock_groups'])}, "
              f"digest={'=' if entry['digest_equal'] else '!='})")
    return entry


def _dynamic_layer(matrix: Sequence[Scenario], verbose: bool) -> Dict:
    """Armed runs over the matrix + digest equality vs. disarmed runs."""
    runs = []
    for sc in matrix:
        runner = ScenarioRunner(sc)
        for system in ALL_SYSTEMS:
            kw = {"num_workers": 2} if system == "multigpu" else {}
            runs.append(_run_entry(runner.run(system, races=True, **kw),
                                   runner.run(system, races=False, **kw),
                                   system, sc.name, verbose))
    return {"runs": runs, "ok": all(entry["ok"] for entry in runs)}


def _serve_layer(verbose: bool) -> Dict:
    """The seventh run path: the inference server under the detector."""
    from repro.serve.scenario import ServeScenario, run_serve_scenario

    sc = ServeScenario(name="races-smoke")
    entry = _run_entry(run_serve_scenario(sc, races=True),
                       run_serve_scenario(sc), "serve", sc.name, verbose)
    return {"runs": [entry], "ok": entry["ok"]}


def derive(samples: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """The overhead metrics from the raw measured-phase samples: both
    wall times, and armed/disarmed runs paired run-for-run into
    per-run overhead ratios."""
    base, armed = samples["baseline.wall_s"], samples["sanitized.wall_s"]
    return {"baseline_wall_s": base, "sanitized_wall_s": armed,
            "overhead_ratio": [a / b for a, b in zip(armed, base)]}


def run(matrix: Sequence[Scenario] = DEFAULT_MATRIX, smoke: bool = False,
        verbose: bool = True):
    """Run the static, dynamic and serve layers once; see module docs.
    Returns the gate artifact, the measured-phase cases (the first
    scenario on gnndrive-gpu with the detector disarmed and armed),
    their specs and the stats config; :func:`derive` turns the samples
    into the overhead metrics."""
    if smoke:
        matrix = matrix[:1]
    artifact: Dict = {"static": _static_layer(verbose),
                      "dynamic": _dynamic_layer(matrix, verbose),
                      "serve": _serve_layer(verbose)}
    artifact["ok"] = all(layer["ok"] for layer in artifact.values())
    scenario = matrix[0]
    dataset = get_dataset(scenario.dataset, scale=scenario.dataset_scale,
                          seed=scenario.seed)

    def case(races: bool):
        def measure(_rep: int) -> Dict[str, float]:
            run_system("gnndrive-gpu", dataset, scenario.train_config(),
                       epochs=scenario.epochs, warmup_epochs=0,
                       machine_spec=scenario.machine_spec(races=races))
            return {}
        return measure

    return (artifact,
            {"baseline": case(False), "sanitized": case(True)},
            {"baseline_wall_s": bstats.WALL_S,
             "sanitized_wall_s": bstats.WALL_S,
             "overhead_ratio": bstats.RATIO_DOWN},
            {"scenario": scenario.name,
             "systems": list(ALL_SYSTEMS) + ["serve"]})
