"""Golden-trace pinning: per-system digests + full traces on disk.

``tests/golden/`` holds, for one pinned scenario, every system's event
trace digest (``digests.json``) and the full event trace as text (one
``trace-<system>.txt`` per system, one event per line).  A tier-1 test
re-runs the pinned scenario and diffs; on mismatch the report names the
first divergent event — the sanitizer's trace tuples make that a
readable "who fired when" line rather than a bare hash inequality.

Regen workflow: after an *intended* behaviour change, run
``repro oracle --regen`` (or ``python -m repro.bench oracle --regen``),
eyeball the diff of ``tests/golden/`` in the commit, and land both
together.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.cluster.scenario import ClusterScenario, run_cluster_scenario
from repro.oracle.scenario import Scenario, ScenarioRunner
from repro.serve.scenario import ServeScenario, run_serve_scenario

#: Repo-relative golden directory (resolved against this file's repo).
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))
GOLDEN_DIR = os.path.join(_REPO_ROOT, "tests", "golden")

#: The pinned scenario: small enough that full traces are committable
#: text files, rich enough to exercise every system's actor pipeline.
GOLDEN_SCENARIO = Scenario(name="golden-tiny", dataset="tiny",
                           host_gb=32.0, epochs=2)

#: The pinned serving scenario (the "serve" golden entry): open-loop
#: Poisson on the async backend, small enough for a committable trace.
GOLDEN_SERVE_SCENARIO = ServeScenario(name="golden-serve", dataset="tiny",
                                      rate=300.0, num_requests=24,
                                      slo=0.05)

#: The pinned cluster scenario (the "cluster" golden entry): a small
#: sharded run with zipf popularity and shard chaos, so the golden
#: covers routing, scatter-gather, hedging and shard failover at once.
GOLDEN_CLUSTER_SCENARIO = ClusterScenario(
    name="golden-cluster", dataset="tiny", rate=800.0, num_requests=120,
    num_shards=3, replication=2, partitions_per_shard=8, slo=0.1,
    popularity="zipf", hot_fraction=0.1, fault_plan="shard-chaos")

#: Systems pinned: the five paper systems, the data-parallel wrapper,
#: the serving plane ("serve" replays GOLDEN_SERVE_SCENARIO) and the
#: cluster plane ("cluster" replays GOLDEN_CLUSTER_SCENARIO).
GOLDEN_SYSTEMS = ("gnndrive-gpu", "gnndrive-cpu", "multigpu", "pyg+",
                  "ginex", "mariusgnn", "serve", "cluster")

#: multigpu is pinned at two workers so the golden actually covers the
#: data-parallel path (one worker is the single-GPU system bit-for-bit).
_NUM_WORKERS = {"multigpu": 2}


def trace_lines(trace: List[Tuple]) -> List[str]:
    """Render sanitizer trace tuples as stable text lines.

    ``float(when)`` renders a NumPy scalar time like the Python float
    the digest packs, so the text cannot drift from its digest."""
    return [f"{float(when)!r}\t{priority}\t{seq}\t{kind}\t{name}"
            for when, priority, seq, kind, name in trace]


def _run_all(scenario: Scenario) -> Dict[str, object]:
    runner = ScenarioRunner(scenario)
    runs = {}
    for system in GOLDEN_SYSTEMS:
        if system == "serve":
            # ServeRun / ClusterRun duck-type the SystemRun fields used
            # here (.ok, .digest, .trace, .error).
            runs[system] = run_serve_scenario(GOLDEN_SERVE_SCENARIO)
        elif system == "cluster":
            runs[system] = run_cluster_scenario(GOLDEN_CLUSTER_SCENARIO)
        else:
            runs[system] = runner.run(
                system, num_workers=_NUM_WORKERS.get(system, 1))
    return runs


def golden_digests(golden_dir: str = GOLDEN_DIR) -> Dict[str, str]:
    """The pinned {system: digest} map ({} when never regenerated)."""
    path = os.path.join(golden_dir, "digests.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)["digests"]


def regen_golden(golden_dir: str = GOLDEN_DIR) -> Dict[str, str]:
    """Re-run the pinned scenario and overwrite the golden files."""
    os.makedirs(golden_dir, exist_ok=True)
    runs = _run_all(GOLDEN_SCENARIO)
    digests = {}
    for system, run in runs.items():
        if not run.ok:
            raise RuntimeError(
                f"golden regen: {system} did not complete: {run.error}")
        digests[system] = run.digest
        with open(os.path.join(golden_dir, _trace_name(system)), "w") as f:
            f.write("\n".join(trace_lines(run.trace)) + "\n")
    with open(os.path.join(golden_dir, "digests.json"), "w") as f:
        json.dump({"scenario": GOLDEN_SCENARIO.to_dict(),
                   "serve_scenario": GOLDEN_SERVE_SCENARIO.to_dict(),
                   "cluster_scenario": GOLDEN_CLUSTER_SCENARIO.to_dict(),
                   "digests": digests}, f, indent=2, sort_keys=True)
        f.write("\n")
    return digests


def _trace_name(system: str) -> str:
    return f"trace-{system.replace('+', 'plus')}.txt"


def first_divergence_vs_golden(system: str, trace: List[Tuple],
                               golden_dir: str = GOLDEN_DIR
                               ) -> Optional[Dict[str, object]]:
    """First event where *trace* departs from the pinned trace.

    Returns None when identical (or no golden trace exists); otherwise
    ``{"step": i, "golden": line_or_None, "current": line_or_None}``.
    """
    path = os.path.join(golden_dir, _trace_name(system))
    if not os.path.exists(path):
        return None
    with open(path) as f:
        golden_lines = f.read().splitlines()
    current_lines = trace_lines(trace)
    for i, (g, c) in enumerate(zip(golden_lines, current_lines)):
        if g != c:
            return {"step": i, "golden": g, "current": c}
    if len(golden_lines) != len(current_lines):
        i = min(len(golden_lines), len(current_lines))
        return {"step": i,
                "golden": golden_lines[i] if i < len(golden_lines) else None,
                "current": current_lines[i] if i < len(current_lines) else None}
    return None


def check_golden(golden_dir: str = GOLDEN_DIR) -> List[Dict[str, object]]:
    """Re-run the pinned scenario and diff against the golden files.

    Returns one mismatch record per diverging system: the pinned and
    current digests plus the first divergent event (when the golden
    trace file is present).  A system whose digest matches but whose
    committed trace text differs is reported too, so the text always
    locates the real first divergence.  Empty list = everything matches.
    """
    pinned = golden_digests(golden_dir)
    if not pinned:
        raise FileNotFoundError(
            f"no golden digests under {golden_dir}; run "
            f"`repro oracle --regen` once and commit the result")
    runs = _run_all(GOLDEN_SCENARIO)
    mismatches: List[Dict[str, object]] = []
    for system, run in runs.items():
        want = pinned.get(system)
        if want is None:
            mismatches.append({"system": system, "golden_digest": None,
                               "current_digest": run.digest,
                               "divergence": None,
                               "detail": "system not pinned; regen"})
            continue
        if not run.ok:
            mismatches.append({"system": system, "golden_digest": want,
                               "current_digest": None, "divergence": None,
                               "detail": f"run failed: {run.error}"})
            continue
        div = first_divergence_vs_golden(system, run.trace, golden_dir)
        if run.digest == want and div is None:
            continue
        detail = ("trace digest changed" if run.digest != want else
                  "digest matches but the committed trace text differs")
        if div is not None:
            detail += (f"; first divergence at step {div['step']}: "
                       f"golden={div['golden']!r} "
                       f"current={div['current']!r}")
        mismatches.append({"system": system, "golden_digest": want,
                           "current_digest": run.digest,
                           "divergence": div, "detail": detail})
    return mismatches
