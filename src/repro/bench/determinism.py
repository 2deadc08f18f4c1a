"""Determinism harness: replay each system and diff the event traces.

``python -m repro.bench determinism`` runs every system under test
twice with identical seeds on a small synthetic graph, each run under a
strict :class:`repro.analysis.SimSanitizer` with full tracing, and then
checks three things per system:

1. **Trace equality** — the SHA-256 digest over every processed event
   (time bits, priority, sequence number, event type, process name)
   must match between the two runs; on mismatch the first divergent
   step is reported with both runs' entries.
2. **Stat equality** — the per-epoch :class:`EpochStats` must be
   identical field-for-field (compared via ``repr`` of their dict
   forms, which is NaN-safe).
3. **Cleanliness** — the sanitizer must finish with zero findings:
   no leaked pinned bytes at any epoch boundary, no scheduling
   anomalies, no ring violations.

Exit status 0 iff every system is deterministic and clean.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Sequence

from repro.bench import stats as bstats
from repro.bench.runner import get_dataset, run_system
from repro.core.base import TrainConfig
from repro.core.stats import mean_epoch_time

#: Systems replayed by default: the paper's system plus the two
#: baselines with the most elaborate runtime state.
DEFAULT_SYSTEMS = ("gnndrive-gpu", "pyg+", "ginex")


def stats_fingerprint(stats) -> List[str]:
    """NaN-safe per-epoch fingerprints (``repr`` maps NaN to ``'nan'``,
    so two NaN losses compare equal, unlike ``==``)."""
    return [repr(asdict(s)) for s in stats]


def check_system(system: str, dataset=None, epochs: int = 2,
                 train_cfg: Optional[TrainConfig] = None,
                 host_gb: float = 32) -> Dict:
    """Run *system* twice under the sanitizer and diff the runs."""
    if dataset is None:
        dataset = get_dataset("tiny")
    train_cfg = train_cfg or TrainConfig()
    runs = []
    for _ in range(2):
        res = run_system(system, dataset, train_cfg=train_cfg,
                         host_gb=host_gb, epochs=epochs, warmup_epochs=0,
                         sanitize=True, sanitize_trace=True,
                         keep_machine=True)
        runs.append(res)
    report: Dict = {"system": system, "epochs": epochs,
                    "status": [r.status for r in runs]}
    if not all(r.ok for r in runs):
        report["deterministic"] = False
        report["clean"] = False
        report["error"] = "; ".join(r.error for r in runs if r.error)
        return report

    sans = [r.machine.sanitizer for r in runs]
    from repro.analysis import SimSanitizer

    digests = [s.trace_digest() for s in sans]
    fingerprints = [stats_fingerprint(r.stats) for r in runs]
    divergence = SimSanitizer.first_divergence(sans[0], sans[1])
    report.update(
        trace_digests=digests,
        trace_equal=digests[0] == digests[1],
        stats_equal=fingerprints[0] == fingerprints[1],
        steps=[s.steps for s in sans],
        tie_report=sans[0].tie_report(),
        findings=[[f.render() for f in s.findings] for s in sans],
    )
    if divergence is not None:
        report["first_divergence"] = divergence
    report["deterministic"] = bool(report["trace_equal"]
                                   and report["stats_equal"])
    report["clean"] = all(s.clean for s in sans)
    return report


def run(systems: Optional[Sequence[str]] = None, epochs: int = 2,
        verbose: bool = True):
    """Replay *systems* (default :data:`DEFAULT_SYSTEMS`); see module
    docs.  Returns the gate artifact, the measured-phase cases (one
    sanitized run per system: wall time varies run to run, the
    simulated epoch time and sanitizer step count must not), their
    specs and the stats config."""
    systems = tuple(systems or DEFAULT_SYSTEMS)
    dataset = get_dataset("tiny")
    reports = [check_system(s, dataset, epochs=epochs) for s in systems]
    ok = all(r["deterministic"] and r["clean"] for r in reports)
    if verbose:
        for r in reports:
            mark = ("ok" if r["deterministic"] and r["clean"]
                    else "FAIL")
            detail = ""
            if "tie_report" in r:
                tie = r["tie_report"]
                detail = (f"  {tie['steps']} events, "
                          f"{tie['tie_pops']} tied pops, "
                          f"digest {r['trace_digests'][0][:16]}…")
            print(f"{r['system']:<14} {mark}{detail}")
            if "first_divergence" in r:
                print(f"  first divergence: {r['first_divergence']}")
            for i, findings in enumerate(r.get("findings", [])):
                for f in findings:
                    print(f"  run {i}: {f}")

    def case(system: str):
        def measure(_rep: int) -> Dict[str, float]:
            res = run_system(system, dataset, train_cfg=TrainConfig(),
                             host_gb=32, epochs=epochs, warmup_epochs=0,
                             sanitize=True, sanitize_trace=True,
                             keep_machine=True)
            if not res.ok:
                return {}
            out = {"epoch_time_s": mean_epoch_time(res.stats,
                                                   skip_first=False)}
            if res.machine.sanitizer is not None:
                out["steps"] = float(res.machine.sanitizer.steps)
            return out
        return measure

    return ({"ok": ok, "systems": reports},
            {system: case(system) for system in systems},
            {"epoch_time_s": bstats.SIM_S, "steps": bstats.COUNT_INFO},
            {"systems": list(systems), "epochs": epochs})
