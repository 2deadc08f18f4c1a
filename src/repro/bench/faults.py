"""Chaos bench: run every system under a deterministic fault plan.

``python -m repro.bench faults`` runs each system under test on the
tiny dataset with the default chaos plan (media errors, transient CQE
failures, GC tail-latency episodes, thermal throttling, host-memory
pressure) and a strict sanitizer attached, then checks per system:

1. **Survival** — the run completes its epochs with zero unhandled
   exceptions (status ``ok``; fault-induced OOM/OOT count as failures).
2. **Exercise** — the fault ledger is non-empty: errors were actually
   injected (``injected > 0``) and the recovery paths actually ran
   (``recovered > 0``).  A chaos run that injects nothing proves
   nothing.
3. **Cleanliness** — the sanitizer finishes with zero findings.

The artifact records the plan itself, the final ledger, and the
per-epoch fault counters, so a regression in recovery behaviour shows
up as a diff in ``BENCH_faults.json``.  Everything is deterministic:
same plan + seed => bit-identical ledgers and traces.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.bench import stats as bstats
from repro.bench.runner import SYSTEM_NAMES, get_dataset, run_system
from repro.core.base import TrainConfig
from repro.core.stats import mean_epoch_time
from repro.faults import FaultPlan, default_chaos_plan, load_plan


def check_system_under_faults(system: str, plan: FaultPlan, dataset=None,
                              epochs: int = 2,
                              train_cfg: Optional[TrainConfig] = None,
                              host_gb: float = 32) -> Dict:
    """Run *system* once under *plan*; report survival + ledger."""
    if dataset is None:
        dataset = get_dataset("tiny")
    train_cfg = train_cfg or TrainConfig()
    res = run_system(system, dataset, train_cfg=train_cfg,
                     host_gb=host_gb, epochs=epochs, warmup_epochs=0,
                     sanitize=True, keep_machine=True, fault_plan=plan)
    report: Dict = {"system": system, "epochs": epochs,
                    "status": res.status}
    if not res.ok:
        report.update(survived=False, error=res.error, ledger={})
        return report
    ledger = res.machine.fault_counters()
    san = res.machine.sanitizer
    report.update(
        ledger=ledger,
        epoch_faults=[s.faults for s in res.stats],
        epoch_times=[s.epoch_time for s in res.stats],
        clean=san.clean if san is not None else True,
        findings=[f.render() for f in san.findings] if san else [],
        survived=bool(ledger.get("injected", 0) > 0
                      and ledger.get("recovered", 0) > 0
                      and (san is None or san.clean)),
    )
    return report


def run(systems: Optional[Sequence[str]] = None,
        plan: Optional[str] = None, epochs: int = 2,
        verbose: bool = True):
    """Chaos-run *systems* (default: all five) under the fault plan in
    JSON file *plan* (default: the built-in chaos plan); see module
    docs.  Returns the gate artifact, the measured-phase cases (one
    chaos run per system: ledger counters and simulated epoch time are
    deterministic, so any spread there is itself a red flag the compare
    gate catches), their specs and the stats config."""
    systems = tuple(systems or SYSTEM_NAMES)
    fault_plan = load_plan(plan) if plan else default_chaos_plan()
    dataset = get_dataset("tiny")
    reports = [check_system_under_faults(s, fault_plan, dataset,
                                         epochs=epochs)
               for s in systems]
    ok = all(r["survived"] for r in reports)
    if verbose:
        for r in reports:
            mark = "ok" if r["survived"] else "FAIL"
            led = r.get("ledger", {})
            detail = ""
            if led:
                detail = (f"  injected {led.get('injected', 0)}, "
                          f"retried {led.get('retried', 0)}, "
                          f"recovered {led.get('recovered', 0)}, "
                          f"dropped {led.get('dropped', 0)}")
            print(f"{r['system']:<14} {mark}{detail}")
            if r.get("error"):
                print(f"  error: {r['error']}")
            for f in r.get("findings", []):
                print(f"  finding: {f}")

    def case(system: str):
        def measure(_rep: int) -> Dict[str, float]:
            res = run_system(system, dataset, train_cfg=TrainConfig(),
                             host_gb=32, epochs=epochs, warmup_epochs=0,
                             sanitize=True, keep_machine=True,
                             fault_plan=fault_plan)
            if not res.ok:
                return {}
            ledger = res.machine.fault_counters()
            out = {"epoch_time_s": mean_epoch_time(res.stats,
                                                   skip_first=False)}
            for key in ("injected", "retried", "recovered", "dropped"):
                out[key] = float(ledger.get(key, 0))
            return out
        return measure

    return ({"ok": ok, "plan": fault_plan.to_dict(), "systems": reports},
            {system: case(system) for system in systems},
            {"epoch_time_s": bstats.SIM_S, "injected": bstats.COUNT_INFO,
             "retried": bstats.COUNT_INFO, "recovered": bstats.COUNT_INFO,
             "dropped": bstats.COUNT_BAD},
            {"systems": list(systems), "epochs": epochs,
             "plan": fault_plan.to_dict()})
