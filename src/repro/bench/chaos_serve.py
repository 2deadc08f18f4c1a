"""Chaos-serve bench: the replica failure domain under load.

``python -m repro.bench chaos_serve`` runs the serving plane under the
built-in replica-chaos plan (``replica_crash`` + ``replica_hang`` +
``replica_slow`` episodes, see
:func:`repro.faults.default_replica_chaos_plan`) on both extraction
backends and writes ``BENCH_chaos_serve.json``.  Four gates decide the
exit code:

1. **Zero lost admitted requests** — on both backends, every offered
   request reaches exactly one terminal state
   (``completed + shed + timed_out + failed == offered``, the
   :meth:`~repro.core.stats.ServeStats.check_accounting` identity), the
   sanitizer reports no findings, and the fault ledger balances
   (restarts <= crashes, readmissions <= ejections, hedge wins +
   discards <= hedges, failovers + orphan failures <= orphans).
2. **Hedging wins** — the hedged run's p99 latency beats the unhedged
   run's on the identical plan and seed (tail episodes re-issued to a
   healthy replica instead of waiting out the slow/hung one).
3. **Determinism** — re-running the chaos point with the same plan and
   seed yields an identical sanitizer trace digest.
4. **Golden unchanged** — with no replica faults the resilience plane
   runs only its router and workers, and the pinned serve scenario
   still reproduces its golden digest and ``tests/golden/trace-serve.txt``
   bit-identically, with or without an (empty) fault plan attached.

``--smoke`` shrinks the request counts for CI; all four gates still
run.
"""

from __future__ import annotations

from typing import Dict

from repro.bench import stats as bstats
from repro.bench.serve import hedge_verdict, scenario_point, stats_case
from repro.oracle.golden import GOLDEN_SERVE_SCENARIO, golden_mismatch
from repro.serve.scenario import ServeScenario, run_serve_scenario

#: Chaos base: two replicas under the default replica-chaos plan, open
#: loop at a rate that keeps both replicas busy through the episodes.
CHAOS_BASE = ServeScenario(
    name="chaos-serve", dataset="tiny", host_gb=32.0, rate=400.0,
    num_requests=80, num_replicas=2, slo=0.05,
    fault_plan="replica-chaos", seed=7)
SMOKE_REQUESTS = 40

#: Measured-phase metrics: {metric: ServeStats attribute} and specs.
_MEASURED = {"p99_s": "latency_p99", "completed": "completed",
             "failed": "failed"}
_SPECS = {"p99_s": bstats.SIM_S, "completed": bstats.COUNT_INFO,
          "failed": bstats.COUNT_BAD}


def _chaos_point(scenario: ServeScenario) -> Dict:
    """One chaos run -> its point with the lossless verdict
    (``check_accounting`` includes the terminal-state identity)."""
    point = scenario_point(run_serve_scenario(scenario),
                           backend=scenario.backend, hedge=scenario.hedge)
    point["lossless"] = bool(point["accounting_ok"]
                             and not point["findings"])
    return point


def run(smoke: bool = False, verbose: bool = True):
    """Run the chaos-serve gates; see module docs.  Returns the gate
    artifact, the measured-phase cases (hedged vs unhedged chaos runs),
    their specs and the stats config."""
    base = CHAOS_BASE
    if smoke:
        base = base.with_(num_requests=SMOKE_REQUESTS)

    # Gate 1: zero lost admitted requests on both backends.
    points: Dict[str, Dict] = {}
    for backend in ("async", "sync"):
        points[backend] = _chaos_point(base.with_(backend=backend))
    lossless = all(p["lossless"] for p in points.values())

    # Gate 2: hedged p99 beats unhedged p99 on the same plan/seed.
    unhedged = _chaos_point(base.with_(hedge=False))
    hedged_p99, unhedged_p99, hedge_wins = hedge_verdict(points["async"],
                                                         unhedged)

    # Gate 3: same plan, same seed -> identical trace digest.
    replay = _chaos_point(base)
    deterministic = bool(points["async"]["digest"]
                         and replay["digest"] == points["async"]["digest"])

    # Gate 4: no replica faults -> the golden serve trace, with and
    # without an (empty) plan attached.  None = matches the pin.
    golden = {label: golden_mismatch("serve", run_serve_scenario(scn))
              for label, scn in (("none", GOLDEN_SERVE_SCENARIO),
                                 ("empty", GOLDEN_SERVE_SCENARIO.with_(
                                     fault_plan="empty")))}
    golden_ok = all(m is None for m in golden.values())

    ok = bool(lossless and hedge_wins and deterministic and golden_ok)
    artifact = {
        "ok": ok,
        "scenario_base": base.to_dict(),
        "points": points,
        "unhedged": unhedged,
        "gates": {
            "lossless": lossless,
            "hedge_wins": hedge_wins,
            "hedged_p99": hedged_p99,
            "unhedged_p99": unhedged_p99,
            "deterministic": deterministic,
            "golden_unchanged": golden_ok,
        },
        "golden": golden,
    }
    if verbose:
        for backend, p in points.items():
            if p["status"] != "ok":
                print(f"{backend:<6} {p['status']}: {p.get('error', '')}")
                continue
            s = p["stats"]
            nz = {k: v for k, v in s["faults"].items() if v}
            print(f"{backend:<6} offered={s['offered']} "
                  f"completed={s['completed']} shed={s['shed']} "
                  f"timeout={s['timed_out']} failed={s['failed']} "
                  f"p99={s['latency_p99'] * 1e3:.2f}ms "
                  f"{'lossless' if p['lossless'] else 'LOSSY'}")
            print(f"       ledger: {nz}")
        print(f"hedge: p99 {hedged_p99 * 1e3:.2f}ms hedged vs "
              f"{unhedged_p99 * 1e3:.2f}ms unhedged "
              f"-> {'WIN' if hedge_wins else 'FAIL'}")
        print(f"lossless={'ok' if lossless else 'FAIL'} "
              f"determinism={'ok' if deterministic else 'FAIL'} "
              f"golden={'ok' if golden_ok else 'FAIL'}")
    cases = {"hedged": stats_case(run_serve_scenario, base, _MEASURED),
             "unhedged": stats_case(run_serve_scenario,
                                    base.with_(hedge=False), _MEASURED)}
    return artifact, cases, _SPECS, {"scenario_base": base.to_dict()}
