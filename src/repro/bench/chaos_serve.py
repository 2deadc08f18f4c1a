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
   still reproduces ``tests/golden/trace-serve.txt`` bit-identically,
   with or without an (empty) fault plan attached.

``--smoke`` shrinks the request counts for CI; all four gates still
run.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Optional

from repro.bench import stats as bstats
from repro.bench.results_io import save_artifact
from repro.bench.serve import serve_stats_dict
from repro.serve.scenario import ServeScenario, run_serve_scenario

#: Chaos base: two replicas under the default replica-chaos plan, open
#: loop at a rate that keeps both replicas busy through the episodes.
CHAOS_BASE = ServeScenario(
    name="chaos-serve", dataset="tiny", host_gb=32.0, rate=400.0,
    num_requests=80, num_replicas=2, slo=0.05,
    fault_plan="replica-chaos", seed=7)
SMOKE_REQUESTS = 40

_GOLDEN_TRACE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))),
    "tests", "golden", "trace-serve.txt")


def _chaos_point(scenario: ServeScenario) -> Dict:
    """One chaos run -> JSON summary with the per-run gate verdicts."""
    run = run_serve_scenario(scenario)
    point: Dict = {"backend": scenario.backend, "hedge": scenario.hedge,
                   "status": run.status, "digest": run.digest,
                   "findings": list(run.findings)}
    if not run.ok:
        point["error"] = run.error
        point["lossless"] = False
        return point
    s = run.stats
    accounting_ok = True
    try:
        s.check_accounting()
    except ValueError as exc:
        accounting_ok = False
        point["error"] = str(exc)
    point["stats"] = serve_stats_dict(s)
    terminal = s.completed + s.shed + s.timed_out + s.failed
    point["lossless"] = bool(accounting_ok and terminal == s.offered
                             and not run.findings)
    return point


def _measured_phase(base: ServeScenario,
                    plan: bstats.RunPlan) -> Dict[str, Dict]:
    """Repeated hedged vs unhedged chaos runs, interleaved in the
    seeded executor order.  The simulated tail latencies and terminal
    counters are deterministic per plan + seed; wall time is the real
    measurement."""

    def case(scenario: ServeScenario):
        def measure(_rep: int) -> Dict[str, float]:
            point, dt = bstats.timed_call(lambda: _chaos_point(scenario))
            out = {"wall_s": dt}
            s = point.get("stats")
            if s is not None:
                out.update(p99_s=s["latency_p99"],
                           completed=float(s["completed"]),
                           failed=float(s["failed"]))
            return out
        return measure

    samples = bstats.interleaved_measure(
        {"hedged": case(base), "unhedged": case(base.with_(hedge=False))},
        plan)
    return bstats.summarize_metrics(
        samples,
        {"wall_s": bstats.WALL_S, "p99_s": bstats.SIM_S,
         "completed": bstats.COUNT_INFO, "failed": bstats.COUNT_BAD},
        ci_seed=plan.seed)


def run_chaos_serve(output: Optional[str] = "BENCH_chaos_serve.json",
                    smoke: bool = False,
                    verbose: bool = True,
                    runs: Optional[int] = None) -> Dict:
    """Run the chaos-serve gates and write the artifact.

    *runs* (or ``REPRO_BENCH_RUNS``) sets the measured-phase
    repetitions recorded in the ``stats`` block; the gates run once.
    """
    run_plan = bstats.RunPlan.from_env(runs=runs)
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
    hedged_p99 = (points["async"].get("stats") or {}).get(
        "latency_p99", float("nan"))
    unhedged_p99 = (unhedged.get("stats") or {}).get(
        "latency_p99", float("nan"))
    hedge_wins = bool(not math.isnan(hedged_p99)
                      and not math.isnan(unhedged_p99)
                      and hedged_p99 < unhedged_p99)

    # Gate 3: same plan, same seed -> identical trace digest.
    replay = _chaos_point(base)
    deterministic = bool(points["async"]["digest"]
                         and replay["digest"] == points["async"]["digest"])

    # Gate 4: no replica faults -> the golden serve trace, with and
    # without an (empty) plan attached.
    from repro.oracle.golden import GOLDEN_SERVE_SCENARIO, trace_lines
    golden_ok, golden_detail = True, {}
    try:
        with open(_GOLDEN_TRACE) as fh:
            golden_lines = fh.read().splitlines()
    except OSError as exc:
        golden_ok, golden_lines = False, []
        golden_detail["error"] = f"missing golden trace: {exc}"
    for label, scn in (("none", GOLDEN_SERVE_SCENARIO),
                       ("empty", GOLDEN_SERVE_SCENARIO.with_(
                           fault_plan="empty"))):
        run = run_serve_scenario(scn)
        match = bool(run.ok and golden_lines
                     and trace_lines(run.trace or []) == golden_lines)
        golden_detail[label] = {"status": run.status,
                                "digest": run.digest, "match": match}
        golden_ok = golden_ok and match

    ok = bool(lossless and hedge_wins and deterministic and golden_ok)
    artifact = {
        "ok": ok,
        "mode": "smoke" if smoke else "full",
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
        "golden": golden_detail,
        "stats": bstats.build_stats_block(
            _measured_phase(base, run_plan), run_plan,
            config={"bench": "chaos_serve",
                    "mode": "smoke" if smoke else "full",
                    "scenario_base": base.to_dict()}),
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
    if output:
        save_artifact(artifact, output)
        if verbose:
            print(f"wrote {output}")
    return artifact
