"""Cluster bench: the sharded serving cluster under load and faults.

``python -m repro.bench cluster`` exercises :mod:`repro.cluster` and
writes ``BENCH_cluster.json``.  Four gates decide the exit code:

1. **Determinism** — re-running the shard-chaos point with the same
   plan and seed yields an identical sanitizer trace digest.
2. **Hedging wins** — on a Zipf-skewed load that saturates the hot
   shard, the hedged run's p99 latency is strictly below the unhedged
   run's at the same seed (mirror reads drain the hot queue onto the
   replica shard).
3. **Brownout floor** — under the ``shard_down`` plan with
   ``replication >= 2``: zero admitted requests are lost (``failed ==
   0``), the stats accounting identity holds, the sanitizer and fault
   ledger are clean, and SLO attainment stays at or above the config's
   stated ``brownout_floor``.
4. **Golden unchanged** — the no-cluster paths are untouched: the
   pinned serve scenario still reproduces ``trace-serve.txt``
   bit-identically, and the pinned cluster scenario matches its own
   golden digest when one exists.

Full mode additionally runs the headline **scale point** — millions of
simulated requests through the 8-shard cluster — and records its SLO
attainment and goodput (informational, not gated: the gates must stay
cheap enough to run everywhere).  ``--smoke`` shrinks the request
counts for CI; all four gates still run.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Optional

from repro.bench import stats as bstats
from repro.bench.results_io import save_artifact
from repro.cluster import (ClusterScenario, cluster_stats_dict,
                           run_cluster_scenario)

#: Hedge A/B base: Zipf skew hot enough to saturate the hot shard, no
#: faults — exactly the regime where hedged mirror reads pay.
HEDGE_BASE = ClusterScenario(
    name="cluster-hedge", dataset="tiny", rate=12000.0,
    num_requests=4000, popularity="zipf", zipf_alpha=1.8, slo=0.5,
    hot_fraction=0.05, cache_fraction=0.01, max_batch=16, seed=7)

#: Brownout base: the built-in shard-chaos plan over a replicated
#: cluster; the outage must redirect, not lose.
CHAOS_BASE = ClusterScenario(
    name="cluster-chaos", dataset="tiny", rate=2000.0,
    num_requests=2000, replication=2, slo=0.2,
    fault_plan="shard-chaos", seed=7)

#: Headline scale point (full mode): millions of simulated requests.
SCALE_BASE = ClusterScenario(
    name="cluster-scale", dataset="tiny", rate=16000.0,
    num_requests=2_000_000, num_shards=8, popularity="zipf",
    zipf_alpha=1.3, slo=0.5, admit_capacity=16384, max_batch=64,
    seed=7)

SMOKE_REQUESTS = 1200
MEASURE_REQUESTS = 20_000

_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))),
    "tests", "golden")


def _cluster_point(scenario: ClusterScenario) -> Dict:
    """One cluster run -> JSON summary with the per-run verdicts."""
    run = run_cluster_scenario(scenario)
    point: Dict = {"name": scenario.name, "hedge": scenario.hedge,
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
    point["stats"] = cluster_stats_dict(s)
    point["lossless"] = bool(accounting_ok and s.failed == 0
                             and not run.findings)
    return point


def _measured_phase(base: ClusterScenario,
                    plan: bstats.RunPlan) -> Dict[str, Dict]:
    """Repeated hedged vs unhedged runs, interleaved in the seeded
    executor order.  The simulated tail latencies and attainment are
    deterministic per seed; wall time is the real measurement."""

    def case(scenario: ClusterScenario):
        def measure(_rep: int) -> Dict[str, float]:
            point, dt = bstats.timed_call(lambda: _cluster_point(scenario))
            out = {"wall_s": dt}
            s = point.get("stats")
            if s is not None:
                out.update(p99_s=s["latency_p99"],
                           attainment=s["slo_attainment"],
                           goodput=s["goodput"],
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
         "attainment": bstats.SIM_RATE, "goodput": bstats.SIM_RATE,
         "completed": bstats.COUNT_INFO, "failed": bstats.COUNT_BAD},
        ci_seed=plan.seed)


def run_cluster_bench(output: Optional[str] = "BENCH_cluster.json",
                      smoke: bool = False,
                      verbose: bool = True,
                      runs: Optional[int] = None) -> Dict:
    """Run the cluster gates and write the artifact.

    *runs* (or ``REPRO_BENCH_RUNS``) sets the measured-phase
    repetitions recorded in the ``stats`` block; the gates run once.
    """
    run_plan = bstats.RunPlan.from_env(runs=runs)
    hedge_base = HEDGE_BASE
    chaos_base = CHAOS_BASE
    measure_base = HEDGE_BASE.with_(num_requests=MEASURE_REQUESTS)
    if smoke:
        # The hedge pair keeps its full request count: the hedged-p99
        # win is a steady-state effect (the unhedged hot-shard queue
        # diverges over time) that a shorter run cannot exhibit.
        chaos_base = chaos_base.with_(num_requests=SMOKE_REQUESTS)
        measure_base = hedge_base

    # Gate 1: same plan, same seed -> identical trace digest (the
    # chaos point, so determinism covers outage + failover too).
    chaos = _cluster_point(chaos_base)
    replay = _cluster_point(chaos_base)
    deterministic = bool(chaos["digest"]
                         and replay["digest"] == chaos["digest"])

    # Gate 2: hedged p99 strictly beats unhedged on the Zipf config.
    hedged = _cluster_point(hedge_base)
    unhedged = _cluster_point(hedge_base.with_(hedge=False))
    hedged_p99 = (hedged.get("stats") or {}).get(
        "latency_p99", float("nan"))
    unhedged_p99 = (unhedged.get("stats") or {}).get(
        "latency_p99", float("nan"))
    hedge_wins = bool(not math.isnan(hedged_p99)
                      and not math.isnan(unhedged_p99)
                      and hedged_p99 < unhedged_p99)

    # Gate 3: brownout floor under shard_down with replication >= 2 —
    # lossless (failed == 0, accounting holds, ledger/sanitizer clean)
    # and attainment at or above the stated floor.
    floor = chaos_base.brownout_floor
    attainment = (chaos.get("stats") or {}).get(
        "slo_attainment", float("nan"))
    brownout_ok = bool(chaos["lossless"]
                       and not math.isnan(attainment)
                       and attainment >= floor)

    # Gate 4: no-cluster paths untouched — the pinned serve scenario
    # still reproduces its golden trace, and the pinned cluster
    # scenario matches its own pinned digest when one exists.
    from repro.oracle.golden import (GOLDEN_CLUSTER_SCENARIO,
                                     GOLDEN_SERVE_SCENARIO,
                                     golden_digests, trace_lines)
    from repro.serve.scenario import run_serve_scenario
    golden_ok, golden_detail = True, {}
    serve_trace = os.path.join(_GOLDEN_DIR, "trace-serve.txt")
    try:
        with open(serve_trace) as fh:
            golden_lines = fh.read().splitlines()
    except OSError as exc:
        golden_ok, golden_lines = False, []
        golden_detail["error"] = f"missing golden trace: {exc}"
    serve_run = run_serve_scenario(GOLDEN_SERVE_SCENARIO)
    serve_match = bool(serve_run.ok and golden_lines
                       and trace_lines(serve_run.trace or []) == golden_lines)
    golden_detail["serve"] = {"status": serve_run.status,
                              "digest": serve_run.digest,
                              "match": serve_match}
    golden_ok = golden_ok and serve_match
    pinned = golden_digests(_GOLDEN_DIR).get("cluster")
    if pinned is not None:
        cluster_run = run_cluster_scenario(GOLDEN_CLUSTER_SCENARIO)
        cluster_match = bool(cluster_run.ok
                             and cluster_run.digest == pinned)
        golden_detail["cluster"] = {"status": cluster_run.status,
                                    "digest": cluster_run.digest,
                                    "pinned": pinned,
                                    "match": cluster_match}
        golden_ok = golden_ok and cluster_match

    # Headline scale point (full mode only; informational).
    scale_point = None
    if not smoke:
        scale_point = _cluster_point(SCALE_BASE)

    ok = bool(deterministic and hedge_wins and brownout_ok and golden_ok)
    artifact = {
        "ok": ok,
        "mode": "smoke" if smoke else "full",
        "hedge_base": hedge_base.to_dict(),
        "chaos_base": chaos_base.to_dict(),
        "chaos": chaos,
        "hedged": hedged,
        "unhedged": unhedged,
        "scale": scale_point,
        "gates": {
            "deterministic": deterministic,
            "hedge_wins": hedge_wins,
            "hedged_p99": hedged_p99,
            "unhedged_p99": unhedged_p99,
            "brownout_ok": brownout_ok,
            "brownout_floor": floor,
            "brownout_attainment": attainment,
            "golden_unchanged": golden_ok,
        },
        "golden": golden_detail,
        "stats": bstats.build_stats_block(
            _measured_phase(measure_base, run_plan), run_plan,
            config={"bench": "cluster",
                    "mode": "smoke" if smoke else "full",
                    "measure_base": measure_base.to_dict()}),
    }
    if verbose:
        for label, p in (("chaos", chaos), ("hedged", hedged),
                         ("unhedged", unhedged)):
            if p["status"] != "ok":
                print(f"{label:<8} {p['status']}: {p.get('error', '')}")
                continue
            s = p["stats"]
            print(f"{label:<8} offered={s['offered']} "
                  f"completed={s['completed']} shed={s['shed']} "
                  f"timeout={s['timed_out']} failed={s['failed']} "
                  f"p99={s['latency_p99'] * 1e3:.2f}ms "
                  f"attain={s['slo_attainment']:.3f} "
                  f"redirects={s['redirects']} "
                  f"mirror_wins={s['mirror_wins']}/{s['mirrors']}")
        if scale_point is not None and scale_point.get("stats"):
            s = scale_point["stats"]
            print(f"scale    offered={s['offered']} "
                  f"goodput={s['goodput']:.0f}/s "
                  f"attain={s['slo_attainment']:.3f} "
                  f"p99={s['latency_p99'] * 1e3:.2f}ms")
        print(f"hedge: p99 {hedged_p99 * 1e3:.2f}ms hedged vs "
              f"{unhedged_p99 * 1e3:.2f}ms unhedged "
              f"-> {'WIN' if hedge_wins else 'FAIL'}")
        print(f"determinism={'ok' if deterministic else 'FAIL'} "
              f"brownout={'ok' if brownout_ok else 'FAIL'} "
              f"(attain {attainment:.3f} >= floor {floor:g}) "
              f"golden={'ok' if golden_ok else 'FAIL'}")
    if output:
        save_artifact(artifact, output)
        if verbose:
            print(f"wrote {output}")
    return artifact
