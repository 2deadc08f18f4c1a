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
   ledger are clean, and SLO attainment stays at or above
   :data:`BROWNOUT_FLOOR`.
4. **Golden unchanged** — the no-cluster paths are untouched: the
   pinned serve and cluster scenarios still reproduce their golden
   digests and trace text (``trace-serve.txt``, ``trace-cluster.txt``)
   bit-identically.

Full mode additionally runs the headline **scale point** — millions of
simulated requests through the 8-shard cluster — and records its SLO
attainment and goodput (informational, not gated: the gates must stay
cheap enough to run everywhere).  ``--smoke`` shrinks the request
counts for CI; all four gates still run.
"""

from __future__ import annotations

from typing import Dict

from repro.bench import stats as bstats
from repro.bench.serve import hedge_verdict, scenario_point, stats_case
from repro.cluster import ClusterScenario, run_cluster_scenario
from repro.oracle.golden import (GOLDEN_CLUSTER_SCENARIO,
                                 GOLDEN_SERVE_SCENARIO, golden_mismatch)
from repro.serve.scenario import run_serve_scenario

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

#: SLO-attainment floor the chaos point must hold through its
#: ``shard_down`` episode (gate 3).
BROWNOUT_FLOOR = 0.7

SMOKE_REQUESTS = 1200
MEASURE_REQUESTS = 20_000

#: Measured-phase metrics: {metric: ClusterStats attribute} and specs.
_MEASURED = {"p99_s": "latency_p99", "attainment": "slo_attainment",
             "goodput": "goodput", "completed": "completed",
             "failed": "failed"}
_SPECS = {"p99_s": bstats.SIM_S, "attainment": bstats.SIM_RATE,
          "goodput": bstats.SIM_RATE, "completed": bstats.COUNT_INFO,
          "failed": bstats.COUNT_BAD}


def _cluster_point(scenario: ClusterScenario) -> Dict:
    """One cluster run -> its point with the lossless verdict."""
    point = scenario_point(run_cluster_scenario(scenario),
                           name=scenario.name, hedge=scenario.hedge)
    point["lossless"] = bool(point["accounting_ok"]
                             and point["stats"]["failed"] == 0
                             and not point["findings"])
    return point


def run(smoke: bool = False, verbose: bool = True):
    """Run the cluster gates; see module docs.  Returns the gate
    artifact, the measured-phase cases (hedged vs unhedged runs of the
    Zipf config), their specs and the stats config."""
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
    hedged_p99, unhedged_p99, hedge_wins = hedge_verdict(hedged, unhedged)

    # Gate 3: brownout floor under shard_down with replication >= 2 —
    # lossless (failed == 0, accounting holds, ledger/sanitizer clean)
    # and attainment at or above the stated floor.
    attainment = (chaos.get("stats") or {}).get(
        "slo_attainment", float("nan"))
    brownout_ok = bool(chaos["lossless"] and attainment >= BROWNOUT_FLOOR)

    # Gate 4: no-cluster paths untouched — the pinned serve and cluster
    # scenarios still match their golden digests and trace text.
    # None = matches the pin.
    golden = {"serve": golden_mismatch(
                  "serve", run_serve_scenario(GOLDEN_SERVE_SCENARIO)),
              "cluster": golden_mismatch(
                  "cluster", run_cluster_scenario(GOLDEN_CLUSTER_SCENARIO))}
    golden_ok = all(m is None for m in golden.values())

    # Headline scale point (full mode only; informational).
    scale_point = None
    if not smoke:
        scale_point = _cluster_point(SCALE_BASE)

    ok = bool(deterministic and hedge_wins and brownout_ok and golden_ok)
    artifact = {
        "ok": ok,
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
            "brownout_floor": BROWNOUT_FLOOR,
            "brownout_attainment": attainment,
            "golden_unchanged": golden_ok,
        },
        "golden": golden,
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
              f"(attain {attainment:.3f} >= floor {BROWNOUT_FLOOR:g}) "
              f"golden={'ok' if golden_ok else 'FAIL'}")
    cases = {"hedged": stats_case(run_cluster_scenario, measure_base,
                                  _MEASURED),
             "unhedged": stats_case(run_cluster_scenario,
                                    measure_base.with_(hedge=False),
                                    _MEASURED)}
    return (artifact, cases, _SPECS,
            {"measure_base": measure_base.to_dict()})
