"""Serving bench: offered-load sweeps over both extraction backends.

``python -m repro.bench serve`` sweeps an open-loop Poisson workload
over the async (GNNDrive-style) and sync (PyG+-style) backends on a
memory-contended machine and writes ``BENCH_serve.json`` with the
throughput-latency curve and the *saturation point* per backend — the
highest offered rate whose p99 still meets the SLO with nothing shed or
timed out.  The headline check mirrors the training benches: the async
backend must sustain **>= 2x** the sync baseline's offered load at the
same p99 SLO (ring-depth-64 loads + the warm feature buffer vs.
serialized page faults through a thrashing cache).

Three gates decide the exit code:

1. **Accounting** — every run's counters satisfy
   :meth:`~repro.core.stats.ServeStats.check_accounting` (the CI smoke
   job's SLO-accounting invariant).
2. **Determinism** — re-running one sweep point with the same seed
   yields an identical sanitizer trace digest.
3. **Saturation ratio** (full mode only) — async >= 2x sync.

``--smoke`` runs a tiny two-point sweep (gates 1 and 2 only), sized for
CI.

:func:`scenario_point`, :func:`stats_dict`, :func:`hedge_verdict` and
:func:`stats_case` are shared with the ``chaos_serve`` and ``cluster``
benches: one run of a serve or cluster scenario as a JSON point, its
stats as a dict, the hedged-vs-unhedged p99 verdict, and a
measured-phase case reading stats fields.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.bench import stats as bstats
from repro.serve.scenario import ServeScenario, run_serve_scenario

#: Contended full-bench base: the feature working set overflows the
#: page cache, so the sync path pays serialized faults per request.
FULL_BASE = ServeScenario(
    name="serve-sweep", dataset="papers100m-mini", dataset_scale=0.2,
    host_gb=8.0, rate=25.0, num_requests=80, seeds_per_request=2,
    slo=0.05)
#: Offered-load grid for the full sweep (requests/second).
FULL_RATES = (25.0, 50.0, 100.0, 200.0, 400.0)

#: CI smoke base: everything cached, two points, gates 1 + 2 only.
SMOKE_BASE = ServeScenario(
    name="serve-smoke", dataset="tiny", host_gb=32.0, rate=100.0,
    num_requests=40, slo=0.05)
SMOKE_RATES = (100.0, 300.0)

#: Measured-phase metrics: {metric: ServeStats attribute} and specs.
_MEASURED = {"p50_s": "latency_p50", "p99_s": "latency_p99",
             "throughput": "throughput", "shed": "shed",
             "timed_out": "timed_out"}
_SPECS = {"p50_s": bstats.SIM_S, "p99_s": bstats.SIM_S,
          "throughput": bstats.SIM_RATE, "shed": bstats.COUNT_BAD,
          "timed_out": bstats.COUNT_BAD}


def stats_dict(stats) -> Dict:
    """JSON-safe summary of a :class:`~repro.core.stats.ServeStats` or
    :class:`~repro.cluster.stats.ClusterStats`: every field plus the
    derived ``throughput``, ``goodput``, ``slo_attainment`` and (cluster
    only) ``admitted``."""
    out = dataclasses.asdict(stats)
    for name in ("throughput", "goodput", "slo_attainment", "admitted"):
        if hasattr(stats, name):
            out[name] = getattr(stats, name)
    return out


def scenario_point(run, **labels) -> Dict:
    """One serve or cluster run as a JSON point: *labels*, status,
    digest, sanitizer findings, the stats, and ``accounting_ok`` (the
    run completed and its stats pass ``check_accounting``; ``error``
    says why not)."""
    point: Dict = {**labels, "status": run.status, "digest": run.digest,
                   "findings": list(run.findings), "accounting_ok": run.ok}
    if not run.ok:
        point["error"] = run.error
        return point
    try:
        run.stats.check_accounting()
    except ValueError as exc:
        point.update(accounting_ok=False, error=str(exc))
    point["stats"] = stats_dict(run.stats)
    return point


def hedge_verdict(hedged: Dict, unhedged: Dict) -> Tuple[float, float, bool]:
    """The hedged and unhedged points' p99 (NaN for a failed run) and
    whether hedging strictly won (never against a NaN)."""
    hedged_p99, unhedged_p99 = (
        (p.get("stats") or {}).get("latency_p99", float("nan"))
        for p in (hedged, unhedged))
    return hedged_p99, unhedged_p99, bool(hedged_p99 < unhedged_p99)


def stats_case(run_scenario: Callable, scenario,
               fields: Mapping[str, str]) -> Callable[[int], Dict]:
    """A measured-phase case: run *scenario* and read each metric's
    stats attribute (``{metric: attribute}``) off the completed run."""
    def measure(_rep: int) -> Dict[str, float]:
        run = run_scenario(scenario)
        if not run.ok:
            return {}
        return {name: getattr(run.stats, attr)
                for name, attr in fields.items()}
    return measure


def _sweep_point(base: ServeScenario, backend: str, rate: float) -> Dict:
    point = scenario_point(
        run_serve_scenario(base.with_(backend=backend, rate=rate)),
        backend=backend, rate=rate)
    s = point.get("stats")
    point["meets_slo"] = bool(s and s["latency_p99"] <= s["slo"]
                              and s["shed"] == 0 and s["timed_out"] == 0)
    return point


def saturation_rate(points: Sequence[Dict]) -> float:
    """Highest offered rate whose point met the SLO (0.0 when none)."""
    met = [p["rate"] for p in points if p.get("meets_slo")]
    return max(met) if met else 0.0


def run(smoke: bool = False, rates: Optional[Sequence[float]] = None,
        verbose: bool = True):
    """Run the sweep gates; see module docs.  Returns the gate artifact,
    the measured-phase cases (both backends at the lowest rate), their
    specs and the stats config."""
    base = SMOKE_BASE if smoke else FULL_BASE
    rates = tuple(rates) if rates else (SMOKE_RATES if smoke
                                        else FULL_RATES)
    backends: Dict[str, Dict] = {}
    for backend in ("async", "sync"):
        points = [_sweep_point(base, backend, r) for r in rates]
        backends[backend] = {"points": points,
                             "saturation": saturation_rate(points)}
        if verbose:
            for p in points:
                if p["status"] != "ok":
                    print(f"{backend:<6} rate={p['rate']:<6g} "
                          f"{p['status']}: {p.get('error', '')}")
                    continue
                s = p["stats"]
                mark = "meets" if p["meets_slo"] else "misses"
                print(f"{backend:<6} rate={p['rate']:<6g} "
                      f"p50={s['latency_p50'] * 1e3:6.2f}ms "
                      f"p99={s['latency_p99'] * 1e3:7.2f}ms "
                      f"thr={s['throughput']:6.1f}/s "
                      f"shed={s['shed']:<3d} timeout={s['timed_out']:<3d} "
                      f"{mark} SLO")

    # Gate 2: same scenario, same seed -> identical trace digest.
    det_point = _sweep_point(base, "async", rates[0])
    first = backends["async"]["points"][0]
    deterministic = (det_point["status"] == "ok"
                     and det_point["digest"] == first["digest"]
                     and bool(det_point["digest"]))
    accounting_ok = all(p["accounting_ok"]
                        for b in backends.values() for p in b["points"])
    clean = all(not p["findings"]
                for b in backends.values() for p in b["points"])

    async_sat = backends["async"]["saturation"]
    sync_sat = backends["sync"]["saturation"]
    ratio = async_sat / sync_sat if sync_sat else float("inf")
    ratio_ok = smoke or (async_sat > 0 and async_sat >= 2.0 * sync_sat)
    ok = bool(accounting_ok and deterministic and clean and ratio_ok)

    artifact = {
        "ok": ok,
        "scenario_base": base.to_dict(),
        "rates": list(rates),
        "backends": backends,
        "saturation": {"async": async_sat, "sync": sync_sat,
                       "ratio": ratio},
        "accounting_ok": accounting_ok,
        "deterministic": deterministic,
        "sanitizer_clean": clean,
    }
    if verbose:
        print(f"saturation: async={async_sat:g}/s sync={sync_sat:g}/s "
              f"ratio={ratio:.1f}x"
              + ("" if smoke else " (need >= 2.0x)"))
        print(f"accounting={'ok' if accounting_ok else 'FAIL'} "
              f"determinism={'ok' if deterministic else 'FAIL'} "
              f"sanitizer={'clean' if clean else 'FINDINGS'}")
    cases = {backend: stats_case(run_serve_scenario,
                                 base.with_(backend=backend, rate=rates[0]),
                                 _MEASURED)
             for backend in ("async", "sync")}
    return (artifact, cases, _SPECS,
            {"rates": list(rates), "scenario_base": base.to_dict()})
