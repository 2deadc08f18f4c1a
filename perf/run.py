"""End-to-end wall-clock benchmark of the GNNDrive reproduction.

Run from the repository root::

    python3 perf/run.py [--workload NAME ...] [--seed S] [--seconds N]
                        [--trace [0|1]] [--repeat N] [--json OUT]
                        [--pin] [--smoke]

``BENCHMARK.json`` describes the benchmark to its runner, which calls
``run.py --workload W --seed S --seconds N --trace 0|1``; ``--trace``
alone means ``--trace 1``.

Each workload runs as a series of rounds, one fresh child process
(``perf/child.py``) per round, one round at a time, until ``--seconds``
of wall time are used (at least ``MIN_ROUNDS``).  Every round does the
same fixed work.  ``setup_s`` and ``peak_rss_mb`` are medians over the
rounds; ``ops_per_s`` is a round's ops over the wall time of its
measured windows (epochs, or serve/cluster runs), each window timed by
its fastest round (see :func:`window_rate`).  With ``--trace 1`` an
untraced and a traced round alternate, and the per-layer metrics are
medians over the traced ones.

Prints ``<workload> <metric> <value> <unit>`` per metric, the output
check's verdict, and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits non-zero
when an output check fails.  ``--repeat N`` runs every workload N times
(seeds S..S+N-1, workload order reversed every other time) and prints
each metric's median and quartiles, flagging spreads wider than the
metric's bound.  ``--pin`` rewrites ``perf/expected.json`` from seeds
0, 1 and 2; a full-size run fails when that file pins its workload at
other sizes.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import tracer

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
COMMITTED_PINS = PERF / "expected.json"
EXPECTED_PATH = COMMITTED_PINS
PIN_SEEDS = (0, 1, 2)
MIN_ROUNDS = 3
#: A round that runs this long is hung (rounds take 1-10 s); it is
#: killed and the run fails, well inside a run's 180 s limit.
ROUND_TIMEOUT_S = 100
#: Layers whose spans run during set-up; the rest are reported for the
#: measured phase only.
SETUP_LAYERS = ("graph.build", "machine.build", "system.build")


class BenchError(RuntimeError):
    """A child crashed or hung, or the pins do not fit the run: the run
    cannot be measured or checked."""


def load_spec() -> Dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def run_round(workload: str, seed: int, trace: bool = False,
              smoke: bool = False) -> Dict:
    """One fresh-process round; returns the child's JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(PERF / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] if trace else []
    cmd += ["--smoke"] if smoke else []
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: round exceeded "
                         f"{ROUND_TIMEOUT_S} s and was killed") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} seed {seed}: child exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pins() -> Dict:
    if not EXPECTED_PATH.exists():
        return {}
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def pinned_outputs(workload: str, seed: int, params: Dict,
                   smoke: bool) -> Optional[Dict]:
    """The pinned outputs for (workload, seed), or None if unpinned.

    Pins recorded at other sizes would leave a run with the invariant
    checks alone, so a full-size run refuses them.  Smoke sizes are not
    pinned in the committed file; for a smoke run such pins do not
    apply."""
    entry = load_pins().get(workload)
    if entry is None:
        return None
    if entry["params"] != params:
        if smoke:
            return None
        raise BenchError(f"{EXPECTED_PATH.name} pins {workload} at "
                         f"{entry['params']}, but it runs at {params}; "
                         "re-pin with --pin")
    return entry["seeds"].get(str(seed))


def layer_metrics(rec: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced round (every layer, zeros kept)."""
    tr = rec["trace"]
    out: Dict[str, float] = {}
    for layer in tracer.layer_names():
        phase = tr["setup"] if layer in SETUP_LAYERS else tr["run"]
        calls, _total, self_s = phase["stats"].get(layer, (0, 0.0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
    for name, _ in tracer.COUNTS.values():
        out[name] = tr["run"]["counts"].get(name, 0)
    out.update(rec["probes"])
    return out


def layer_table(traced: List[Dict]) -> List[List]:
    """[layer, phase, calls, self_s, share of that phase's traced wall],
    medians over the traced rounds."""
    rows = []
    for phase in ("setup", "run"):
        wall = statistics.median(r["trace"][f"{phase}_wall"] for r in traced)
        for layer in tracer.layer_names():
            recs = [r["trace"][phase]["stats"].get(layer, (0, 0.0, 0.0))
                    for r in traced]
            self_s = statistics.median(x[2] for x in recs)
            calls = statistics.median(x[0] for x in recs)
            if calls:
                rows.append([layer, phase, calls, self_s, self_s / wall])
    return rows


def window_rate(records: List[Dict]) -> float:
    """A round's ops over the wall time of its measured phase, with each
    window timed by its fastest round.

    Every round repeats the same deterministic work window by window, so
    one window's time differs between rounds only by what else the
    machine was doing, which can only slow it; its fastest round is the
    closest to the program's own time.  Every window counts once, so a
    change that speeds up some windows and slows others shows its net
    effect."""
    windows = [r["windows"] for r in records]
    ops = [n for n, _ in windows[0]]
    if any([n for n, _ in w] != ops for w in windows):
        raise BenchError("rounds split their work into different windows")
    best = [min(w[i][1] for w in windows) for i in range(len(ops))]
    return sum(ops) / sum(best)


def measure(workload: str, seed: int, seconds: float, trace: bool = False,
            smoke: bool = False) -> Dict:
    """Run rounds until *seconds* are used; check and summarise them."""
    rounds: List[Dict] = []
    traced: List[Dict] = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_round(workload, seed, smoke=smoke))
        if trace:
            traced.append(run_round(workload, seed, trace=True, smoke=smoke))
        elapsed = time.perf_counter() - t0
        # Stop when one more round would overrun the budget.
        if len(rounds) >= MIN_ROUNDS \
                and elapsed * (1 + 1 / len(rounds)) > seconds:
            break
    return summarize(workload, seed, rounds, traced, smoke)


def summarize(workload: str, seed: int, rounds: List[Dict],
              traced: List[Dict], smoke: bool) -> Dict:
    pin = pinned_outputs(workload, seed, rounds[0]["params"], smoke)
    ref = pin if pin is not None else rounds[0]["outputs"]
    problems = []
    for i, rec in enumerate(rounds + traced):
        found = (checks.invariants(rec["outputs"])
                 + checks.mismatches(rec["outputs"], ref))
        problems += [f"round {i}: {p}" for p in found]
    ops = sum(r["ops"] for r in rounds + traced)
    res = {
        "workload": workload, "seed": seed, "pinned": pin is not None,
        "rounds": len(rounds), "traced_rounds": len(traced),
        "ops": ops, "ops_failed": ops if problems else 0,
        "problems": problems,
        "e2e": {
            "ops_per_s": window_rate(rounds),
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in rounds),
        },
        "records": rounds + traced,
    }
    if traced:
        layers = [layer_metrics(r) for r in traced]
        res["layers"] = {k: statistics.median(m[k] for m in layers)
                         for k in layers[0]}
        res["layers"]["trace.overhead"] = (window_rate(rounds)
                                           / window_rate(traced) - 1)
        res["layer_table"] = layer_table(traced)
    return res


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------
def blas_info() -> Dict:
    """The loaded OpenBLAS library and its thread count, read-only."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower()})
    if not libs:
        return {"library": None, "threads": None}
    lib = ctypes.CDLL(libs[0])
    threads = None
    if hasattr(lib, "scipy_openblas_get_num_threads64_"):
        fn = lib.scipy_openblas_get_num_threads64_
        fn.argtypes = []
        fn.restype = ctypes.c_int
        threads = fn()
    return {"library": os.path.basename(libs[0]), "threads": threads}


def calibrate() -> float:
    """Wall time of a fixed pure-Python + numpy loop (recorded only, so
    that results from different machines can be normalised later)."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += (i * i) % 7
    rng = np.random.default_rng(0)
    for _ in range(10):
        np.sort(rng.random(200_000))
    return time.perf_counter() - t0


def environment() -> Dict:
    import scipy

    from repro.bench.stats import environment_fingerprint

    # Keep git from reporting a repository that encloses the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    env = environment_fingerprint()
    env.update({
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "calib_s": calibrate(),
    })
    return env


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def report(res: Dict, spec: Dict, trace: bool) -> Dict[str, Dict]:
    """Print one workload's lines; return its contract metrics."""
    w = res["workload"]
    if trace:
        specs, values = spec["per_layer"], res["layers"]
        print(f"{w} traced wall by layer (self time, share of phase wall):")
        for layer, phase, calls, self_s, share in res["layer_table"]:
            print(f"  {layer:<22} {phase:<5} calls={calls:<9g} "
                  f"self={self_s:9.4f} s {100 * share:6.2f} %")
    else:
        specs, values = spec["end_to_end"], res["e2e"]
    for s in specs:
        print(f"{w} {s['name']} {values[s['name']]:.6g} {s['unit']}")
    print(f"{w} ops_failed {res['ops_failed']} op")
    verdict = "ok" if not res["problems"] else "FAILED"
    print(f"{w} check: {verdict} (pinned: {str(res['pinned']).lower()}, "
          f"rounds: {res['rounds']}+{res['traced_rounds']} traced, "
          f"ops: {res['ops']})")
    for p in res["problems"][:20]:
        print(f"  {p}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def quartile_spread(values: List[float]):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def repeat_report(results: List[Dict], spec: Dict) -> None:
    """Median and quartiles per (metric, workload) over the repeats,
    flagging each spread wider than its metric's bound."""
    names = list(dict.fromkeys(r["workload"] for r in results))
    print("repeat summary (median, quartiles, spread as share of median):")
    for w in names:
        runs = [r for r in results if r["workload"] == w]
        for s in spec["end_to_end"]:
            med, q1, q3, spread = quartile_spread(
                [r["e2e"][s["name"]] for r in runs])
            flag = "  FLAG" if spread > s["bound"] else ""
            print(f"  {w} {s['name']} median={med:.6g} q1={q1:.6g} "
                  f"q3={q3:.6g} spread={100 * spread:.2f}% "
                  f"bound={100 * s['bound']:g}%{flag}")
        failed = [r["ops_failed"] for r in runs]
        print(f"  {w} ops_failed values={failed}")


# ----------------------------------------------------------------------
def pin(names: List[str], smoke: bool) -> int:
    pins = load_pins()
    for w in names:
        seeds = {}
        for seed in PIN_SEEDS:
            rec = run_round(w, seed, smoke=smoke)
            bad = checks.invariants(rec["outputs"])
            if bad:
                print(f"{w} seed {seed}: refusing to pin: {bad}")
                return 1
            seeds[str(seed)] = rec["outputs"]
            print(f"{w} seed {seed}: pinned")
        pins[w] = {"params": rec["params"], "seeds": seeds}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro").is_dir() or not SPEC_PATH.exists():
        print(f"perf: needs the program under {SRC} and {SPEC_PATH}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    all_names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description="End-to-end wall-clock benchmark (see perf/README.md)")
    ap.add_argument("--workload", nargs="+", action="extend",
                    choices=all_names, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="wall-time budget per workload (default: "
                         "BENCHMARK.json's run_seconds, %(default)s)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1 or no value: report per-layer "
                                         "metrics from traced rounds")
    ap.add_argument("--repeat", type=int, default=0, metavar="N",
                    help="N untraced runs per workload, seeds S..S+N-1, "
                         "alternating workload order")
    ap.add_argument("--json", default=None, metavar="OUT",
                    help="also write the full result, with the "
                         "environment block, to OUT")
    ap.add_argument("--pin", action="store_true",
                    help="rewrite perf/expected.json from seeds 0, 1, 2")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.repeat == 1 or args.repeat < 0:
        ap.error("--repeat needs at least 2 runs to have quartiles")
    if args.repeat and args.trace:
        ap.error("--repeat measures untraced runs; drop --trace")
    if args.pin and args.smoke and EXPECTED_PATH == COMMITTED_PINS:
        ap.error("--pin --smoke would replace the committed full-size pins")
    names = args.workload or all_names
    if args.pin:
        return pin(names, args.smoke)

    env = environment()
    print(f"env: nproc={env['nproc']} load={env['loadavg_1m']:.2f} "
          f"blas={env['blas']} calib_s={env['calib_s']:.4f} "
          f"commit={env['commit']} dirty={env['dirty']}")
    results: List[Dict] = []
    try:
        for i in range(max(1, args.repeat)):
            order = names if i % 2 == 0 else names[::-1]
            for w in order:
                results.append(measure(w, args.seed + i, args.seconds,
                                       trace=bool(args.trace),
                                       smoke=args.smoke))
    except BenchError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1

    metrics: Dict[str, Dict] = {}
    for res in results:
        own = report(res, spec, bool(args.trace))
        if len(results) == 1:
            metrics = own
        else:
            metrics.update({f"{res['workload']}.{res['seed']}.{k}": v
                            for k, v in own.items()})
    if args.repeat:
        repeat_report(results, spec)
    correct = all(not r["problems"] for r in results)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"env": env, "results": results}, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["ops"] for r in results),
        "failed": sum(r["ops_failed"] for r in results),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
