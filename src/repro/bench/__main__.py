"""``python -m repro.bench`` — benchmark command-line entry points.

Subcommands::

    python -m repro.bench determinism [-o BENCH_determinism.json]
    python -m repro.bench faults [-o BENCH_faults.json] [--plan plan.json]
    python -m repro.bench oracle [-o BENCH_oracle.json] [--fuzz N] [--regen]
    python -m repro.bench serve [-o BENCH_serve.json] [--smoke]
    python -m repro.bench chaos_serve [-o BENCH_chaos_serve.json] [--smoke]
    python -m repro.bench cluster [-o BENCH_cluster.json] [--smoke]
    python -m repro.bench races [-o BENCH_races.json] [--check]
    python -m repro.bench compare OLD.json NEW.json \
        [--fail-on-regression] [--threshold PCT] [--alpha A] \
        [--gate-kinds KIND,...] [--report FILE.md]

``determinism`` replays every system twice under the runtime
sanitizer and diffs the event traces (see
:mod:`repro.bench.determinism`); ``faults`` chaos-runs every system
under a deterministic fault plan and checks the recovery runtime
survives it (see :mod:`repro.bench.faults`); ``oracle`` checks the
differential/metamorphic oracle catalogue over the scenario matrix,
the pinned golden traces, and a seeded scenario fuzz (see
:mod:`repro.bench.oracle`); ``serve`` sweeps offered load over the two
inference-serving backends and checks the async backend's saturation
advantage plus the SLO-accounting invariants (see
:mod:`repro.bench.serve`); ``chaos_serve`` runs the serving plane under
the replica-chaos plan and checks lossless accounting, the hedged-p99
win, determinism, and that the PR 5 serve golden is untouched (see
:mod:`repro.bench.chaos_serve`); ``cluster`` runs the sharded serving
cluster and checks determinism, the hedged-p99 win on Zipf skew, the
zero-loss brownout floor under ``shard_down`` with replication, and
that the no-cluster goldens are untouched, plus a million-request
scale point in full mode (see
:mod:`repro.bench.cluster`); ``races`` runs the static RACE2xx sweep and
replays every run path over the oracle matrix under the runtime race
detector, requiring zero unwaived conflicts, zero deadlock cycles, and
bit-identical digests with the detector on or off (see
:mod:`repro.bench.races`).  All write a JSON artifact and exit
non-zero on failure.

Every bench runs its measured phase through the repeated-run executor
(:mod:`repro.bench.stats`): ``--runs N`` (or ``REPRO_BENCH_RUNS``)
controls the recorded repetitions, and every artifact carries a
``stats`` block with per-metric mean/stddev/percentiles, bootstrap
confidence intervals and an environment fingerprint.  ``compare``
diffs two such artifacts metric-by-metric with Welch's t-test and a
CI-overlap heuristic, classifying each as improved / unchanged /
regressed; ``--fail-on-regression`` turns that into the CI gate.
"""

from __future__ import annotations

import argparse
import sys


def _add_runs(sub_parser) -> None:
    sub_parser.add_argument(
        "--runs", type=int, default=None,
        help="recorded repetitions of the measured phase (default: "
             "REPRO_BENCH_RUNS or 5; warmup via REPRO_BENCH_WARMUP)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="repro benchmark entry points")
    sub = parser.add_subparsers(dest="command", required=True)
    det = sub.add_parser(
        "determinism",
        help="replay systems twice under the sanitizer and diff traces")
    det.add_argument("-o", "--output", default="BENCH_determinism.json",
                     help="output JSON path (default: %(default)s)")
    det.add_argument("--systems", nargs="+", default=None,
                     help="systems to replay (default: gnndrive-gpu "
                          "pyg+ ginex)")
    det.add_argument("--epochs", type=int, default=2,
                     help="epochs per run (default: %(default)s)")
    det.add_argument("--quiet", action="store_true",
                     help="suppress the per-system table")
    flt = sub.add_parser(
        "faults",
        help="chaos-run every system under a deterministic fault plan")
    flt.add_argument("-o", "--output", default="BENCH_faults.json",
                     help="output JSON path (default: %(default)s)")
    flt.add_argument("--systems", nargs="+", default=None,
                     help="systems to run (default: all five)")
    flt.add_argument("--epochs", type=int, default=2,
                     help="epochs per run (default: %(default)s)")
    flt.add_argument("--plan", default=None,
                     help="fault-plan JSON file (default: the built-in "
                          "chaos plan)")
    flt.add_argument("--quiet", action="store_true",
                     help="suppress the per-system table")
    orc = sub.add_parser(
        "oracle",
        help="correctness oracles: matrix + golden traces + scenario "
             "fuzz (writes BENCH_oracle.json)")
    orc.add_argument("-o", "--output", default="BENCH_oracle.json",
                     help="output JSON path (default: %(default)s)")
    orc.add_argument("--fuzz", type=int, default=50,
                     help="sampled fuzz scenarios (default: %(default)s; "
                          "0 disables the fuzz layer)")
    orc.add_argument("--fuzz-seed", type=int, default=0,
                     help="scenario-sampler seed (default: %(default)s)")
    orc.add_argument("--no-golden", action="store_true",
                     help="skip the golden-digest layer")
    orc.add_argument("--regen", action="store_true",
                     help="rewrite tests/golden/ instead of checking")
    orc.add_argument("--quiet", action="store_true",
                     help="suppress the per-scenario lines")
    srv = sub.add_parser(
        "serve",
        help="offered-load sweep over the serving backends (writes "
             "BENCH_serve.json)")
    srv.add_argument("-o", "--output", default="BENCH_serve.json",
                     help="output JSON path (default: %(default)s)")
    srv.add_argument("--smoke", action="store_true",
                     help="tiny CI sweep: accounting + determinism "
                          "gates only, no 2x saturation requirement")
    srv.add_argument("--rates", nargs="+", type=float, default=None,
                     help="offered-load grid override (requests/second)")
    srv.add_argument("--quiet", action="store_true",
                     help="suppress the per-point lines")
    cs = sub.add_parser(
        "chaos_serve",
        help="replica failure domain under load: lossless accounting, "
             "hedging p99 win, determinism, golden-unchanged (writes "
             "BENCH_chaos_serve.json)")
    cs.add_argument("-o", "--output", default="BENCH_chaos_serve.json",
                    help="output JSON path (default: %(default)s)")
    cs.add_argument("--smoke", action="store_true",
                    help="CI sizing: fewer requests, same four gates")
    cs.add_argument("--quiet", action="store_true",
                    help="suppress the per-run lines")
    cl = sub.add_parser(
        "cluster",
        help="sharded serving cluster: determinism, hedged-p99 win, "
             "zero-loss brownout floor under shard_down, golden-"
             "unchanged (writes BENCH_cluster.json)")
    cl.add_argument("-o", "--output", default="BENCH_cluster.json",
                    help="output JSON path (default: %(default)s)")
    cl.add_argument("--smoke", action="store_true",
                    help="CI sizing: fewer requests, no scale point, "
                         "same four gates")
    cl.add_argument("--quiet", action="store_true",
                    help="suppress the per-run lines")
    rc = sub.add_parser(
        "races",
        help="static RACE2xx sweep + runtime race/deadlock detection "
             "over every run path (writes BENCH_races.json)")
    rc.add_argument("-o", "--output", default="BENCH_races.json",
                    help="output JSON path (default: %(default)s)")
    rc.add_argument("--check", action="store_true",
                    help="CI smoke: first scenario only, one timing run")
    rc.add_argument("--overhead-runs", type=int, default=None,
                    help="timing repetitions for the overhead layer "
                         "(default: REPRO_BENCH_RUNS or 5)")
    rc.add_argument("--quiet", action="store_true",
                    help="suppress the per-run lines")
    for p in (det, flt, orc, srv, cs, cl):
        _add_runs(p)
    cp = sub.add_parser(
        "compare",
        help="statistical OLD-vs-NEW artifact comparison "
             "(Welch's t-test + CI overlap, regression gate)")
    cp.add_argument("old", help="baseline artifact (e.g. the committed "
                                "BENCH_*.json)")
    cp.add_argument("new", help="candidate artifact from a fresh run")
    cp.add_argument("--threshold", type=float, default=None,
                    help="minimum |mean shift| in percent to classify a "
                         "change (default: 5)")
    cp.add_argument("--alpha", type=float, default=None,
                    help="Welch-test significance level (default: 0.05)")
    cp.add_argument("--fail-on-regression", action="store_true",
                    help="exit 1 when any gated metric regressed")
    cp.add_argument("--gate-kinds", default=None,
                    help="comma-separated metric kinds eligible to fail "
                         "the gate (e.g. 'simulated,count' for "
                         "machine-independent CI gating; default: all)")
    cp.add_argument("--report", default=None,
                    help="also write the markdown diff table to FILE")
    cp.add_argument("--json", dest="json_out", default=None,
                    help="also write the full comparison as JSON to FILE")
    cp.add_argument("--quiet", action="store_true",
                    help="suppress the markdown table on stdout")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return run_compare(args)

    if args.command == "determinism":
        from repro.bench.determinism import DEFAULT_SYSTEMS, run_determinism
        artifact = run_determinism(
            systems=tuple(args.systems) if args.systems else DEFAULT_SYSTEMS,
            epochs=args.epochs, output=args.output,
            verbose=not args.quiet, runs=args.runs)
        return 0 if artifact["deterministic"] else 1
    if args.command == "faults":
        from repro.bench.faults import run_faults
        from repro.bench.runner import SYSTEM_NAMES
        from repro.faults import load_plan
        plan = load_plan(args.plan) if args.plan else None
        artifact = run_faults(
            systems=tuple(args.systems) if args.systems else SYSTEM_NAMES,
            plan=plan, epochs=args.epochs, output=args.output,
            verbose=not args.quiet, runs=args.runs)
        return 0 if artifact["completed"] else 1
    if args.command == "oracle":
        from repro.bench.oracle import run_oracle, run_regen
        if args.regen:
            return 0 if run_regen(verbose=not args.quiet)["ok"] else 1
        artifact = run_oracle(fuzz=args.fuzz, fuzz_seed=args.fuzz_seed,
                              golden=not args.no_golden,
                              output=args.output, verbose=not args.quiet,
                              runs=args.runs)
        return 0 if artifact["ok"] else 1
    if args.command == "serve":
        from repro.bench.serve import run_serve_bench
        artifact = run_serve_bench(output=args.output, smoke=args.smoke,
                                   rates=args.rates,
                                   verbose=not args.quiet, runs=args.runs)
        return 0 if artifact["ok"] else 1
    if args.command == "chaos_serve":
        from repro.bench.chaos_serve import run_chaos_serve
        artifact = run_chaos_serve(output=args.output, smoke=args.smoke,
                                   verbose=not args.quiet, runs=args.runs)
        return 0 if artifact["ok"] else 1
    if args.command == "cluster":
        from repro.bench.cluster import run_cluster_bench
        artifact = run_cluster_bench(output=args.output, smoke=args.smoke,
                                     verbose=not args.quiet,
                                     runs=args.runs)
        return 0 if artifact["ok"] else 1
    if args.command == "races":
        from repro.bench.races import run_races
        artifact = run_races(check=args.check,
                             overhead_runs=args.overhead_runs,
                             output=args.output, verbose=not args.quiet)
        return 0 if artifact["ok"] else 1
    return 2


def run_compare(args) -> int:
    """``compare`` subcommand: classify OLD -> NEW metric shifts."""
    import json

    from repro.bench import stats as bstats
    from repro.bench.report import format_comparison_markdown
    from repro.bench.results_io import load_artifact

    try:
        old_doc = load_artifact(args.old)
        new_doc = load_artifact(args.new)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"compare: cannot load artifact: {exc}", file=sys.stderr)
        return 2
    threshold = (bstats.DEFAULT_THRESHOLD_PCT if args.threshold is None
                 else args.threshold)
    alpha = bstats.DEFAULT_ALPHA if args.alpha is None else args.alpha
    report = bstats.compare_artifacts(old_doc, new_doc,
                                      threshold_pct=threshold,
                                      alpha=alpha)
    gate_kinds = None
    if args.gate_kinds:
        gate_kinds = tuple(k.strip() for k in args.gate_kinds.split(",")
                           if k.strip())
    rendered = format_comparison_markdown(report)
    if not args.quiet:
        print(rendered)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(rendered + "\n")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=1, default=str)
            fh.write("\n")
    regressions = report.regressions(gate_kinds)
    if regressions and not args.quiet:
        names = ", ".join(c.name for c in regressions)
        print(f"\ncompare: {len(regressions)} gated regression(s): "
              f"{names}", file=sys.stderr)
    if args.fail_on_regression and regressions:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
