"""``python -m repro.bench`` — one bench registry and one driver.

Subcommands::

    python -m repro.bench determinism [--systems S ...] [--epochs N]
    python -m repro.bench faults [--systems S ...] [--epochs N] [--plan F]
    python -m repro.bench oracle [--fuzz N] [--fuzz-seed S] [--no-golden]
                                 [--regen]
    python -m repro.bench serve [--smoke] [--rates R ...]
    python -m repro.bench chaos_serve [--smoke]
    python -m repro.bench cluster [--smoke]
    python -m repro.bench races [--smoke]
    python -m repro.bench compare OLD.json NEW.json \\
        [--fail-on-regression] [--threshold PCT] [--alpha A] \\
        [--gate-kinds KIND,...] [--report FILE.md] [--json FILE]

Every bench also takes ``-o/--output`` (default ``BENCH_<name>.json``),
``--runs N`` and ``--quiet``.

Each bench is one :data:`REGISTRY` entry: its help, its own flags, and
the help of its ``--smoke`` sizing when it has one.  Its module
``repro.bench.<name>``, imported only when the subcommand runs, has a
``run(verbose=..., **flags)`` that runs the bench's gates once and
returns four things: the gate artifact (with ``ok``), the measured-phase
cases (``{case: measure(rep) -> {metric: value}}``), their metric specs
and the stats config.  :func:`run_bench` owns everything else: the run
plan (``--runs``, or ``REPRO_BENCH_RUNS`` / ``REPRO_BENCH_WARMUP``),
timing each case call into ``wall_s``, the interleaved measured phase,
the summaries, the ``stats`` block, the artifact file and the exit code
(0 iff ``ok``).  A module may also define ``derive(samples) -> samples``
to rename or combine the raw samples before they are summarised (races
pairs its runs into overhead ratios).  A ``run`` that returns no cases
(``oracle --regen``) measures and writes nothing.

``compare`` diffs two artifacts metric-by-metric with Welch's t-test
and a CI-overlap heuristic (:mod:`repro.bench.stats`).  Under
``--fail-on-regression`` it exits 1 when a metric of a gated kind
regressed or when an OLD metric of a gated kind is missing from NEW.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.bench import stats as bstats

Flag = Tuple[Tuple[str, ...], Dict]


def _flag(*names: str, **kwargs) -> Flag:
    return names, kwargs


@dataclass(frozen=True)
class Bench:
    """One registry entry: the subcommand's help, its own flags as
    ``(names, add_argument kwargs)`` pairs, and the help of its
    ``--smoke`` flag (None when the bench has no smoke sizing)."""

    help: str
    flags: Tuple[Flag, ...] = ()
    smoke: Optional[str] = None


_EPOCHS = _flag("--epochs", type=int, default=2,
                help="epochs per run (default: %(default)s)")

REGISTRY: Dict[str, Bench] = {
    "determinism": Bench(
        "replay systems twice under the sanitizer and diff traces",
        flags=(_flag("--systems", nargs="+",
                     help="systems to replay (default: gnndrive-gpu pyg+ "
                          "ginex)"),
               _EPOCHS)),
    "faults": Bench(
        "chaos-run every system under a deterministic fault plan",
        flags=(_flag("--systems", nargs="+",
                     help="systems to run (default: all five)"),
               _EPOCHS,
               _flag("--plan", help="fault-plan JSON file (default: the "
                                    "built-in chaos plan)"))),
    "oracle": Bench(
        "correctness oracles: matrix + golden traces + scenario fuzz",
        flags=(_flag("--fuzz", type=int, default=50,
                     help="sampled fuzz scenarios (default: %(default)s; "
                          "0 disables the fuzz layer)"),
               _flag("--fuzz-seed", type=int, default=0,
                     help="scenario-sampler seed (default: %(default)s)"),
               _flag("--no-golden", dest="golden", action="store_false",
                     help="skip the golden-digest layer"),
               _flag("--regen", action="store_true",
                     help="rewrite tests/golden/ instead of checking "
                          "(measures and writes nothing)"))),
    "serve": Bench(
        "offered-load sweep over the serving backends",
        flags=(_flag("--rates", nargs="+", type=float,
                     help="offered-load grid override (requests/second)"),),
        smoke="tiny CI sweep: accounting + determinism gates only, no 2x "
              "saturation requirement"),
    "chaos_serve": Bench(
        "replica failure domain under load: lossless accounting, hedging "
        "p99 win, determinism, golden-unchanged",
        smoke="CI sizing: fewer requests, same four gates"),
    "cluster": Bench(
        "sharded serving cluster: determinism, hedged-p99 win, zero-loss "
        "brownout floor under shard_down, golden-unchanged",
        smoke="CI sizing: fewer chaos and measured requests, same four "
              "gates"),
    "races": Bench(
        "static RACE2xx sweep + runtime race/deadlock detection over "
        "every run path",
        smoke="CI sizing: first matrix scenario only"),
}

#: Parsed options the driver consumes; every other one is a bench flag.
_DRIVER_DESTS = ("command", "output", "runs", "quiet")

Case = Callable[[int], Mapping[str, float]]


def measure(cases: Mapping[str, Case],
            specs: Mapping[str, bstats.MetricSpec], plan: bstats.RunPlan,
            derive: Optional[Callable] = None) -> Dict[str, Dict]:
    """The measured phase: time every case call into ``wall_s``, run the
    cases interleaved under *plan*, and summarise each metric."""

    def timed(case: Case) -> Case:
        def run(rep: int) -> Dict[str, float]:
            values, wall = bstats.timed_call(lambda: case(rep))
            return {"wall_s": wall, **values}
        return run

    samples = bstats.interleaved_measure(
        {name: timed(case) for name, case in cases.items()}, plan)
    if derive is not None:
        samples = derive(samples)
    return bstats.summarize_metrics(
        samples, {"wall_s": bstats.WALL_S, **specs}, ci_seed=plan.seed)


def run_bench(name: str, args: argparse.Namespace) -> int:
    """Run bench *name*'s gates, then its measured phase; write the
    artifact with its ``stats`` block and return the exit code."""
    from repro.bench.results_io import save_artifact

    module = importlib.import_module(f"repro.bench.{name}")
    flags = {k: v for k, v in vars(args).items() if k not in _DRIVER_DESTS}
    verbose = not args.quiet
    artifact, cases, specs, config = module.run(verbose=verbose, **flags)
    if cases is not None:
        plan = bstats.RunPlan.from_env(runs=args.runs)
        metrics = measure(cases, specs, plan,
                          getattr(module, "derive", None))
        stamp = {"bench": name}
        if REGISTRY[name].smoke:
            stamp["mode"] = artifact["mode"] = ("smoke" if args.smoke
                                                else "full")
        artifact["stats"] = bstats.build_stats_block(
            metrics, plan, config={**stamp, **config})
        save_artifact(artifact, args.output)
    if verbose:
        print(f"{name} bench: {'ok' if artifact['ok'] else 'FAIL'}")
        if cases is not None:
            print(f"wrote {args.output}")
    return 0 if artifact["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="repro benchmark entry points")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, bench in REGISTRY.items():
        p = sub.add_parser(name, help=bench.help)
        p.add_argument("-o", "--output", default=f"BENCH_{name}.json",
                       help="output JSON path (default: %(default)s)")
        p.add_argument("--runs", type=int, default=None,
                       help="recorded repetitions of the measured phase "
                            "(default: REPRO_BENCH_RUNS or 5; warmup via "
                            "REPRO_BENCH_WARMUP)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the per-run lines")
        if bench.smoke:
            p.add_argument("--smoke", action="store_true", help=bench.smoke)
        for names, kwargs in bench.flags:
            p.add_argument(*names, **kwargs)
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
                    help="exit 1 when any gated metric regressed or is "
                         "missing from NEW")
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        return run_compare(args)
    return run_bench(args.command, args)


def run_compare(args) -> int:
    """``compare`` subcommand: classify OLD -> NEW metric shifts."""
    import json

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
    try:
        report = bstats.compare_artifacts(old_doc, new_doc,
                                          threshold_pct=threshold,
                                          alpha=alpha)
    except ValueError as exc:
        # The message starts with the parameter's name: "threshold
        # must ..." or "alpha must ...".
        print(f"compare: --{exc}", file=sys.stderr)
        return 2
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
    removals = report.removals(gate_kinds)
    if not args.quiet:
        if regressions:
            names = ", ".join(c.name for c in regressions)
            print(f"\ncompare: {len(regressions)} gated regression(s): "
                  f"{names}", file=sys.stderr)
        if removals:
            print(f"compare: {len(removals)} gated metric(s) missing from "
                  f"NEW: {', '.join(removals)}", file=sys.stderr)
    if args.fail_on_regression and (regressions or removals):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
