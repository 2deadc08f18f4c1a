"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the registry (Table 1 mini datasets) with their footprints.
``run``
    Train one system on one dataset and print per-epoch stats.
``compare``
    Run several systems on the same workload and print the comparison.
``experiment``
    Regenerate one paper artifact (fig2..fig14, tab1, tab2; figB1 is
    the Appendix-B storage microbenchmark).
``serve``
    Online inference serving on the simulated disk stack: run one
    serving scenario and print latency/goodput stats.
``cluster``
    The sharded serving cluster: run one cluster scenario (consistent-
    hash routing, scatter-gather fan-out, hedged reads, shard faults)
    and print cluster latency/goodput stats.
``bench``
    Pass-through to ``python -m repro.bench`` (determinism, faults,
    oracle, serve, chaos_serve, cluster, races, compare).
``lint``
    The determinism linter (DET1xx) and static race analysis (RACE2xx)
    over the source tree (also available as ``python -m repro.lint``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.report import format_table
from repro.errors import ConfigError


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="papers100m-mini")
    p.add_argument("--model", default="sage", choices=["sage", "gcn", "gat"])
    p.add_argument("--batch-size", type=int, default=None,
                   help="default: 50 x scale")
    p.add_argument("--scale", type=float, default=0.25,
                   help="dataset scale relative to the registry minis")
    p.add_argument("--host-gb", type=float, default=32,
                   help="paper-scale host memory (scaled automatically)")
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)


def _workload(args):
    from repro.bench.runner import get_dataset
    from repro.core.base import TrainConfig

    ds = get_dataset(args.dataset, scale=args.scale, seed=args.seed)
    bs = (args.batch_size if args.batch_size is not None
          else max(10, int(round(50 * args.scale))))
    cfg = TrainConfig(model_kind=args.model, batch_size=bs, seed=args.seed)
    return ds, cfg


def cmd_datasets(args) -> int:
    from repro.bench.runner import get_dataset
    from repro.graph import DATASET_REGISTRY

    rows = []
    for name in sorted(DATASET_REGISTRY):
        if name == "tiny" and not args.all:
            continue
        ds = get_dataset(name, scale=args.scale)
        r = ds.summary_row()
        rows.append([r["dataset"], r["nodes"], r["edges"], r["dim"],
                     r["classes"], r["topo_mb"], r["feat_mb"],
                     r["total_mb"]])
    print(format_table(
        ["dataset", "#node", "#edge", "dim", "#class", "topo MB",
         "feat MB", "total MB"],
        rows, f"Dataset registry at scale {args.scale}"))
    return 0


def cmd_run(args) -> int:
    from repro.bench.runner import run_system
    from repro.errors import SanitizerError, SimulationError

    ds, cfg = _workload(args)
    plan = None
    if args.faults:
        from repro.faults import load_plan
        plan = load_plan(args.faults)
    try:
        res = run_system(args.system, ds, cfg, host_gb=args.host_gb,
                         epochs=args.epochs, warmup_epochs=0,
                         data_scale=args.scale,
                         eval_every=1 if args.eval else 0,
                         fault_plan=plan,
                         sanitize=args.sanitize,
                         keep_machine=plan is not None or args.sanitize)
    except (SanitizerError, SimulationError) as exc:
        # The machine's sanitizer is strict: any finding (leak, bad
        # schedule, ring violation, structural corruption) raises.
        print(f"{args.system}: sanitizer violation: {exc}")
        return 1
    if not res.ok:
        print(f"{args.system}: {res.status} ({res.error})")
        return 1
    san = res.machine.sanitizer if res.machine is not None else None
    if san is not None and not san.clean:
        for f in san.findings:
            print(f"sanitizer finding: {f.render()}")
        return 1
    rows = []
    for s in res.stats:
        rows.append([s.epoch, s.epoch_time, s.loss, s.val_acc,
                     s.stages.sample, s.stages.extract, s.stages.train])
    print(format_table(
        ["epoch", "time (s)", "loss", "val acc", "sample", "extract",
         "train"],
        rows, f"{args.system} on {ds.name} ({args.model})"))
    if plan is not None:
        ledger = res.machine.fault_counters()
        nonzero = {k: v for k, v in ledger.items() if v}
        print(f"\nfault ledger ({args.faults}):")
        if not nonzero:
            print("  (no faults fired)")
        for key, val in nonzero.items():
            print(f"  {key:<18} {val}")
    if args.markdown:
        from repro.bench.report import markdown_report
        text = markdown_report(
            f"{args.system} on {ds.name} ({args.model})",
            {args.system: res.stats})
        with open(args.markdown, "w") as fh:
            fh.write(text)
        print(f"\nmarkdown report written to {args.markdown}")
    return 0


def cmd_compare(args) -> int:
    from repro.bench.runner import SYSTEM_NAMES, run_system

    ds, cfg = _workload(args)
    systems = args.systems or list(SYSTEM_NAMES)
    rows = []
    base = None
    for system in systems:
        print(f"running {system} ...", file=sys.stderr)
        res = run_system(system, ds, cfg, host_gb=args.host_gb,
                         epochs=args.epochs, warmup_epochs=1,
                         data_scale=args.scale)
        if res.ok:
            if base is None:
                base = res.epoch_time
            rows.append([system, res.epoch_time,
                         f"{res.epoch_time / base:.2f}x"])
        else:
            rows.append([system, res.status, "-"])
    print(format_table(["system", "epoch (s)", "vs first"], rows,
                       f"{ds.name} ({args.model}), host {args.host_gb} GB"))
    return 0


def cmd_experiment(args) -> int:
    from repro.bench.experiments import ALL_EXPERIMENTS
    from repro.bench.runner import FULL, QUICK

    if args.name not in ALL_EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; "
              f"known: {sorted(ALL_EXPERIMENTS)}")
        return 2
    profile = FULL if args.full else QUICK
    result = ALL_EXPERIMENTS[args.name](profile)
    print(result.render())
    if args.output:
        from repro.bench.results_io import save_result
        save_result(result, args.output)
        print(f"\nartifact written to {args.output}")
    return 0


def _fault_preset(command: str, presets, faults) -> Optional[str]:
    """The one fault-plan preset whose flag is set ("none" without
    one), or None after printing why the fault flags conflict."""
    chosen = [name for name, on in presets.items() if on]
    if len(chosen) + (faults is not None) > 1:
        flags = " / ".join(f"--{name}" for name in presets)
        print(f"{command}: pick at most one of {flags} / --faults")
        return None
    return chosen[0] if chosen else "none"


def _request_report(command: str, run, plane_rows, title: str) -> int:
    """Print a serve or cluster run's stats table, the plane's own
    ``plane_rows(stats)`` last, and its fault ledger.

    Returns the exit code: 1 when the run did not complete, left a
    sanitizer finding or breaks the accounting identity, else 0.
    """
    if not run.ok:
        print(f"{command}: {run.status} ({run.error})")
        return 1
    s = run.stats
    print(format_table(["metric", "value"], [
        ["offered", s.offered],
        ["completed", s.completed],
        ["shed", s.shed],
        ["timed out", s.timed_out],
        ["failed", s.failed],
        ["SLO misses", s.slo_miss],
        ["SLO attainment", s.slo_attainment],
        ["throughput (req/s)", s.throughput],
        ["goodput (req/s)", s.goodput],
        ["p50 latency (ms)", s.latency_p50 * 1e3],
        ["p95 latency (ms)", s.latency_p95 * 1e3],
        ["p99 latency (ms)", s.latency_p99 * 1e3],
    ] + plane_rows(s), title))
    nonzero = {k: v for k, v in s.faults.items() if v}
    if nonzero:
        print("\nfault ledger:")
        for key, val in nonzero.items():
            print(f"  {key:<18} {val}")
    rc = 0
    for finding in run.findings:
        print(f"sanitizer finding: {finding}")
        rc = 1
    try:
        s.check_accounting()
    except ValueError as exc:
        print(f"accounting violation: {exc}")
        rc = 1
    return rc


def cmd_serve(args) -> int:
    from repro.serve import ServeScenario, run_serve_scenario

    plan = _fault_preset("serve", {"chaos": args.chaos,
                                   "replica-chaos": args.replica_chaos},
                         args.faults)
    if plan is None:
        return 2
    scenario = ServeScenario(
        name="cli-serve", dataset=args.dataset, dataset_scale=args.scale,
        host_gb=args.host_gb, backend=args.backend, kind=args.kind,
        rate=args.rate, num_requests=args.requests,
        seeds_per_request=args.seeds_per_request, slo=args.slo,
        max_batch_size=args.max_batch_size, max_wait=args.max_wait,
        num_replicas=args.replicas, model_kind=args.model,
        fault_plan=plan, fault_plan_file=args.faults,
        hedge=not args.no_hedge, seed=args.seed)
    return _request_report(
        "serve", run_serve_scenario(scenario),
        lambda s: [["backend", s.backend],
                   ["batches", s.num_batches],
                   ["mean batch size", s.mean_batch_size],
                   ["bytes read", s.bytes_read],
                   ["reused nodes", s.reused_nodes],
                   ["loaded nodes", s.loaded_nodes]],
        f"{scenario.backend} serving on {args.dataset} "
        f"@ {args.rate:g} req/s (SLO {args.slo * 1e3:g} ms)")


def cmd_cluster(args) -> int:
    from repro.cluster import ClusterScenario, run_cluster_scenario

    plan = _fault_preset("cluster", {"shard-chaos": args.shard_chaos},
                         args.faults)
    if plan is None:
        return 2
    scenario = ClusterScenario(
        name="cli-cluster", dataset=args.dataset,
        dataset_scale=args.scale, host_gb=args.host_gb,
        rate=args.rate, num_requests=args.requests,
        seeds_per_request=args.seeds_per_request,
        popularity=args.popularity, zipf_alpha=args.zipf_alpha,
        rate_shape=args.rate_shape, slo=args.slo,
        num_shards=args.shards, replication=args.replication,
        partitions_per_shard=args.partitions_per_shard,
        partition=args.partition, hops=args.hops, fanout=args.fanout,
        hedge=not args.no_hedge, hot_fraction=args.hot_fraction,
        max_batch=args.max_batch, fault_plan=plan,
        fault_plan_file=args.faults, seed=args.seed)
    return _request_report(
        "cluster", run_cluster_scenario(scenario),
        lambda s: [["shards", s.num_shards],
                   ["shard reads", s.reads_total],
                   ["parts served", s.parts_served],
                   ["mean batch size", s.mean_batch_size],
                   ["hot mirrors", s.mirrors],
                   ["mirror wins", s.mirror_wins],
                   ["redirects", s.redirects]],
        f"{args.shards}-shard cluster on {args.dataset} "
        f"@ {args.rate:g} req/s (SLO {args.slo * 1e3:g} ms, "
        f"{args.popularity} popularity)")


def cmd_bench(args) -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main(args.bench_args)


def cmd_lint(args) -> int:
    from repro.analysis.linter import main as lint_main

    return lint_main(args.lint_args)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="GNNDrive reproduction (ICPP 2024) command-line tools")
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="COMMAND")

    p = sub.add_parser(
        "datasets", help="list the dataset registry",
        description="List the registry (Table 1 mini datasets) with "
                    "node/edge counts and on-disk footprints.")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--all", action="store_true", help="include 'tiny'")
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser(
        "run", help="train one system and print per-epoch stats",
        description="Train one system on one dataset and print "
                    "per-epoch time/loss/stage breakdowns; optionally "
                    "under fault injection or the strict sanitizer.")
    p.add_argument("system", choices=["gnndrive-gpu", "gnndrive-cpu",
                                      "pyg+", "ginex", "mariusgnn",
                                      "in-memory"])
    _add_workload_args(p)
    p.add_argument("--eval", action="store_true",
                   help="evaluate validation accuracy every epoch")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="fault-plan JSON file: run under deterministic "
                        "fault injection (see examples/chaos_plan.json)")
    p.add_argument("--sanitize", action="store_true",
                   help="attach the strict runtime sanitizer; any "
                        "finding makes the command exit non-zero")
    p.add_argument("--markdown", default=None, metavar="REPORT.md",
                   help="write a markdown report (per-epoch table plus "
                        "the fault ledger) to this path")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "compare", help="compare systems on one workload",
        description="Run several systems on the same workload and "
                    "print the epoch-time comparison table.")
    _add_workload_args(p)
    p.add_argument("--systems", nargs="+", default=None)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "experiment", help="regenerate a paper artifact",
        description="Regenerate one paper artifact "
                    "(fig2..fig14, tab1, tab2, figB1).")
    p.add_argument("name", help="fig2|fig3|tab1|fig8|...|tab2|figB1")
    p.add_argument("--full", action="store_true",
                   help="full profile (registry-scale minis)")
    p.add_argument("--output", default=None,
                   help="write the result as a JSON artifact")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser(
        "serve", help="online GNN inference serving on the disk stack",
        description="Run one online-inference serving scenario "
                    "(open-loop Poisson or closed-loop clients, "
                    "micro-batching, admission control) and print "
                    "latency/goodput/SLO stats.  Exits non-zero on "
                    "sanitizer findings or accounting violations.")
    p.add_argument("--dataset", default="tiny")
    p.add_argument("--model", default="sage",
                   choices=["sage", "gcn", "gat"])
    p.add_argument("--scale", type=float, default=1.0,
                   help="dataset scale relative to the registry minis")
    p.add_argument("--host-gb", type=float, default=32,
                   help="paper-scale host memory (scaled automatically)")
    p.add_argument("--backend", default="async",
                   choices=["async", "sync"],
                   help="feature-extraction backend (default: async)")
    p.add_argument("--kind", default="poisson",
                   choices=["poisson", "closed"],
                   help="workload: open-loop Poisson or closed-loop "
                        "clients (default: poisson)")
    p.add_argument("--rate", type=float, default=200.0,
                   help="offered load, requests/second (default: 200)")
    p.add_argument("--requests", type=int, default=60,
                   help="number of requests (default: 60)")
    p.add_argument("--seeds-per-request", type=int, default=1)
    p.add_argument("--slo", type=float, default=0.05,
                   help="latency SLO in seconds (default: 0.05)")
    p.add_argument("--max-batch-size", type=int, default=8,
                   help="micro-batcher size cap (default: 8)")
    p.add_argument("--max-wait", type=float, default=1e-3,
                   help="micro-batcher wait cap in seconds "
                        "(default: 1 ms)")
    p.add_argument("--replicas", type=int, default=1,
                   help="model replicas, one per GPU (default: 1)")
    p.add_argument("--chaos", action="store_true",
                   help="run under the built-in chaos fault plan")
    p.add_argument("--replica-chaos", action="store_true",
                   help="run under the built-in replica failure plan "
                        "(crash/hang/slow episodes; arms the "
                        "resilience plane)")
    p.add_argument("--faults", metavar="PLAN.json", default=None,
                   help="run under a FaultPlan loaded from JSON "
                        "(mutually exclusive with --chaos/"
                        "--replica-chaos)")
    p.add_argument("--no-hedge", action="store_true",
                   help="disable hedged requests (armed resilience "
                        "plane only)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "cluster", help="sharded serving cluster on the disk stack",
        description="Run one cluster serving scenario (consistent-hash "
                    "routing over feature-store shards, multi-hop "
                    "scatter-gather fan-out, hedged hot reads, "
                    "shard_down/shard_slow faults) and print cluster "
                    "latency/goodput/SLO stats.  Exits non-zero on "
                    "sanitizer findings or accounting violations.")
    p.add_argument("--dataset", default="tiny")
    p.add_argument("--scale", type=float, default=1.0,
                   help="dataset scale relative to the registry minis")
    p.add_argument("--host-gb", type=float, default=32,
                   help="paper-scale host memory (scaled automatically)")
    p.add_argument("--rate", type=float, default=400.0,
                   help="offered load, requests/second (default: 400)")
    p.add_argument("--requests", type=int, default=200,
                   help="number of requests (default: 200)")
    p.add_argument("--seeds-per-request", type=int, default=1)
    p.add_argument("--popularity", default="zipf",
                   choices=["uniform", "zipf"],
                   help="seed popularity shape (default: zipf)")
    p.add_argument("--zipf-alpha", type=float, default=1.1,
                   help="zipf skew exponent (default: 1.1)")
    p.add_argument("--rate-shape", default="flat",
                   choices=["flat", "diurnal", "flash"],
                   help="arrival-rate shape (default: flat)")
    p.add_argument("--slo", type=float, default=0.05,
                   help="latency SLO in seconds (default: 0.05)")
    p.add_argument("--shards", type=int, default=4,
                   help="feature-store shards (default: 4)")
    p.add_argument("--replication", type=int, default=2,
                   help="copies per partition (default: 2)")
    p.add_argument("--partitions-per-shard", type=int, default=16)
    p.add_argument("--partition", default="hash",
                   choices=["hash", "degree"],
                   help="feature-store partitioner (default: hash)")
    p.add_argument("--hops", type=int, default=2,
                   help="neighborhood hops per request (default: 2)")
    p.add_argument("--fanout", type=int, default=4,
                   help="neighbors per hop (default: 4)")
    p.add_argument("--hot-fraction", type=float, default=0.02,
                   help="hottest pool fraction mirrored when hedging "
                        "(default: 0.02)")
    p.add_argument("--max-batch", type=int, default=32,
                   help="shard micro-batch size cap (default: 32)")
    p.add_argument("--shard-chaos", action="store_true",
                   help="run under the built-in shard failure plan "
                        "(shard_down + shard_slow episodes)")
    p.add_argument("--faults", metavar="PLAN.json", default=None,
                   help="run under a FaultPlan loaded from JSON "
                        "(mutually exclusive with --shard-chaos)")
    p.add_argument("--no-hedge", action="store_true",
                   help="disable hedged mirror reads for hot nodes")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser(
        "bench", help="benchmark suites (python -m repro.bench ...)",
        description="Pass-through to the benchmark entry points: "
                    "determinism, faults, oracle, serve, chaos_serve, "
                    "cluster, races, compare.")
    p.add_argument("bench_args", nargs=argparse.REMAINDER,
                   help="arguments forwarded to python -m repro.bench")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "lint", help="determinism linter (DET101-DET108) and race "
                     "analysis (RACE201-RACE206) over the tree",
        description="Run the determinism linter (DET101-DET108) and "
                    "the static cohort-race analysis (RACE201-RACE206) "
                    "over the source tree; also available as "
                    "python -m repro.lint.")
    p.add_argument("lint_args", nargs=argparse.REMAINDER,
                   help="arguments forwarded to the linter "
                        "(paths, --format, --select, ...)")
    p.set_defaults(fn=cmd_lint)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; a value that fails validation exits 2, as
    argparse's own usage errors do."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"{args.command}: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
