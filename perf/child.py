"""One benchmark round of one workload, in a fresh process.

Started by ``perf/run.py`` with ``PYTHONPATH`` pointing at the
program's ``src``; prints one JSON record as its last line::

    python3 perf/child.py --workload NAME --seed S [--trace] [--smoke]

``setup_s`` runs from this file's first line, imports included, to the
start of the measured phase; ``windows`` holds the measured phase's
``[ops, seconds]`` windows.  With ``--trace`` the layer tracer is
installed after the imports and before anything is constructed, and the
record carries per-layer accumulations for the setup and measured
phases separately.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports the program)
from tracer import HARNESS, LayerTracer  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    params = w.params(args.smoke)

    tracer = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()

    def phase():
        return tracer.span(HARNESS) if tracer else contextlib.nullcontext()

    try:
        t_setup = time.perf_counter()
        with phase():
            run = workloads.RUNS[w.kind](params, args.seed)
        t_run = time.perf_counter()
        setup_snap = tracer.snapshot() if tracer else None
        with phase():
            windows = run.measure()
        t_end = time.perf_counter()
    finally:
        if tracer:
            tracer.uninstall()

    record = {
        "workload": w.name,
        "seed": args.seed,
        "traced": bool(tracer),
        "params": params,
        "setup_s": t_run - T0,
        "run_s": t_end - t_run,
        "ops": sum(ops for ops, _ in windows),
        "windows": windows,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": run.outputs(),
        "probes": workloads.probes(run),
    }
    if tracer:
        record["trace"] = {
            "setup": setup_snap, "run": tracer.since(setup_snap),
            "setup_wall": t_run - t_setup, "run_wall": t_end - t_run}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
