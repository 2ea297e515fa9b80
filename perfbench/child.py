"""One round of a benchmark workload, in a fresh interpreter.

Started by run.py, never imported.  It imports hermgrid, builds the
workload's quadrature rules, runs the round's ops one after another (a
single-client closed loop), checks every value after the timed loop, and
prints one JSON object on stdout.  The clock that ends set-up is
CLOCK_MONOTONIC, shared with the parent, which read it just before starting
this process.

    python3 perfbench/child.py --workload NAME --seed N --round K --trace 0|1
                               [--smoke] [--setup-only]
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import sys
import time
import warnings

import tracing
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _plain(name, fn, *args):
    return fn(*args)


def _environment(hg) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "HERMGRID_THREADS": os.environ.get("HERMGRID_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "hermgrid": hg.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = tracing.Tracer() if args.trace else None
    timed = tracer.call if tracer else _plain
    hg = workloads.load(wl)
    for fn, fn_args in wl.rules(hg.quadrature):
        timed(f"quadrature.{fn.__name__}", fn, *fn_args)
    setup_done = time.monotonic()

    if not os.path.abspath(hg.__file__).startswith(SRC + os.sep):
        print(f"hermgrid was imported from {hg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    warned = collections.Counter()
    warnings.simplefilter("always")
    warnings.showwarning = lambda message, category, *rest: warned.update([category.__name__])

    rnd = wl.build(hg)
    if tracer:
        tracer.instrument()
    failed_types = (hg.HermgridError, workloads.CliExit)
    latencies, values, errors = [], [], []
    loop_start = time.perf_counter()
    for i, op in enumerate(rnd.ops):
        if tracer:
            tracer.op_id = i
        start = time.perf_counter()
        try:
            value, error = op.call(), None
        except failed_types as exc:
            value, error = None, type(exc).__name__
        except Exception as exc:  # an untyped error is a defect: report it, keep going
            value, error = None, "untyped " + type(exc).__name__
        latencies.append(time.perf_counter() - start)
        values.append(value)
        errors.append(error)
    loop_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.op_id = None

    misses = wl.verify(hg, rnd, values, args.round)
    failures = collections.defaultdict(collections.Counter)
    examples = []
    incorrect = 0
    for op, error, miss in zip(rnd.ops, errors, misses):
        if error is None and miss is None:
            continue
        cause = error or "check"
        failures[cause][f"{op.kind} {op.label}"] += 1
        if miss is not None or error.startswith("untyped"):
            incorrect += 1
            if len(examples) < 5:
                examples.append(f"{op.kind} {op.label}: {miss or error}")

    result = {
        "setup_done": setup_done,
        "ops": len(rnd.ops),
        "loop_s": loop_s,
        "latencies_s": latencies,
        "failed": sum(sum(c.values()) for c in failures.values()),
        "incorrect": incorrect,
        "failures": {k: dict(v) for k, v in failures.items()},
        "examples": examples,
        "peak_rss_mb": peak_rss_mb,
        "cli_sha256": {op.label: hashlib.sha256(v.encode()).hexdigest()
                       for op, v in zip(rnd.ops, values) if op.kind == "cli" and v is not None},
        "warnings": dict(warned),
        "inputs": rnd.inputs,
        "env": _environment(hg),
    }
    if tracer:
        result["layers"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
