"""Fresh-process benchmark for hermgrid.

    python3 perfbench/run.py --workload mass-scan|exchange \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each round of the workload runs in
its own fresh interpreter (perfbench/child.py) with HERMGRID_THREADS fixed,
importing hermgrid from ./src.  A run makes --seconds / (nominal round
length) rounds, at least two, so the CLI tables can be compared across
processes; set-up-only processes then top the set-up samples up to three.
Every round runs the same op sequence, and each op's latency is its minimum
over the rounds.  The last stdout line is the result JSON; the line before
it holds the environment, the workload's input properties and the failures
by cause.

With --trace 0 the result carries the end-to-end metrics; with --trace 1 the
rounds run with spans around every traced hermgrid call and the result
carries the per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from tracing import layer_metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# One BLAS thread: on a shared 2-core host two OpenBLAS threads made the
# first exchange element take 660 ms instead of 24 ms.
THREADS = "1"
MIN_ROUNDS = 2
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120.0
WALL_BUDGET_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "share",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # let HERMGRID_THREADS, the package's own knob, set the BLAS pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    env["HERMGRID_THREADS"] = THREADS
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _run_child(args, round_index: int, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(round_index), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {round_index} did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"round {round_index} exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_done"] - spawned
    out["wall_s"] = time.monotonic() - spawned
    return out


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _median_layers(rounds: list[dict]) -> dict[str, float]:
    # per-layer values are per fresh process; take the median over rounds
    out = {}
    for name in layer_metric_units():
        out[name] = statistics.median(r["layers"].get(name, 0) for r in rounds)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small rounds and one set-up probe, for the self-test")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hermgrid", "__init__.py")):
        print(f"error: no hermgrid sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    wanted = MIN_ROUNDS if args.smoke else \
        max(MIN_ROUNDS, round(args.seconds / WORKLOADS[args.workload].round_s))
    started = time.monotonic()
    try:
        rounds = [_run_child(args, 0)]
        while len(rounds) < wanted:
            if time.monotonic() - started + max(r["wall_s"] for r in rounds) > WALL_BUDGET_S:
                if len(rounds) < MIN_ROUNDS:
                    raise BenchError("rounds too long for the wall-time budget")
                break
            rounds.append(_run_child(args, len(rounds)))
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_run_child(args, len(setups), setup_only=True)["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    incorrect = sum(r["incorrect"] for r in rounds)
    failures = collections.defaultdict(collections.Counter)
    for r in rounds:
        for cause, where in r["failures"].items():
            failures[cause].update(where)
    # every CLI table must be byte-identical across the run's processes
    reference = rounds[0]["cli_sha256"]
    for r in rounds[1:]:
        for label, digest in r["cli_sha256"].items():
            if reference.get(label) != digest:
                failed += 1
                incorrect += 1
                failures["check"][f"cli {label} table differs between processes"] += 1

    # host interference only ever adds time, so each op's least latency over
    # the rounds is the estimate of what the program itself costs
    latencies = [min(lat) for lat in zip(*(r["latencies_s"] for r in rounds))]
    ops_per_s = len(latencies) / sum(latencies)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "ops_per_round": rounds[0]["ops"],
        "setup_samples": setups,
        "timed_s": sum(r["loop_s"] for r in rounds),
        "git_commit": _git_commit(),
        "env": rounds[0]["env"],
        "inputs": rounds[0]["inputs"],
        "failed_frac": failed / attempted,
        "failures": failures,
        "incorrect_examples": [e for r in rounds for e in r["examples"]][:5],
        "warnings_per_round": rounds[0]["warnings"],
    }
    print(json.dumps({"info": info}))

    if args.trace:
        values = _median_layers(rounds)
        values["scattering.truncation_warnings"] = statistics.median(
            r["warnings"].get("TruncationWarning", 0) for r in rounds)
        values["trace.ops_per_s"] = ops_per_s
        units = layer_metric_units()
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
