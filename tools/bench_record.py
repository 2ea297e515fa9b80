"""Record one point of the performance trajectory: BENCH_<YYYY-MM-DD>_<sha7>.json.

    python3 tools/bench_record.py [--seed N] [--smoke]

For each workload in BENCHMARK.json it runs the benchmark's own command
(perfbench/run.py, unchanged) at the file's run_seconds, once with --trace 0
for the end-to-end metrics and once with --trace 1 for the per-layer ones,
and keeps each run's info line.  It times the README table commands, the
lines of README_COMMANDS in .github/workflows/ci.yml, each in fresh
processes (the median of 5 wall times) at the caller's HERMGRID_THREADS.
The host facts go in the same file: nproc, the Python and numpy versions,
HERMGRID_THREADS, the git sha (and whether the tree differs from it) and
the seed.  The file is written at the root of the checkout.

--smoke passes --smoke to every benchmark run, writes the file to a
temporary directory instead, and checks that it holds every field: the
script's self-test.  The standard library alone, so it runs wherever the
benchmark runs.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND_REPEATS = 5


def readme_commands(ci_text: str) -> list[str]:
    """The lines of the README_COMMANDS block in the CI workflow's text."""
    lines = ci_text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip().startswith("README_COMMANDS:"))
    indent = len(lines[start]) - len(lines[start].lstrip())
    commands = []
    for line in lines[start + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        if line.strip() and not line.strip().startswith("#"):
            commands.append(line.strip())
    return commands


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _benchmark_run(bench: dict, workload: str, seed: int, trace: int, smoke: bool) -> dict:
    """One run of the benchmark command: its info line and its result."""
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"trace": trace, "wall_s": time.monotonic() - started, "info": info["info"],
            **{key: result[key] for key in ("correct", "attempted", "failed", "metrics")}}


def _command_times(command: str) -> dict:
    """Wall times of one README command in fresh processes, in ms."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    runs = []
    for _ in range(COMMAND_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-m", "hermgrid.cli", *command.split()], cwd=ROOT, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=True)
        runs.append((time.perf_counter() - started) * 1e3)
    return {"median_ms": statistics.median(runs), "runs_ms": runs}


def record(bench: dict, commands: list[str], seed: int, smoke: bool) -> dict:
    """The trajectory point: benchmark runs, command times and host facts."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    changed = [line for line in _git("status", "--porcelain").splitlines() if "BENCH_" not in line]
    workloads = {}
    for spec in bench["workloads"]:
        runs = [_benchmark_run(bench, spec["name"], seed, trace, smoke) for trace in (0, 1)]
        workloads[spec["name"]] = {"end_to_end": runs[0].pop("metrics"), "per_layer": runs[1].pop("metrics"),
                                   "runs": runs}
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).date().isoformat(),
        "smoke": smoke,
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": numpy_version,
                 "HERMGRID_THREADS": os.environ.get("HERMGRID_THREADS"), "git_sha": _git("rev-parse", "HEAD"),
                 "git_dirty": bool(changed), "seed": seed},
        "run_seconds": bench["run_seconds"],
        "workloads": workloads,
        "commands": {command: _command_times(command) for command in commands},
    }


def problems(rec: dict, bench: dict, commands: list[str]) -> list[str]:
    """Every field of a record that is missing or not a finite number."""
    def number(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)

    found = []
    host = rec.get("host", {})
    for key in ("nproc", "python", "numpy", "HERMGRID_THREADS", "git_sha", "git_dirty", "seed"):
        if key not in host:
            found.append(f"host.{key} missing")
    for spec in bench["workloads"]:
        got = rec.get("workloads", {}).get(spec["name"], {})
        for kind in ("end_to_end", "per_layer"):
            for metric in bench[kind]:
                if not number(got.get(kind, {}).get(metric["name"], {}).get("value")):
                    found.append(f"{spec['name']} {kind} {metric['name']} missing or not finite")
        if [r.get("trace") for r in got.get("runs", [])] != [0, 1] or \
                not all(isinstance(r.get("info"), dict) for r in got["runs"]):
            found.append(f"{spec['name']}: no info line of each run")
    times = rec.get("commands", {})
    if list(times) != commands:
        found.append(f"commands {list(times)} are not the README commands {commands}")
    for command, t in times.items():
        if not (number(t.get("median_ms")) and len(t.get("runs_ms", [])) == COMMAND_REPEATS):
            found.append(f"command {command!r}: no median of {COMMAND_REPEATS} wall times")
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="the benchmark's workload seed (default 1)")
    ap.add_argument("--smoke", action="store_true",
                    help="smoke-size runs into a temporary directory, then check every field")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml"), encoding="utf-8") as fh:
        commands = readme_commands(fh.read())
    rec = record(bench, commands, args.seed, args.smoke)
    name = f"BENCH_{rec['date']}_{rec['host']['git_sha'][:7]}.json"
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch if args.smoke else ROOT, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=1)
            fh.write("\n")
        with open(path, encoding="utf-8") as fh:
            found = problems(json.load(fh), bench, commands)
    for problem in found:
        print(f"error: {problem}", file=sys.stderr)
    if found:
        return 1
    print(f"{name}: {'smoke run, every field present' if args.smoke else 'written, every field present'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
