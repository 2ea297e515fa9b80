"""Self-test of the benchmark: a small-size run of every workload, untraced
and traced, whose result must match the schema and metric names declared in
BENCHMARK.json; then a run from a directory without the hermgrid sources,
which must fail without printing a result.

    python3 perfbench/selftest.py        # from the repository root, ~1 min
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV_KEYS = {"python", "numpy", "scipy", "blas", "blas_threads", "HERMGRID_THREADS", "nproc"}


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_result(spec: dict, workload: str, trace: int, proc: subprocess.CompletedProcess) -> None:
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert isinstance(result["correct"], bool), where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], where
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared, f"{where}: metric names or units differ from BENCHMARK.json: " \
                            f"{sorted(set(got) ^ set(declared))}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, f"{where}: {name}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{where}: {name}"
    assert info["workload"] == workload and info["seed"] == 7, where
    assert ENV_KEYS <= set(info["env"]), f"{where}: env lacks {ENV_KEYS - set(info['env'])}"
    assert "git_commit" in info and info["inputs"], where


def _check_no_sources() -> None:
    # a directory holding only BENCHMARK.json and perfbench/ must be refused
    bare = os.path.join(ROOT, ".perfbench_selftest")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "exchange", 0)
        assert proc.returncode != 0, "run without hermgrid sources exited 0"
        assert '"metrics"' not in proc.stdout, "run without hermgrid sources printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            _check_result(spec, workload, trace, _run(ROOT, workload, trace))
            print(f"ok  {workload} --trace {trace}")
    _check_no_sources()
    print("ok  refused without hermgrid sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
