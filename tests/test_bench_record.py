"""The parts of tools/bench_record.py that run no benchmark: the README
commands it reads from the CI workflow, and the check of its file's fields
(its --smoke run, which runs the benchmark, is a CI step)."""

import copy
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_the_timed_commands_are_the_readme_commands():
    commands = bench_record.readme_commands((ROOT / ".github" / "workflows" / "ci.yml").read_text())
    readme = " ".join((ROOT / "README.md").read_text().replace("\\\n", " ").split())
    assert [c.split()[0] for c in commands] == ["yukawa", "coulomb", "continuum", "greens", "moller"]
    assert all(f"hermgrid {c}" in readme for c in commands)


def test_the_field_check_names_each_missing_field():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    commands = ["yukawa --mu 1", "greens --mu 1"]
    workload = {
        "end_to_end": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]},
        "per_layer": {m["name"]: {"value": 0, "unit": m["unit"]} for m in bench["per_layer"]},
        "runs": [{"trace": 0, "info": {}}, {"trace": 1, "info": {}}],
    }
    rec = {
        "host": {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "HERMGRID_THREADS": None,
                 "git_sha": "0" * 40, "git_dirty": False, "seed": 1},
        "workloads": {w["name"]: copy.deepcopy(workload) for w in bench["workloads"]},
        "commands": {c: {"median_ms": 60.0, "runs_ms": [60.0] * 5} for c in commands},
    }
    assert bench_record.problems(rec, bench, commands) == []
    del rec["host"]["seed"]
    rec["workloads"]["exchange"]["end_to_end"]["op_p90_ms"]["value"] = float("nan")
    del rec["workloads"]["mass-scan"]["per_layer"]["greens.g_sharp.warm_ms"]
    rec["commands"]["greens --mu 1"]["runs_ms"].pop()
    assert bench_record.problems(rec, bench, commands) == [
        "host.seed missing",
        "mass-scan per_layer greens.g_sharp.warm_ms missing or not finite",
        "exchange end_to_end op_p90_ms missing or not finite",
        "command 'greens --mu 1': no median of 5 wall times",
    ]
