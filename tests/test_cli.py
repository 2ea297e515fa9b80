"""Command-line surface: exit codes, table layout, determinism hooks.

Everything runs in-process through cli.main so coverage tracks it and the
fault-injection tests can monkeypatch the check registry.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import hermgrid

from hermgrid import checks, cli, dirac
from hermgrid.greens import coulomb_even, yukawa_coincidence


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def parse_table(out, sep=","):
    header = {}
    columns = None
    rows = []
    for line in out.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            header[key] = val
        elif columns is None:
            columns = line.split(sep)
        else:
            rows.append(dict(zip(columns, line.split(sep))))
    return header, columns, rows


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_flag_validation_exit_codes(capsys):
    rc, _, err = run_cli(capsys, "yukawa", "--mu", "-1")
    assert rc == 2
    assert "error: --mu: accepted range is mu >= 0, got -1.0" in err

    rc, _, err = run_cli(capsys, "moller", "--p1", "1,2", "--p2", "0,0,0",
                         "--p1-out", "0,0,0", "--p2-out", "0,0,0", "--mu", "1")
    assert rc == 2
    assert "--p1: accepted range is three comma-separated reals, got '1,2'" in err

    rc, _, err = run_cli(capsys, "yukawa", "--mu", "1", "--gh-nodes", "4")
    assert rc == 2
    assert "--gh-nodes: accepted range is gh_nodes >= 8, got 4" in err


def test_nonconvergence_exit_code(capsys):
    rc, _, err = run_cli(capsys, "greens", "--mu", "0.5", "--n-max", "4",
                         "--tol", "1e-12")
    assert rc == 3
    assert "did not converge" in err


def test_yukawa_table(capsys):
    rc, out, err = run_cli(capsys, "yukawa", "--mu", "1", "--n-max", "6")
    assert rc == 0 and err == ""
    header, columns, rows = parse_table(out)
    assert columns == ["index", "x", "w_sharp", "err_estimate", "closed_coincidence"]
    # every RunConfig field is echoed, plus the closed coincidence value
    assert header["command"] == "yukawa"
    assert header["mu"] == "1.0"
    assert header["refine"] == "true"
    assert len(header) == 13
    assert len(rows) == 7

    closed = yukawa_coincidence(1.0)
    assert float(header["coincidence_closed_form"]) == closed
    assert rows[0]["index"] == "0"
    assert float(rows[0]["x"]) == 1.0
    assert float(rows[0]["w_sharp"]) == pytest.approx(closed, abs=1e-12)
    assert float(rows[0]["closed_coincidence"]) == closed
    for r in rows[1:]:
        assert r["closed_coincidence"] == ""
        assert float(r["x"]) == math.sqrt(2.0 * int(r["index"]) + 1.0)
    # odd indices vanish by parity, exactly
    for r in rows[1::2]:
        assert float(r["w_sharp"]) == 0.0


def test_yukawa_high_order_small_mass(capsys):
    # high even orders weight the far radial nodes of the half-Laguerre rule,
    # where weights known only to absolute precision tripped the refinement gate
    rc, out, err = run_cli(capsys, "yukawa", "--mu", "0.25", "--n-max", "40")
    assert rc == 0 and err == ""
    _, _, rows = parse_table(out)
    assert len(rows) == 41
    even = [float(r["w_sharp"]) for r in rows[::2]]
    assert all(0.0 < b < a for a, b in zip(even, even[1:]))


def test_yukawa_large_mass(capsys):
    # the closed coincidence value used to form e^{mu^2}, which overflows
    # from mu = 27 on
    rc, out, err = run_cli(capsys, "yukawa", "--mu", "30", "--n-max", "2")
    assert rc == 0 and err == ""
    header, _, rows = parse_table(out)
    closed = float(header["coincidence_closed_form"])
    assert closed == yukawa_coincidence(30.0)
    assert float(rows[0]["w_sharp"]) == pytest.approx(closed, rel=1e-13)


def test_coulomb_table_and_gnuplot_sidecar(capsys, tmp_path):
    path = tmp_path / "coulomb.csv"
    rc, out, err = run_cli(capsys, "coulomb", "--n-max", "2", "--out", str(path))
    assert rc == 0 and out == "" and err == ""
    header, columns, rows = parse_table(path.read_text(encoding="utf-8"))
    assert columns == ["index", "x", "w_sharp_closed", "err_estimate",
                       "continuum_w", "continuum_scaled"]
    assert [r["index"] for r in rows] == ["0", "2", "4"]
    assert float(rows[0]["x"]) == 1.0
    assert float(rows[0]["w_sharp_closed"]) == 2.0
    assert float(rows[0]["continuum_w"]) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)
    assert float(rows[0]["continuum_scaled"]) == 1.0
    for r, half in zip(rows, range(3)):
        assert float(r["w_sharp_closed"]) == coulomb_even(half)

    script = (tmp_path / "coulomb.csv.gp").read_text(encoding="utf-8")
    assert 'set datafile separator ","' in script
    assert 'every ::1 using 2:3' in script
    assert 'every ::1 using 2:6' in script
    assert 'sqrt(2 index + 1)' in script


def test_coulomb_index_map_blanks_origin(capsys):
    rc, out, _ = run_cli(capsys, "coulomb", "--n-max", "1", "--x-map", "index")
    assert rc == 0
    _, _, rows = parse_table(out)
    # at x = 0 the continuum comparison has no value, so the cells are empty
    assert float(rows[0]["x"]) == 0.0
    assert rows[0]["continuum_w"] == ""
    assert rows[0]["continuum_scaled"] == ""
    assert float(rows[1]["continuum_w"]) == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-15)


def test_tsv_format(capsys):
    rc, out, _ = run_cli(capsys, "yukawa", "--mu", "1", "--n-max", "1",
                         "--format", "tsv")
    assert rc == 0
    data_lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert data_lines[0] == "index\tx\tw_sharp\terr_estimate\tclosed_coincidence"
    assert "\t" in data_lines[1] and "," not in data_lines[1]


def test_continuum_table(capsys):
    rc, out, err = run_cli(capsys, "continuum", "--mu", "1", "--n-max", "2")
    assert rc == 0 and err == ""
    _, columns, rows = parse_table(out)
    assert columns == ["index", "r", "yukawa_closed", "yukawa_oracle", "abs_difference"]
    assert len(rows) == 3
    for r in rows:
        assert float(r["abs_difference"]) <= 1e-8
        assert float(r["yukawa_closed"]) < 0.0


def test_greens_table(capsys):
    rc, out, err = run_cli(capsys, "greens", "--mu", "1", "--n-max", "2")
    assert rc == 0 and err == ""
    _, columns, rows = parse_table(out)
    assert columns == ["index", "axis_re", "axis_im", "axis_err",
                       "tensor_re", "tensor_im", "tensor_err", "abs_difference"]
    assert len(rows) == 3
    for r in rows:
        assert float(r["abs_difference"]) <= 1e-7
        assert abs(float(r["axis_im"])) <= 1e-12


def test_moller_row(capsys):
    # momenta with a leading minus need the = form so argparse does not read
    # them as flags
    rc, out, err = run_cli(capsys, "moller",
                           "--p1", "0.1,0,0", "--p2=-0.1,0,0",
                           "--p1-out", "0.08,0.06,0", "--p2-out=-0.08,-0.06,0",
                           "--mu", "1", "--vertex-n-max", "8",
                           "--gh-nodes", "32", "--no-refine", "--tol", "1.0")
    assert rc == 0 and err == ""
    _, columns, rows = parse_table(out)
    assert columns == ["vertex_n_max", "element_re", "element_im", "continuum_re",
                       "energy_defect", "momentum_defect", "low_momentum_ok",
                       "truncation_shift"]
    (row,) = rows
    assert row["vertex_n_max"] == "8"
    assert row["low_momentum_ok"] == "true"
    assert float(row["energy_defect"]) == 0.0
    assert float(row["momentum_defect"]) == 0.0
    assert float(row["element_re"]) > 0.0
    assert abs(float(row["element_im"])) <= 1e-15
    assert float(row["truncation_shift"]) > 0.0


def test_moller_spin_validation(capsys):
    rc, _, err = run_cli(capsys, "moller", "--p1", "0,0,0", "--p2", "0,0,0",
                         "--p1-out", "0,0,0", "--p2-out", "0,0,0", "--mu", "1",
                         "--spins", "1,2,3,1")
    assert rc == 2
    assert "--spins" in err


def test_check_fast_healthy(capsys):
    rc, out, err = run_cli(capsys, "check", "fast")
    assert rc == 0 and err == ""
    lines = [json.loads(l) for l in out.splitlines()]
    summary = lines[-1]
    assert summary == {"suite": "fast", "total": 23, "failed": 0}
    assert len(lines) == 24
    for rec in lines[:-1]:
        assert set(rec) == {"name", "passed", "tolerance", "observed", "seconds", "detail"}
        assert rec["passed"] is True
        assert rec["observed"] <= rec["tolerance"]


def test_check_report_to_file(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "_FAST", [("demo", lambda: (True, 1.0, 0.0, ""))])
    path = tmp_path / "report.json"
    rc, out, err = run_cli(capsys, "check", "fast", "--out", str(path))
    assert rc == 0 and out == "" and err == ""
    lines = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
    assert lines[-1]["total"] == 1


def test_check_failure_exit_code(capsys, monkeypatch):
    sub = [entry for entry in checks._FAST if entry[0] == "dirac_clifford"]
    monkeypatch.setattr(checks, "_FAST", sub)

    def corrupted():
        import numpy as np

        bad = {a: np.array(dirac.gamma_set()[a]) for a in range(1, 5)}
        bad[1][0, 3] = 1j

        class BadSet:
            def __getitem__(self, a):
                return bad[a]

        return BadSet()

    monkeypatch.setattr(checks, "gamma_provider", corrupted)
    rc, out, err = run_cli(capsys, "check", "fast")
    assert rc == 1
    assert "FAILED: dirac_clifford" in err
    summary = json.loads(out.splitlines()[-1])
    assert summary["failed"] == 1


README_COMMANDS = (
    ["greens", "--mu", "1", "--n-max", "6"],
    ["moller", "--p1", "0.1,0,0", "--p2=-0.1,0,0", "--p1-out", "0.08,0.06,0",
     "--p2-out=-0.08,-0.06,0", "--mu", "1", "--vertex-n-max", "32"],
)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda a: a[0])
def test_tables_identical_across_thread_counts(argv):
    # the tensor contractions go through BLAS, whose reduction order could
    # follow the thread count; the tables must not
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermgrid.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    outs = []
    for threads in ("1", "2"):
        env["HERMGRID_THREADS"] = threads
        run = subprocess.run([sys.executable, "-m", "hermgrid.cli", *argv],
                             capture_output=True, env=env)
        assert run.returncode == 0
        outs.append(run.stdout)
    assert outs[0] == outs[1]
