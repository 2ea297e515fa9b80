"""Command-line surface: exit codes, table layout, determinism hooks.

Everything runs in-process through cli.main so coverage tracks it and the
fault-injection tests can monkeypatch the check registry.
"""

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hermgrid

from hermgrid import checks, cli, dirac, scattering
from hermgrid.greens import clear_caches, coulomb_even, yukawa_coincidence


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


MOLLER_KINEMATICS = ["--p1", "0.1,0,0", "--p2=-0.1,0,0",
                     "--p1-out", "0.08,0.06,0", "--p2-out=-0.08,-0.06,0"]


def test_flag_validation_exit_codes(capsys):
    rc, _, err = run_cli(capsys, "yukawa", "--mu", "-1")
    assert rc == 2
    assert "error: --mu: accepted range is mu >= 0, got -1.0" in err

    rc, _, err = run_cli(capsys, "moller", "--p1", "1,2", "--p2", "0,0,0",
                         "--p1-out", "0,0,0", "--p2-out", "0,0,0", "--mu", "1")
    assert rc == 2
    assert "--p1: accepted range is three comma-separated reals, got '1,2'" in err



@pytest.mark.parametrize("argv, flag", [
    (["greens", "--mu", "inf"], "--mu"),
    (["moller", *MOLLER_KINEMATICS, "--mu", "1", "--g", "nan"], "--g"),
    (["moller", *MOLLER_KINEMATICS, "--mu", "1", "--m", "inf"], "--m"),
    (["moller", "--p1", "nan,0,0", *MOLLER_KINEMATICS[2:], "--mu", "1"], "--p1"),
    (["moller", *MOLLER_KINEMATICS, "--p2-out", "0,inf,0", "--mu", "1"], "--p2-out"),
    (["greens", "--mu", "1", "--tol", "inf"], "--tol"),
])
def test_non_finite_flags_exit_2(capsys, argv, flag):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: accepted range is ")


@pytest.mark.parametrize("flag", ["--mu"])
def test_overflowing_mass_exits_2_with_one_line(flag):
    # 1e300 is finite, but its square is not: the boson's proper-time
    # lattice is refused.  A fresh interpreter shows any numpy warning
    # printed on the way.
    run = _run_fresh("moller", *MOLLER_KINEMATICS, "--mu", "1",
                     "--vertex-n-max", "8", flag, "1e300")
    assert run.returncode == 2
    assert run.stdout == ""
    (line,) = run.stderr.splitlines()
    assert line.startswith("error: DomainError: ")


def test_huge_fermion_mass_prints_a_finite_element():
    # nothing forms m^2, so a finite fermion mass whose square overflows
    # still has a finite element; the only stderr line is the truncation
    # warning at this cutoff
    run = _run_fresh("moller", *MOLLER_KINEMATICS, "--mu", "1",
                     "--vertex-n-max", "8", "--m", "1e300")
    assert run.returncode == 0
    _, _, (row,) = parse_table(run.stdout)
    assert math.isfinite(float(row["element_re"])) and float(row["element_re"]) > 0.0
    (line,) = run.stderr.splitlines()
    assert line.startswith("warning: TruncationWarning: ")


def test_overflowing_exchange_coefficients_exit_2_with_one_line():
    # phi_n(1e150) overflows where e^{-p^2/2} underflows, so a coefficient
    # is inf * 0; a fresh interpreter shows any numpy warning on the way
    run = _run_fresh("moller", "--p1=1e150,0,0", *MOLLER_KINEMATICS[2:], "--mu", "1",
                     "--vertex-n-max", "8")
    assert run.returncode == 2
    assert run.stdout == ""
    (line,) = run.stderr.splitlines()
    assert line.startswith("error: DomainError: ")


def test_nonconvergence_exit_code(capsys):
    # the proper-time column's rounding bound (1.1e-15 at index 0) against a
    # gate of 100 * tol
    rc, _, err = run_cli(capsys, "greens", "--mu", "0.5", "--n-max", "4",
                         "--tol", "1e-18")
    assert rc == 3
    assert "did not converge" in err


def test_greens_table_converges_at_small_mass(capsys):
    # the tensor route's gate failed here for (4,0,0), with a defect of
    # 5.0e-6, and the command exited 3
    rc, out, err = run_cli(capsys, "greens", "--mu", "0.3", "--n-max", "8")
    assert rc == 0 and err == ""
    _, _, rows = parse_table(out)
    assert len(rows) == 9
    for r in rows:
        assert float(r["abs_difference"]) <= float(r["axis_err"]) + float(r["proper_time_err"])


def _run_fresh(*argv, threads="1", python=("-m", "hermgrid.cli")):
    # a new interpreter, so nothing is cached and warnings reach stderr
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermgrid.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["HERMGRID_THREADS"] = threads
    return subprocess.run([sys.executable, *python, *argv],
                          capture_output=True, env=env, text=True)


@pytest.mark.parametrize("argv", [
    # mu^2 overflows: the tensor route used to print nan cells and exit 0
    ["greens", "--mu", "1e300", "--n-max", "0"],
    # g^2 overflows: the table used to carry -inf and nan and exit 0
    ["continuum", "--mu", "1", "--g", "1e300"],
    # mu^2 underflows: the oracle used to die in a bare ZeroDivisionError
    ["continuum", "--mu", "1e-300"],
], ids=["greens-mu", "continuum-g", "continuum-mu"])
def test_unrepresentable_inputs_exit_with_one_line(argv):
    run = _run_fresh(*argv)
    assert run.returncode in (2, 3)
    assert run.stdout == ""
    (line,) = run.stderr.splitlines()
    assert line.startswith("error: ") and "DomainError" in line


def test_yukawa_table_independent_of_earlier_calls(capsys):
    # the axis route caches one table per mass and size; the table bytes
    # must not depend on what the process computed before
    argv = ("yukawa", "--mu", "0.7", "--n-max", "40")
    first = _run_fresh(*argv)
    assert first.returncode == 0 and first.stderr == ""
    clear_caches()
    cfg = hermgrid.QuadratureConfig()
    for mu in (0.25, 1.0, 1.3, 4.0):
        for n1 in range(0, 41, 3):
            hermgrid.g_sharp_axis(n1, mu, cfg)
    hermgrid.coulomb_quadrature(12, cfg)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    assert out == first.stdout
    rc, again, _ = run_cli(capsys, *argv)
    assert again == first.stdout


def test_yukawa_table(capsys):
    rc, out, err = run_cli(capsys, "yukawa", "--mu", "1", "--n-max", "6")
    assert rc == 0 and err == ""
    header, columns, rows = parse_table(out)
    assert columns == ["index", "x", "w_sharp", "err_estimate", "closed_coincidence"]
    # the command and its five flags, plus the closed coincidence value
    assert header["command"] == "yukawa"
    assert header["mu"] == "1.0"
    assert len(header) == 7
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
    # mu^2 = 1/16 is past the forward recurrence for a 24-entry table, so
    # the table comes from the backward loop at a depth of about 1,800
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


def test_yukawa_large_mass_high_orders_fall(capsys):
    # the quadrature this replaced printed rounding noise of about 3e-18
    # from index 12 on (4.2e-18 at index 12, where the value is 6.75e-19)
    mp = pytest.importorskip("mpmath")
    rc, out, err = run_cli(capsys, "yukawa", "--mu", "30", "--n-max", "40")
    assert rc == 0 and err == ""
    _, _, rows = parse_table(out)
    even = [float(r["w_sharp"]) for r in rows[::2]]
    assert all(0.0 < b < a for a, b in zip(even, even[1:]))
    with mp.workdps(30):
        want = mp.sqrt(mp.factorial(12)) / 2 ** 6 * mp.hyperu(7, 0.5, 900)
    assert abs(float(rows[12]["w_sharp"]) - want) <= 2e-14 * want


def test_radial_nodes_flag_is_gone():
    # the closed-form axis values have no radial rule to size
    run = _run_fresh("yukawa", "--mu", "1", "--radial-nodes", "400")
    assert run.returncode == 2 and run.stdout == ""
    assert "usage:" in run.stderr and "unrecognized arguments: --radial-nodes" in run.stderr
    assert "Traceback" not in run.stderr


# each flag a command took without reading it; they exit 2 like any unknown flag
REMOVED_FLAGS = [
    *((cmd, flag) for cmd in ("yukawa", "coulomb", "continuum")
      for flag in ("--gh-nodes=64", "--tol=1e-08", "--no-refine")),
    ("greens", "--gh-nodes=64"), ("greens", "--no-refine"), ("greens", "--x-map=index"),
    ("moller", "--x-map=index"), ("moller", "--gh-nodes=64"), ("moller", "--no-refine"),
]
REQUIRED = {"yukawa": ["--mu", "1"], "coulomb": [], "continuum": ["--mu", "1"],
            "greens": ["--mu", "1"], "moller": [*MOLLER_KINEMATICS, "--mu", "1"]}


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_unread_flags_are_gone(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *REQUIRED[command], flag])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "usage:" in err and f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err


# a non-default accepted value of each flag, as the header echoes it
_NON_DEFAULT = {"--p1": "0.1,0,0", "--p2": "-0.1,0,0", "--p1-out": "0.08,0.06,0",
                "--p2-out": "-0.08,-0.06,0", "--mu": "0.5", "--m": "2.0", "--g": "0.5",
                "--spins": "1,2,1,2", "--n-max": "3", "--vertex-n-max": "4",
                "--tol": "0.001", "--x-map": "index", "--format": "tsv"}


def _registered_flags(command):
    flags = [(a.option_strings[0], a.dest) for a in cli._command_parser(command)._actions
             if a.option_strings and a.dest != "help"]
    # the root parser's subparser registers the same flags
    (subs,) = [a for a in cli._root_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    assert flags == [(a.option_strings[0], a.dest) for a in subs.choices[command]._actions
                     if a.option_strings and a.dest != "help"]
    return flags


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_header_echoes_exactly_the_registered_flags(capsys, tmp_path, command):
    # every flag a command takes is in its header with the value given, in
    # registration order; nothing else is, but the command and yukawa's
    # closed coincidence value
    path = tmp_path / "table.tsv"
    argv, want = [command], {"command": command}
    for flag, dest in _registered_flags(command):
        value = str(path) if flag == "--out" else _NON_DEFAULT[flag]
        argv.append(f"{flag}={value}")
        want[dest] = value
    if command == "yukawa":
        want["coincidence_closed_form"] = repr(yukawa_coincidence(0.5))
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and out == ""
    header, _, rows = parse_table(path.read_text(encoding="utf-8"), sep="\t")
    assert list(header.items()) == list(want.items())
    assert rows


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
                       "proper_time_re", "proper_time_im", "proper_time_err", "abs_difference"]
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
                           "--mu", "1", "--vertex-n-max", "8", "--tol", "1.0")
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


@pytest.mark.parametrize("cutoff", ["5", None])
def test_moller_header_echoes_the_vertex_cutoff(capsys, cutoff):
    flags = ["--vertex-n-max", cutoff] if cutoff else []
    rc, out, _ = run_cli(capsys, "moller", *MOLLER_KINEMATICS, "--mu", "1", *flags, "--tol", "1.0")
    assert rc == 0
    header, _, (row,) = parse_table(out)
    assert header["n_max"] == row["vertex_n_max"] == (cutoff or "64")
    assert "gh_nodes" not in header and "refine" not in header


def test_moller_cutoff_past_the_cap_exits_2(capsys):
    # --vertex-n-max has no upper bound of its own: the element refuses a
    # cutoff past its cap with one error line
    cap = scattering._ELEMENT_N_MAX
    rc, out, err = run_cli(capsys, "moller", *MOLLER_KINEMATICS, "--mu", "1",
                           f"--vertex-n-max={cap + 1}")
    assert rc == 2 and out == "" and "Traceback" not in err
    assert err.splitlines() == [f"error: OrderTooLargeError: vertex cutoff n_max = {cap + 1} "
                                f"for the exchange element, at most {cap}"]


@pytest.mark.parametrize("n_max", ["1456", "3000", "-1"])
def test_greens_order_past_the_rule_cap_exits_2_before_any_row(capsys, n_max):
    # row n1's proper-time column needs an (n1 // 2 + 1)-node rule, at most
    # 728 nodes: an --n-max past 1455 is refused before the first row is
    # computed
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "greens", "--mu", "1", "--n-max", n_max)
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert err == f"error: --n-max: accepted range is 0 <= n_max <= 1455, got {n_max}\n"


@pytest.mark.parametrize("cutoff", ["0", "-1"])
def test_moller_cutoff_errors_name_the_vertex_flag(capsys, cutoff):
    rc, _, err = run_cli(capsys, "moller", *MOLLER_KINEMATICS, "--mu", "1",
                         f"--vertex-n-max={cutoff}")
    assert rc == 2
    assert f"error: --vertex-n-max: accepted range is n_max >= 1, got {cutoff}" in err


def test_moller_continuum_overflow_is_a_domain_error(capsys):
    # zero transfer at mu^2 = 1e-320, a subnormal: the continuum value
    # overflows, which printed inf and exited 0 (the element is computed
    # first, at the default tol, and prints a truncation warning line)
    rc, out, err = run_cli(capsys, "moller", "--p1", "0.1,0,0", "--p2", "0,0.1,0",
                           "--p1-out", "0.1,0,0", "--p2-out", "0,0.1,0",
                           "--mu", "1e-160")
    assert rc == 2 and out == "" and "Traceback" not in err
    (line,) = [l for l in err.splitlines() if l.startswith("error:")]
    assert "DomainError" in line and "not a finite double" in line


def test_moller_truncation_warning_is_one_line(capsys):
    # a fresh interpreter prints warnings in Python's default format, with
    # the path and a source line of the caller; the command prints one line
    run = _run_fresh("moller", *MOLLER_KINEMATICS, "--mu", "1", "--vertex-n-max", "32")
    assert run.returncode == 0
    (line,) = run.stderr.splitlines()
    assert line == ("warning: TruncationWarning: last included coefficient shell moved "
                    "the element by 3.534e-04 (> tol 1.000e-08); raise n_max past 32")
    # in process too, on every call, and only on stderr
    for _ in range(2):
        rc, out, err = run_cli(capsys, "moller", *MOLLER_KINEMATICS, "--mu", "1",
                               "--vertex-n-max", "32")
        assert rc == 0 and err == line + "\n" and out == run.stdout


def test_moller_spin_validation(capsys):
    rc, _, err = run_cli(capsys, "moller", "--p1", "0,0,0", "--p2", "0,0,0",
                         "--p1-out", "0,0,0", "--p2-out", "0,0,0", "--mu", "1",
                         "--spins", "1,2,3,1")
    assert rc == 2
    assert "--spins" in err
    # a non-integer named no flag, and an empty value ran at 1,1,1,1 while
    # the header echoed it empty
    for spins in ("a,1,1,1", ""):
        rc, out, err = run_cli(capsys, "moller", *MOLLER_KINEMATICS, "--mu", "1",
                               f"--spins={spins}")
        assert rc == 2 and out == ""
        assert err == ("error: --spins: accepted range is four comma-separated "
                       f"values in {{1,2}}, got {spins}\n")


def test_check_fast_healthy(capsys):
    rc, out, err = run_cli(capsys, "check", "fast")
    assert rc == 0 and err == ""
    lines = [json.loads(l) for l in out.splitlines()]
    summary = lines[-1]
    assert summary == {"suite": "fast", "total": 24, "failed": 0}
    assert len(lines) == 25
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
def test_tables_identical_across_thread_counts(capsys, argv):
    # the 3D contractions go through BLAS, whose reduction order could
    # follow the thread count; the tables must not.  The in-process call,
    # on the command's one parser, prints the same bytes as a fresh process.
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and out.encode() == outs[0]


def test_readme_moller_under_error_filter_prints_one_warning_line(capsys):
    # python -W error: the truncation warning is still one stderr line and
    # no traceback, and the caller's filter is back in place afterwards
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filters = list(warnings.filters)
        rc, out, err = run_cli(capsys, *README_COMMANDS[1])
        assert warnings.filters == filters
    assert rc == 0 and parse_table(out)[2]
    (line,) = err.splitlines()
    assert line.startswith("warning: TruncationWarning: ")


def test_import_builds_no_parser():
    run = _run_fresh(python=("-c", "import hermgrid.cli as cli; "
                                   "print(cli._command_parser.cache_info().currsize)"))
    assert run.returncode == 0 and run.stdout == "0\n"


def _numpy_after(code):
    run = _run_fresh(python=("-c", "import sys\n" + code + "\nprint('numpy' in sys.modules)"))
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv", [["yukawa", "--mu", "1", "--n-max", "8"], ["coulomb", "--n-max", "10"]],
                         ids=lambda a: a[0])
def test_closed_form_commands_load_no_numpy(argv):
    # the closed forms read only math: neither the command nor the package
    # it runs in imports numpy
    code = ("import contextlib, io\n"
            "import hermgrid.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n")
    assert _numpy_after(code) == "False"


def test_package_import_loads_no_numpy():
    assert _numpy_after("import hermgrid, hermgrid.cli") == "False"


def test_every_export_and_submodule_resolves_lazily():
    # in a fresh process: each name of __all__ and each module of the
    # package is an attribute of hermgrid, the defining module's own object,
    # kept in the package's namespace once resolved
    code = """
import importlib, pathlib, sys, types
import hermgrid
modules = sorted(p.stem for p in pathlib.Path(hermgrid.__file__).parent.glob("*.py") if p.stem != "__init__")
for name in modules:
    value = getattr(hermgrid, name)
    assert value is sys.modules[f"hermgrid.{name}"] and isinstance(value, types.ModuleType), name
for name in hermgrid.__all__:
    value = getattr(hermgrid, name)
    assert vars(hermgrid)[name] is value, name
    if name != "__version__":
        assert getattr(importlib.import_module(value.__module__), name) is value, name
try:
    hermgrid.no_such_name
except AttributeError as exc:
    print(exc)
print(len(modules), len(hermgrid.__all__))
"""
    run = _run_fresh(python=("-c", code))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["module 'hermgrid' has no attribute 'no_such_name'", "10 46"]


def test_fresh_process_loads_no_scipy(tmp_path):
    # the README tables, check fast and the benchmark's half-Laguerre rule
    # in one fresh interpreter: every rule, the continuum oracle and the
    # coincidence value run on numpy and math alone.  Only `check` imports
    # hermgrid.checks, so no table pays for compiling the suite
    tables = [["yukawa", "--mu", "1", "--n-max", "8"],
              ["coulomb", "--n-max", "10", "--out", str(tmp_path / "coulomb.csv")],
              ["continuum", "--mu", "0.5", "--n-max", "8"], *README_COMMANDS,
              ["check", "fast"]]
    code = ("import contextlib, io, sys, warnings\n"
            "import hermgrid, hermgrid.cli as cli\n"
            "warnings.simplefilter('ignore')\n"
            f"for argv in {tables!r}:\n"
            "    print(argv[0], 'hermgrid.checks' in sys.modules)\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "hermgrid.quadrature.gauss_laguerre_half(400)\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    run = _run_fresh(python=("-c", code))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [f"{argv[0]} False" for argv in tables] + ["[]"]


def test_main_calls_share_one_parser(capsys, monkeypatch):
    # repeat calls of one command parse with that command's one parser, and
    # a call builds no other command's flags: no root parser either
    cli._command_parser.cache_clear()
    used, added = [], []
    parse_known_args = argparse.ArgumentParser.parse_known_args
    add_argument = argparse.ArgumentParser.add_argument

    def parse_spy(self, *args, **kwargs):
        used.append(self)
        return parse_known_args(self, *args, **kwargs)

    def add_spy(self, *args, **kwargs):
        added.append(args[0])
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parse_spy)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", add_spy)
    calls = (("coulomb", "--n-max", "2"), ("yukawa", "--mu", "1", "--n-max", "2")) * 2
    for argv in calls:
        rc, _, _ = run_cli(capsys, *argv)
        assert rc == 0
    coulomb, yukawa = cli._command_parser("coulomb"), cli._command_parser("yukawa")
    assert used == [coulomb, yukawa, coulomb, yukawa]
    assert added == ["-h", "--n-max", "--out", "--x-map", "--format",
                     "-h", "--mu", "--n-max", "--out", "--x-map", "--format"]
    assert cli._command_parser.cache_info().currsize == 2


def _first_call(capsys, argv):
    # the reference: the same command on a parser built for it
    cli._command_parser.cache_clear()
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    return out, cli._command_parser(argv[0])


@pytest.mark.parametrize("failing, code, good", [
    # argparse's own usage failure: --mu is required
    (["yukawa"], 2, ["yukawa", "--mu", "1", "--n-max", "8"]),
    # a usage error of the flag checks
    (["greens", "--mu", "1", "--tol=-1"], 2, ["greens", "--mu", "1", "--n-max", "6"]),
    # nonconvergence
    (["greens", "--mu", "0.5", "--n-max", "4", "--tol", "1e-18"], 3,
     ["greens", "--mu", "1", "--n-max", "6"]),
], ids=["argparse-usage", "flag-usage", "nonconvergence"])
def test_failed_call_leaves_the_next_table_unchanged(capsys, failing, code, good):
    first, parser = _first_call(capsys, good)
    try:
        rc = cli.main(failing)
    except SystemExit as exc:
        rc = exc.code
    capsys.readouterr()
    assert rc == code
    rc, out, err = run_cli(capsys, *good)
    assert rc == 0 and err == ""
    assert out == first
    assert cli._command_parser(good[0]) is parser


@pytest.mark.parametrize("argv", [["--help"], ["greens", "--help"], ["yukawa", "--help"]])
def test_help_prints_after_other_calls(capsys, monkeypatch, argv):
    # a fixed width, so every help wraps alike
    monkeypatch.setenv("COLUMNS", "80")
    cli._command_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    first, _ = capsys.readouterr()
    for earlier in (("greens", "--mu", "1", "--n-max", "2"), ("coulomb", "--n-max", "2")):
        run_cli(capsys, *earlier)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out == first and out.startswith("usage: hermgrid")
    if argv == ["--help"]:
        assert "closed-form axis values vs the 3D proper-time sum" in out


# stdout, stderr and exit code of each argv, captured in process at a
# fixed width of 80 columns from the CLI at 4d3de2e, which parsed every call
# with one parser holding all six commands
TRANSCRIPTS = json.loads((pathlib.Path(__file__).parent / "cli_transcripts.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", TRANSCRIPTS, ids=lambda case: " ".join(case["argv"]) or "no-arguments")
def test_cli_prints_the_recorded_transcript(capsys, monkeypatch, case):
    # help, usage errors, misplaced and abbreviated flags and a few tables
    # keep their bytes, whichever parsers earlier tests built
    monkeypatch.setenv("COLUMNS", "80")
    try:
        rc = cli.main(list(case["argv"]))
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    assert (rc, out, err) == (case["exit"], case["stdout"], case["stderr"])


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300)
_ANY_FLOAT = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_SANE = {"--mu": "1.0", "--g": "1.0", "--m": "1.0", "--tol": "1e-08",
         "--p1": "0.1,0,0", "--p2": "-0.1,0,0", "--p1-out": "0.08,0.06,0",
         "--p2-out": "-0.08,-0.06,0"}
_WILD = st.sampled_from((True,) + (False,) * 7)
_FLOAT_FLAGS = {
    "yukawa": ("--mu",),
    "coulomb": (),
    "continuum": ("--mu", "--g"),
    "greens": ("--mu", "--tol"),
    "moller": ("--mu", "--g", "--m", "--tol", "--p1", "--p2", "--p1-out", "--p2-out"),
}


@st.composite
def _cli_argv(draw):
    # Flags take working values unless drawn as wild: then a float flag
    # takes an extreme or arbitrary value and the order flag any of -1 up.
    # Each flag is wild with probability 1/8, so most examples get past
    # validation into the numerics: of the 200 derandomized examples, 156
    # exit 0 and 44 exit 2.  Values go in the --flag=value form, as
    # "-inf" would otherwise read as a flag.  Only flags the command takes
    # are drawn.
    command = draw(st.sampled_from(sorted(_FLOAT_FLAGS)))
    argv = [command]
    for flag in _FLOAT_FLAGS[command]:
        if not draw(_WILD):
            value = _SANE[flag]
        elif flag.startswith("--p"):
            value = ",".join(repr(draw(st.one_of(st.just(0.05), _ANY_FLOAT))) for _ in range(3))
        else:
            value = repr(draw(_ANY_FLOAT))
        argv.append(f"{flag}={value}")
    order_flag, low, high = ("--vertex-n-max", 1, 8) if command == "moller" else ("--n-max", 0, 4)
    argv.append(f"{order_flag}={draw(st.integers(-1 if draw(_WILD) else low, high))}")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_cli_argv())
def test_cli_fuzz_exit_codes_without_traceback(argv):
    # in process, a traceback would be an exception escaping main()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
