"""Command-line surface: exit codes, table layout, determinism hooks.

Everything runs in-process through cli.main so coverage tracks it and the
fault-injection tests can monkeypatch the check registry.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hermgrid

from hermgrid import checks, cli, dirac
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

    rc, _, err = run_cli(capsys, "greens", "--mu", "1", "--gh-nodes", "257")
    assert rc == 2
    assert "--gh-nodes: accepted range is gh_nodes <= 256, got 257" in err


MOLLER_KINEMATICS = ["--p1", "0.1,0,0", "--p2=-0.1,0,0",
                     "--p1-out", "0.08,0.06,0", "--p2-out=-0.08,-0.06,0"]


@pytest.mark.parametrize("argv, flag", [
    (["greens", "--mu", "inf"], "--mu"),
    (["moller", *MOLLER_KINEMATICS, "--mu", "1", "--g", "nan"], "--g"),
    (["moller", *MOLLER_KINEMATICS, "--mu", "1", "--m", "inf"], "--m"),
    (["moller", "--p1", "nan,0,0", *MOLLER_KINEMATICS[2:], "--mu", "1"], "--p1"),
    (["moller", *MOLLER_KINEMATICS, "--p2-out", "0,inf,0", "--mu", "1"], "--p2-out"),
    (["yukawa", "--mu", "1", "--tol", "inf"], "--tol"),
])
def test_non_finite_flags_exit_2(capsys, argv, flag):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: accepted range is ")


@pytest.mark.parametrize("flag", ["--m", "--mu"])
def test_overflowing_mass_exits_2_with_one_line(flag):
    # 1e300 is finite, but its square is not; the message names the error.
    # A fresh interpreter shows any numpy warning printed on the way.
    run = _run_fresh("moller", *MOLLER_KINEMATICS, "--mu", "1",
                     "--vertex-n-max", "8", flag, "1e300")
    assert run.returncode == 2
    assert run.stdout == ""
    (line,) = run.stderr.splitlines()
    error = {"--m": "OverflowError", "--mu": "DomainError"}[flag]
    assert line.startswith(f"error: {error}: ")


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


def _run_fresh(*argv, threads="1"):
    # a new interpreter, so nothing is cached and warnings reach stderr
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermgrid.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["HERMGRID_THREADS"] = threads
    return subprocess.run([sys.executable, "-m", "hermgrid.cli", *argv],
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
    # every RunConfig field is echoed, plus the closed coincidence value
    assert header["command"] == "yukawa"
    assert header["mu"] == "1.0"
    assert header["refine"] == "true"
    assert len(header) == 12
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


@pytest.mark.parametrize("cutoff", ["5", None])
def test_moller_header_echoes_the_vertex_cutoff(capsys, cutoff):
    flags = ["--vertex-n-max", cutoff] if cutoff else []
    rc, out, _ = run_cli(capsys, "moller", *MOLLER_KINEMATICS, "--mu", "1", *flags,
                         "--gh-nodes", "16", "--no-refine", "--tol", "1.0")
    assert rc == 0
    header, _, (row,) = parse_table(out)
    assert header["n_max"] == row["vertex_n_max"] == (cutoff or "64")


@pytest.mark.parametrize("cutoff", ["0", "-1"])
def test_moller_cutoff_errors_name_the_vertex_flag(capsys, cutoff):
    rc, _, err = run_cli(capsys, "moller", *MOLLER_KINEMATICS, "--mu", "1",
                         f"--vertex-n-max={cutoff}")
    assert rc == 2
    assert f"error: --vertex-n-max: accepted range is n_max >= 1, got {cutoff}" in err


@pytest.mark.filterwarnings("ignore::hermgrid.errors.TruncationWarning")
def test_moller_continuum_overflow_is_a_domain_error(capsys):
    # zero transfer at mu^2 = 1e-320, a subnormal: the continuum value
    # overflows, which printed inf and exited 0 (the element is computed
    # first, at the default tol, and warns of its truncation)
    rc, out, err = run_cli(capsys, "moller", "--p1", "0.1,0,0", "--p2", "0,0.1,0",
                           "--p1-out", "0.1,0,0", "--p2-out", "0,0.1,0",
                           "--mu", "1e-160", "--gh-nodes", "8")
    assert rc == 2 and out == "" and "Traceback" not in err
    (line,) = [l for l in err.splitlines() if l.startswith("error:")]
    assert "DomainError" in line and "not a finite double" in line


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
    # the 3D contractions go through BLAS, whose reduction order could
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


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300)
_ANY_FLOAT = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_SANE = {"--mu": "1.0", "--g": "1.0", "--m": "1.0", "--tol": "1e-08",
         "--p1": "0.1,0,0", "--p2": "-0.1,0,0", "--p1-out": "0.08,0.06,0",
         "--p2-out": "-0.08,-0.06,0"}
_FLOAT_FLAGS = {
    "yukawa": ("--mu", "--tol"),
    "coulomb": ("--tol",),
    "continuum": ("--mu", "--g", "--tol"),
    "greens": ("--mu", "--tol"),
    "moller": ("--mu", "--g", "--m", "--tol", "--p1", "--p2", "--p1-out", "--p2-out"),
}


@st.composite
def _cli_argv(draw):
    # one or two float flags take extreme or arbitrary values and the rest
    # keep working ones, so most examples get past validation into the
    # numerics; values go in the --flag=value form, as "-inf" would
    # otherwise read as a flag
    command = draw(st.sampled_from(sorted(_FLOAT_FLAGS)))
    flags = _FLOAT_FLAGS[command]
    wild = draw(st.sets(st.sampled_from(flags), min_size=1, max_size=2))
    argv = [command]
    for flag in flags:
        if flag not in wild:
            value = _SANE[flag]
        elif flag.startswith("--p"):
            value = ",".join(repr(draw(st.one_of(st.just(0.05), _ANY_FLOAT))) for _ in range(3))
        else:
            value = repr(draw(_ANY_FLOAT))
        argv.append(f"{flag}={value}")
    order_flag = "--vertex-n-max" if command == "moller" else "--n-max"
    argv.append(f"{order_flag}={draw(st.integers(-1, 8 if command == 'moller' else 4))}")
    # node counts below 8 or past the budget are rejected before any rule
    # is built; accepted ones stay small, so no example allocates a large
    # tensor
    argv.append(f"--gh-nodes={draw(st.sampled_from((0, 7, 8, 16, 257, 500, 10 ** 6)))}")
    if draw(st.booleans()):
        argv.append("--no-refine")
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
