"""Command-line surface: potential tables, cross-method comparisons, the
exchange element, and the invariant suites, emitted as deterministic CSV.

Output contract: UTF-8, newline line endings, `#`-prefixed header lines
echoing the full effective configuration, one column-name row, then data
rows in index order.  Floats are rendered with repr, the shortest string
that round-trips to the same double (at most 17 significant digits), so
identical flags always produce byte-identical files.

Exit codes: 0 success, 1 check-suite failure, 2 usage or flag-validation
error (also any domain or arithmetic error the flags lead to), 3 numerical
nonconvergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

from .checks import run_suite
from .errors import HermgridError, NonconvergenceError
from .greens import (
    continuum_yukawa,
    continuum_yukawa_oracle,
    coulomb_even,
    g_sharp,
    g_sharp_axis,
    yukawa_coincidence,
)
from .quadrature import GH_NODES_MAX, QuadratureConfig
from .scattering import MollerKinematics, VertexTruncation, moller_reduced_element, continuum_moller_reduced


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one CLI invocation, echoed verbatim into
    the output header so every table is self-describing."""

    command: str
    mu: float
    m: float
    g: float
    n_max: int
    gh_nodes: int
    tol: float
    refine: bool
    out_path: str
    x_map: str
    format: str


@dataclass(frozen=True)
class ResultRow:
    """One output row: label cells (indices, coordinates) then value cells
    (discrete value, continuum comparison, error estimate)."""

    labels: tuple
    values: tuple

    @property
    def cells(self) -> tuple:
        return self.labels + self.values


class _UsageError(Exception):
    pass


def _require(cond: bool, flag: str, accepted: str, got) -> None:
    if not cond:
        raise _UsageError(f"{flag}: accepted range is {accepted}, got {got}")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(lines: list[str], out_path: str) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(cfg: RunConfig, columns: list[str], rows: list[ResultRow],
           extra_header: list[tuple[str, str]] = ()) -> list[str]:
    sep = "," if cfg.format == "csv" else "\t"
    lines = [f"# {f.name} = {_fmt(getattr(cfg, f.name))}" for f in fields(RunConfig)]
    for key, val in extra_header:
        lines.append(f"# {key} = {val}")
    lines.append(sep.join(columns))
    lines.extend(sep.join(_fmt(c) for c in row.cells) for row in rows)
    return lines


def _quad_config(cfg: RunConfig) -> QuadratureConfig:
    return QuadratureConfig(gh_nodes=cfg.gh_nodes, tol=cfg.tol, refine=cfg.refine)


def _x_of(cfg: RunConfig, index: int) -> float:
    if cfg.x_map == "index":
        return float(index)
    return math.sqrt(2.0 * index + 1.0)


def _run_config(args, command: str) -> RunConfig:
    cfg = RunConfig(
        command=command,
        mu=getattr(args, "mu", 0.0),
        m=getattr(args, "m", 1.0),
        g=getattr(args, "g", 1.0),
        n_max=getattr(args, "n_max", 8),
        gh_nodes=args.gh_nodes,
        tol=args.tol,
        refine=not args.no_refine,
        out_path=args.out or "",
        x_map=args.x_map,
        format=args.format,
    )
    for flag, value in (("--mu", cfg.mu), ("--m", cfg.m), ("--g", cfg.g), ("--tol", cfg.tol)):
        _require(math.isfinite(value), flag, "a finite real", value)
    _require(cfg.mu >= 0, "--mu", "mu >= 0", cfg.mu)
    _require(cfg.m > 0, "--m", "m > 0", cfg.m)
    _require(cfg.n_max >= 0, "--n-max", "n_max >= 0", cfg.n_max)
    _require(cfg.gh_nodes >= 8, "--gh-nodes", "gh_nodes >= 8", cfg.gh_nodes)
    _require(cfg.gh_nodes <= GH_NODES_MAX, "--gh-nodes", f"gh_nodes <= {GH_NODES_MAX}", cfg.gh_nodes)
    _require(cfg.tol > 0, "--tol", "tol > 0", cfg.tol)
    return cfg


def cmd_yukawa(args) -> int:
    cfg = _run_config(args, "yukawa")
    _require(cfg.mu > 0, "--mu", "mu > 0 (the massless table is `coulomb`)", cfg.mu)
    qcfg = _quad_config(cfg)
    closed = yukawa_coincidence(cfg.mu)
    rows = []
    for n1 in range(cfg.n_max + 1):
        gv = g_sharp_axis(n1, cfg.mu, qcfg)
        coincidence = closed if n1 == 0 else ""
        rows.append(ResultRow((n1, _x_of(cfg, n1)),
                              (gv.value.real, gv.err_estimate, coincidence)))
    lines = _table(cfg, ["index", "x", "w_sharp", "err_estimate", "closed_coincidence"],
                   rows, extra_header=[("coincidence_closed_form", repr(closed))])
    _emit(lines, cfg.out_path)
    return 0


_GNUPLOT_TEMPLATE = """# gnuplot script for the discrete-vs-continuum potential comparison
set datafile separator "{sep}"
set xlabel "{xlabel}"
set ylabel "potential value"
set key top right
plot "{data}" every ::1 using 2:3 with linespoints title "discrete lattice potential", \\
     "{data}" every ::1 using 2:6 with lines title "continuum 1/x"
"""


def cmd_coulomb(args) -> int:
    cfg = _run_config(args, "coulomb")
    rows = []
    for half in range(cfg.n_max + 1):
        index = 2 * half
        x = _x_of(cfg, index)
        closed = coulomb_even(half)
        cont_w = 1.0 / (4.0 * math.pi * x) if x > 0 else ""
        cont_scaled = 1.0 / x if x > 0 else ""
        rows.append(ResultRow((index, x), (closed, 0.0, cont_w, cont_scaled)))
    lines = _table(cfg, ["index", "x", "w_sharp_closed", "err_estimate",
                         "continuum_w", "continuum_scaled"], rows)
    _emit(lines, cfg.out_path)
    if cfg.out_path:
        sep = "," if cfg.format == "csv" else "\t"
        xlabel = "index" if cfg.x_map == "index" else "sqrt(2 index + 1)"
        script = _GNUPLOT_TEMPLATE.format(sep=sep, xlabel=xlabel, data=cfg.out_path)
        with open(cfg.out_path + ".gp", "w", encoding="utf-8", newline="") as fh:
            fh.write(script)
    return 0


def cmd_continuum(args) -> int:
    cfg = _run_config(args, "continuum")
    _require(cfg.mu > 0, "--mu", "mu > 0 (the oscillatory oracle needs a massive tail)", cfg.mu)
    qcfg = _quad_config(cfg)
    rows = []
    for n1 in range(cfg.n_max + 1):
        r = _x_of(cfg, n1)
        if r <= 0:
            continue
        closed = continuum_yukawa(r, cfg.mu, cfg.g)
        oracle = cfg.g * cfg.g * continuum_yukawa_oracle(r, cfg.mu, qcfg)
        rows.append(ResultRow((n1, r), (closed, oracle, abs(closed - oracle))))
    lines = _table(cfg, ["index", "r", "yukawa_closed", "yukawa_oracle", "abs_difference"], rows)
    _emit(lines, cfg.out_path)
    return 0


def cmd_greens(args) -> int:
    cfg = _run_config(args, "greens")
    _require(cfg.mu > 0, "--mu", "mu > 0", cfg.mu)
    qcfg = _quad_config(cfg)
    rows = []
    for n1 in range(cfg.n_max + 1):
        axis = g_sharp_axis(n1, cfg.mu, qcfg)
        full = g_sharp((n1, 0, 0), (0, 0, 0), cfg.mu, qcfg)
        rows.append(ResultRow(
            (n1,),
            (axis.value.real, axis.value.imag, axis.err_estimate,
             full.value.real, full.value.imag, full.err_estimate,
             abs(axis.value - full.value)),
        ))
    lines = _table(cfg, ["index", "axis_re", "axis_im", "axis_err",
                         "tensor_re", "tensor_im", "tensor_err", "abs_difference"], rows)
    _emit(lines, cfg.out_path)
    return 0


def _parse_triple(text: str, flag: str) -> tuple[float, float, float]:
    parts = text.split(",")
    try:
        triple = tuple(float(p) for p in parts)
    except ValueError:
        triple = ()
    # nan and inf parse as floats but are not reals
    _require(len(triple) == 3 and all(map(math.isfinite, triple)),
             flag, "three comma-separated reals", repr(text))
    return triple


def cmd_moller(args) -> int:
    cfg = _run_config(args, "moller")
    _require(cfg.mu > 0, "--mu", "mu > 0", cfg.mu)
    _require(args.vertex_n_max >= 1, "--vertex-n-max", "n_max >= 1", args.vertex_n_max)
    spins = tuple(int(s) for s in args.spins.split(",")) if args.spins else (1, 1, 1, 1)
    _require(len(spins) == 4 and all(s in (1, 2) for s in spins),
             "--spins", "four comma-separated values in {1,2}", args.spins)
    kin = MollerKinematics(
        p1=_parse_triple(args.p1, "--p1"),
        p2=_parse_triple(args.p2, "--p2"),
        p1_out=_parse_triple(args.p1_out, "--p1-out"),
        p2_out=_parse_triple(args.p2_out, "--p2-out"),
        m=cfg.m, mu=cfg.mu, g=cfg.g,
        r1=spins[0], r2=spins[1], r1_out=spins[2], r2_out=spins[3],
    )
    trunc = VertexTruncation(args.vertex_n_max)
    qcfg = _quad_config(cfg)
    element = moller_reduced_element(kin, trunc, qcfg)
    continuum = continuum_moller_reduced(kin)
    row = ResultRow(
        (args.vertex_n_max,),
        (element.real, element.imag, continuum.real,
         kin.conservation_defect, kin.momentum_defect,
         kin.low_momentum_ok, trunc.tail_report),
    )
    lines = _table(cfg, ["vertex_n_max", "element_re", "element_im", "continuum_re",
                         "energy_defect", "momentum_defect", "low_momentum_ok",
                         "truncation_shift"], [row])
    _emit(lines, cfg.out_path)
    return 0


def cmd_check(args) -> int:
    results = run_suite(args.suite)
    lines = []
    for res in results:
        lines.append(json.dumps({
            "name": res.name,
            "passed": res.passed,
            "tolerance": res.tolerance,
            "observed": res.observed,
            "seconds": round(res.seconds, 3),
            "detail": res.detail,
        }, sort_keys=True))
    failures = [res for res in results if not res.passed]
    lines.append(json.dumps({
        "suite": args.suite,
        "total": len(results),
        "failed": len(failures),
    }, sort_keys=True))
    _emit(lines, args.out or "")
    if failures:
        for res in failures:
            print(f"FAILED: {res.name} (observed {res.observed:.6g}, "
                  f"tolerance {res.tolerance:.6g})", file=sys.stderr)
        return 1
    return 0


def _add_quad_flags(sub) -> None:
    sub.add_argument("--gh-nodes", type=int, default=64,
                     help="tensor Gauss-Hermite nodes per axis (>= 8)")
    sub.add_argument("--tol", type=float, default=1e-8,
                     help="refinement tolerance; nonconvergence trips at 100x this")
    sub.add_argument("--no-refine", action="store_true",
                     help="skip node doubling; error estimates become NaN")


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", default="", help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "tsv"), default="csv")
    sub.add_argument("--x-map", choices=("index", "sqrt2n1"), default="sqrt2n1",
                     help="map from lattice index to the x column: the index "
                          "itself, or the radial estimate sqrt(2 index + 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermgrid",
        description="Non-singular lattice potentials, Green's functions, and "
                    "the one-boson-exchange element, tabulated as CSV.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("yukawa", help="massive axis potential table W(index; mu)")
    p.add_argument("--mu", type=float, required=True, help="boson mass (> 0)")
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    _add_quad_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_yukawa)

    p = subs.add_parser("coulomb", help="massless closed-form table with continuum comparison")
    p.add_argument("--n-max", type=int, default=10, dest="n_max",
                   help="largest half-index; rows run over even indices 0..2*n_max")
    _add_quad_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_coulomb)

    p = subs.add_parser("continuum", help="continuum potential vs oscillatory-integral oracle")
    p.add_argument("--mu", type=float, required=True, help="boson mass (> 0)")
    p.add_argument("--g", type=float, default=1.0, help="coupling")
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    _add_quad_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_continuum)

    p = subs.add_parser("greens", help="cross-method Green's function table (3D vs reduced)")
    p.add_argument("--mu", type=float, required=True, help="boson mass (> 0)")
    p.add_argument("--n-max", type=int, default=6, dest="n_max")
    _add_quad_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_greens)

    p = subs.add_parser("moller", help="one-boson-exchange reduced element at given kinematics")
    p.add_argument("--p1", required=True, help="incoming momentum 1, e.g. 0.1,0,0")
    p.add_argument("--p2", required=True, help="incoming momentum 2")
    p.add_argument("--p1-out", required=True, dest="p1_out", help="outgoing momentum 1")
    p.add_argument("--p2-out", required=True, dest="p2_out", help="outgoing momentum 2")
    p.add_argument("--m", type=float, default=1.0, help="fermion mass (> 0)")
    p.add_argument("--mu", type=float, required=True, help="boson mass (> 0)")
    p.add_argument("--g", type=float, default=1.0, help="coupling")
    p.add_argument("--spins", default="1,1,1,1", help="r1,r2,r1',r2', each 1 or 2")
    p.add_argument("--vertex-n-max", type=int, default=64, dest="vertex_n_max")
    _add_quad_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_moller)

    p = subs.add_parser("check", help="run the invariant suite")
    p.add_argument("suite", choices=("fast", "full"))
    p.add_argument("--out", default="", help="report file (default: stdout)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonconvergenceError as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return 3
    except (HermgridError, ValueError, ArithmeticError) as exc:
        # inputs past what the arithmetic can represent (for example an
        # overflowing --m) are still bad flags, not failed checks
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
