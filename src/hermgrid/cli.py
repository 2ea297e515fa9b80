"""Command-line surface: potential tables, cross-method comparisons, the
exchange element, and the invariant suites, emitted as deterministic CSV.

Output contract: UTF-8, newline line endings, `#`-prefixed header lines,
one column-name row, then data rows in index order.  The header is
`# command = <name>`, then one `# key = value` line for each flag the
subcommand takes, defaults included, in the order the parser registers
them (yukawa adds its closed coincidence value after them); a subcommand
takes only the flags it reads, so the header echoes exactly its inputs.
Floats are rendered with repr, the shortest string that round-trips to the
same double (at most 17 significant digits), so identical flags always
produce byte-identical files.

Exit codes: 0 success, 1 check-suite failure, 2 usage or flag-validation
error (also any domain or arithmetic error the flags lead to), 3 numerical
nonconvergence.  Warnings raised while the exchange element is computed
go to stderr as one `warning:` line each.

Each command's flags are registered by one function, listed with its help
text in _COMMANDS.  A call whose argv starts with a command parses with
that command's parser alone, built on its first call and reused for the
life of the process.  The root parser, which holds every command as a
subparser built from the same functions, is built only for an argv that
does not start with a command (no arguments, --help, an unknown command,
or a flag before the command), and to report arguments left unrecognized.
Importing the module builds nothing, and each handler imports the modules
it reads, so `yukawa` and `coulomb` run without numpy.  A command's `cmd_*`
handler is bound into its parser when that parser is built, so a caller
that replaces a handler must do so before the command's first call.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from functools import lru_cache

from .errors import HermgridError, NonconvergenceError


class _UsageError(Exception):
    pass


def _require(cond: bool, flag: str, accepted: str, got) -> None:
    if not cond:
        raise _UsageError(f"{flag}: accepted range is {accepted}, got {got}")


def _check_ranges(args) -> None:
    """The range checks of the flags the subcommand has, in one fixed order,
    so the first bad flag is the one reported."""
    flags = vars(args)
    # moller's --vertex-n-max fills n_max, so the header echoes the cutoff
    order_flag, order_min = ("--vertex-n-max", 1) if args.command == "moller" else ("--n-max", 0)
    order = (f"n_max >= {order_min}", lambda v: v >= order_min)
    if args.command == "greens":
        # row n1's proper-time column needs an (n1 // 2 + 1)-node rule: refuse
        # a row past the rule's cap before the rows below it are computed
        from .quadrature import GH_RULE_MAX

        top = 2 * GH_RULE_MAX - 1
        order = (f"0 <= n_max <= {top}", lambda v: 0 <= v <= top)
    checks = (
        *((f"--{key}", key, "a finite real", math.isfinite) for key in ("mu", "m", "g", "tol")),
        ("--mu", "mu", "mu >= 0", lambda v: v >= 0),
        ("--m", "m", "m > 0", lambda v: v > 0),
        (order_flag, "n_max", *order),
        ("--tol", "tol", "tol > 0", lambda v: v > 0),
    )
    for flag, key, accepted, ok in checks:
        if key in flags:
            _require(ok(flags[key]), flag, accepted, flags[key])


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


def _table(args, columns: list[str], rows: list[tuple],
           extra_header: list[tuple[str, str]] = ()) -> list[str]:
    sep = "," if args.format == "csv" else "\t"
    # the parsed flags in registration order, after the command; func is
    # the handler, not a flag
    lines = [f"# {key} = {_fmt(val)}" for key, val in vars(args).items() if key != "func"]
    for key, val in extra_header:
        lines.append(f"# {key} = {val}")
    lines.append(sep.join(columns))
    lines.extend(sep.join(_fmt(c) for c in row) for row in rows)
    return lines


def _x_of(args, index: int) -> float:
    if args.x_map == "index":
        return float(index)
    return math.sqrt(2.0 * index + 1.0)


def cmd_yukawa(args) -> int:
    from .closed import QuadratureConfig, g_sharp_axis, yukawa_coincidence

    _require(args.mu > 0, "--mu", "mu > 0 (the massless table is `coulomb`)", args.mu)
    qcfg = QuadratureConfig()
    closed = yukawa_coincidence(args.mu)
    rows = []
    for n1 in range(args.n_max + 1):
        gv = g_sharp_axis(n1, args.mu, qcfg)
        coincidence = closed if n1 == 0 else ""
        rows.append((n1, _x_of(args, n1), gv.value.real, gv.err_estimate, coincidence))
    lines = _table(args, ["index", "x", "w_sharp", "err_estimate", "closed_coincidence"],
                   rows, extra_header=[("coincidence_closed_form", repr(closed))])
    _emit(lines, args.out_path)
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
    from .closed import coulomb_even

    rows = []
    for half in range(args.n_max + 1):
        index = 2 * half
        x = _x_of(args, index)
        closed = coulomb_even(half)
        cont_w = 1.0 / (4.0 * math.pi * x) if x > 0 else ""
        cont_scaled = 1.0 / x if x > 0 else ""
        rows.append((index, x, closed, 0.0, cont_w, cont_scaled))
    lines = _table(args, ["index", "x", "w_sharp_closed", "err_estimate",
                          "continuum_w", "continuum_scaled"], rows)
    _emit(lines, args.out_path)
    if args.out_path:
        sep = "," if args.format == "csv" else "\t"
        xlabel = "index" if args.x_map == "index" else "sqrt(2 index + 1)"
        script = _GNUPLOT_TEMPLATE.format(sep=sep, xlabel=xlabel, data=args.out_path)
        with open(args.out_path + ".gp", "w", encoding="utf-8", newline="") as fh:
            fh.write(script)
    return 0


def cmd_continuum(args) -> int:
    from .closed import continuum_yukawa
    from .greens import continuum_yukawa_oracle

    _require(args.mu > 0, "--mu", "mu > 0 (the oscillatory oracle needs a massive tail)", args.mu)
    rows = []
    for n1 in range(args.n_max + 1):
        r = _x_of(args, n1)
        if r <= 0:
            continue
        closed = continuum_yukawa(r, args.mu, args.g)
        oracle = args.g * args.g * continuum_yukawa_oracle(r, args.mu)
        rows.append((n1, r, closed, oracle, abs(closed - oracle)))
    lines = _table(args, ["index", "r", "yukawa_closed", "yukawa_oracle", "abs_difference"], rows)
    _emit(lines, args.out_path)
    return 0


def cmd_greens(args) -> int:
    from .closed import QuadratureConfig, g_sharp_axis
    from .greens import g_proper_time

    _require(args.mu > 0, "--mu", "mu > 0", args.mu)
    qcfg = QuadratureConfig(tol=args.tol)
    rows = []
    for n1 in range(args.n_max + 1):
        axis = g_sharp_axis(n1, args.mu, qcfg)
        # the proper-time sum itself: g_sharp returns the axis value here
        full = g_proper_time((n1, 0, 0), (0, 0, 0), args.mu, qcfg)
        rows.append((n1, axis.value.real, axis.value.imag, axis.err_estimate,
                     full.value.real, full.value.imag, full.err_estimate,
                     abs(axis.value - full.value)))
    lines = _table(args, ["index", "axis_re", "axis_im", "axis_err",
                          "proper_time_re", "proper_time_im", "proper_time_err", "abs_difference"], rows)
    _emit(lines, args.out_path)
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


def _warning_line(message, category, *_) -> None:
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def cmd_moller(args) -> int:
    from .closed import QuadratureConfig
    from .scattering import (
        MollerKinematics,
        VertexTruncation,
        continuum_moller_reduced,
        moller_element_and_shift,
    )

    _require(args.mu > 0, "--mu", "mu > 0", args.mu)
    spins = args.spins.split(",")
    _require(len(spins) == 4 and all(s in ("1", "2") for s in spins),
             "--spins", "four comma-separated values in {1,2}", args.spins)
    r1, r2, r1_out, r2_out = map(int, spins)
    kin = MollerKinematics(
        p1=_parse_triple(args.p1, "--p1"),
        p2=_parse_triple(args.p2, "--p2"),
        p1_out=_parse_triple(args.p1_out, "--p1-out"),
        p2_out=_parse_triple(args.p2_out, "--p2-out"),
        m=args.m, mu=args.mu, g=args.g,
        r1=r1, r2=r2, r1_out=r1_out, r2_out=r2_out,
    )
    trunc = VertexTruncation(args.n_max)
    qcfg = QuadratureConfig(tol=args.tol)
    # the truncation warning, like any other on the way, is one stderr line,
    # whatever filter the caller set (python -W error included); the block
    # restores that filter afterwards
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _warning_line
        element, shift = moller_element_and_shift(kin, trunc, qcfg)
    continuum = continuum_moller_reduced(kin)
    row = (args.n_max, element.real, element.imag, continuum.real,
           kin.conservation_defect, kin.momentum_defect, kin.low_momentum_ok, shift)
    lines = _table(args, ["vertex_n_max", "element_re", "element_im", "continuum_re",
                          "energy_defect", "momentum_defect", "low_momentum_ok",
                          "truncation_shift"], [row])
    _emit(lines, args.out_path)
    return 0


def cmd_check(args) -> int:
    import json

    from .checks import run_suite

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


def _add_output_flags(sub, x_map: bool = True) -> None:
    # --x-map sits between the two so the header keeps its order
    sub.add_argument("--out", default="", dest="out_path", metavar="OUT",
                     help="output file (default: stdout)")
    if x_map:
        sub.add_argument("--x-map", choices=("index", "sqrt2n1"), default="sqrt2n1",
                         help="map from lattice index to the x column: the index "
                              "itself, or the radial estimate sqrt(2 index + 1)")
    sub.add_argument("--format", choices=("csv", "tsv"), default="csv")


def _yukawa_flags(p) -> None:
    p.add_argument("--mu", type=float, required=True, help="boson mass (> 0)")
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    _add_output_flags(p)
    p.set_defaults(func=cmd_yukawa)


def _coulomb_flags(p) -> None:
    p.add_argument("--n-max", type=int, default=10, dest="n_max",
                   help="largest half-index; rows run over even indices 0..2*n_max")
    _add_output_flags(p)
    p.set_defaults(func=cmd_coulomb)


def _continuum_flags(p) -> None:
    p.add_argument("--mu", type=float, required=True, help="boson mass (> 0)")
    p.add_argument("--g", type=float, default=1.0, help="coupling")
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    _add_output_flags(p)
    p.set_defaults(func=cmd_continuum)


def _greens_flags(p) -> None:
    p.add_argument("--mu", type=float, required=True, help="boson mass (> 0)")
    p.add_argument("--n-max", type=int, default=6, dest="n_max")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="a proper-time value whose bound exceeds 100x this exits 3")
    _add_output_flags(p, x_map=False)
    p.set_defaults(func=cmd_greens)


def _moller_flags(p) -> None:
    p.add_argument("--p1", required=True, help="incoming momentum 1, e.g. 0.1,0,0")
    p.add_argument("--p2", required=True, help="incoming momentum 2")
    p.add_argument("--p1-out", required=True, dest="p1_out", help="outgoing momentum 1")
    p.add_argument("--p2-out", required=True, dest="p2_out", help="outgoing momentum 2")
    p.add_argument("--mu", type=float, required=True, help="boson mass (> 0)")
    p.add_argument("--m", type=float, default=1.0, help="fermion mass (> 0)")
    p.add_argument("--g", type=float, default=1.0, help="coupling")
    p.add_argument("--spins", default="1,1,1,1", help="r1,r2,r1',r2', each 1 or 2")
    p.add_argument("--vertex-n-max", type=int, default=64, dest="n_max")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="a last coefficient shell that moves the element by more "
                        "than this prints a truncation warning")
    _add_output_flags(p, x_map=False)
    p.set_defaults(func=cmd_moller)


def _check_flags(p) -> None:
    p.add_argument("suite", choices=("fast", "full"))
    p.add_argument("--out", default="", help="report file (default: stdout)")
    p.set_defaults(func=cmd_check)


# each command's help line and the function that registers its flags, in
# the order the root parser lists them
_COMMANDS = {
    "yukawa": ("massive axis potential table W(index; mu)", _yukawa_flags),
    "coulomb": ("massless closed-form table with continuum comparison", _coulomb_flags),
    "continuum": ("continuum potential vs oscillatory-integral oracle", _continuum_flags),
    "greens": ("closed-form axis values vs the 3D proper-time sum", _greens_flags),
    "moller": ("one-boson-exchange reduced element at given kinematics", _moller_flags),
    "check": ("run the invariant suite", _check_flags),
}


@lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser, built on its first call; see the module docstring."""
    parser = argparse.ArgumentParser(prog=f"hermgrid {name}")
    _COMMANDS[name][1](parser)
    return parser


def _root_parser() -> argparse.ArgumentParser:
    """Every command as a subparser, built anew for each argv that names
    none first, and for each report of unrecognized arguments."""
    parser = argparse.ArgumentParser(
        prog="hermgrid",
        description="Non-singular lattice potentials, Green's functions, and "
                    "the one-boson-exchange element, tabulated as CSV.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, register) in _COMMANDS.items():
        register(subs.add_parser(name, help=text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        args, rest = _command_parser(name).parse_known_args(argv[1:], argparse.Namespace(command=name))
        if rest:
            # the root parser's message, as for any command's subparser
            _root_parser().error(f"unrecognized arguments: {' '.join(rest)}")
        return args
    return _root_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        _check_ranges(args)
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
