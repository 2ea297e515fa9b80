"""The package's public surface and its module boundaries.

A name joins __all__ only when production code needs it, so a change to
the exported list shows here and has to be made on purpose.  Modules share
code through public names only: no module imports another hermgrid
module's underscore name.  Every order, index component, cutoff and box
extent passes one check, so a fraction, an infinity or NaN is refused alike.
"""

import ast
import inspect
import math
import pathlib
import warnings

import numpy as np
import pytest

import hermgrid

EXPORTS = [
    "BoxTooSmallError", "DomainError", "GammaSet", "GreensValue", "GridBox",
    "GridFunction", "HermgridError", "MollerKinematics", "NonconvergenceError",
    "OrderTooLargeError", "QuadratureConfig", "TruncationWarning",
    "VertexTruncation", "__version__", "continuum_moller_reduced",
    "continuum_yukawa", "continuum_yukawa_oracle", "coulomb_even",
    "coulomb_quadrature", "delta_bwd", "delta_circle", "delta_fwd",
    "delta_sharp", "difference_equation_residual", "dirac_adjoint", "energy",
    "g_sharp", "g_sharp_axis", "gamma_set", "hermite_poly",
    "kg_mode_residual", "laplacian_sharp",
    "low_momentum_u", "mode_function", "moller_reduced_element",
    "orthonormality_check", "restrict", "s_plus_green", "spin_sum",
    "spinor_u", "spinor_v", "vertex_axis_sum", "w_sharp", "xi",
    "xi_delta_sharp", "yukawa_coincidence",
]


def test_exported_names_are_pinned():
    assert sorted(hermgrid.__all__) == EXPORTS
    assert len(EXPORTS) == 46
    for name in EXPORTS:
        assert hasattr(hermgrid, name), name


def test_no_module_imports_another_modules_private_name():
    package = pathlib.Path(hermgrid.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "hermgrid"
            if internal:
                offenders.extend(f"{path.name}: {alias.name}" for alias in node.names
                                 if alias.name.startswith("_"))
    assert offenders == []


def test_no_function_writes_into_its_arguments():
    # results come back by return: no function assigns to an attribute of
    # one of its parameters (a method's own self aside)
    package = pathlib.Path(hermgrid.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = func.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs} - {"self"}
            for node in ast.walk(func):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                           else [])
                offenders.extend(f"{path.name}:{node.lineno} {func.name}" for t in targets
                                 if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                                 and t.value.id in params)
    assert offenders == []


CFG = hermgrid.QuadratureConfig()

# every entry point that takes an order, an index triple, a cutoff or a box
# extent, called with the bad value v in that place
INTEGER_ARGUMENTS = {
    "g_sharp": lambda v: hermgrid.g_sharp((v, 0, 0), (0, 0, 0), 1.0, CFG),
    "g_sharp_axis": lambda v: hermgrid.g_sharp_axis(v, 1.0, CFG),
    "s_plus_green": lambda v: hermgrid.s_plus_green((0, 0, 0), (0, v, 0), 0.1, 1.0, CFG),
    "coulomb_even": lambda v: hermgrid.coulomb_even(v),
    "coulomb_quadrature": lambda v: hermgrid.coulomb_quadrature(v, CFG),
    "w_sharp": lambda v: hermgrid.w_sharp(v, 1.0, CFG),
    "difference_equation_residual":
        lambda v: hermgrid.difference_equation_residual((0, 0, v), (0, 0, 0), 1.0, CFG),
    "VertexTruncation": lambda v: hermgrid.VertexTruncation(v),
    "hermite_poly": lambda v: hermgrid.hermite_poly(v, 0.5),
    "xi": lambda v: hermgrid.xi(v, 0.5),
    "xi_delta_sharp": lambda v: hermgrid.xi_delta_sharp(v, 0.5),
    "xi_axis": lambda v: hermgrid.hermite.xi_axis(v, 0.5),
    "GridBox": lambda v: hermgrid.GridBox((v, 2, 2)),
    "GridFunction": lambda v: hermgrid.GridFunction(hermgrid.GridBox((3, 3, 3)), np.zeros((3, 3, 3)), (v, 0, 0)),
    "restrict": lambda v: hermgrid.restrict(
        hermgrid.GridFunction(hermgrid.GridBox((3, 3, 3)), np.zeros((3, 3, 3))), (v, 0, 0), (3, 3, 3)),
}


@pytest.mark.parametrize("value", [2.5, math.inf, math.nan], ids=["fraction", "inf", "nan"])
@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_fractions_infinities_and_nan(name, value):
    # one shared check turns each into a ValueError that names the rule,
    # never an OverflowError or TypeError from int() or list indexing
    with pytest.raises(ValueError, match=r"must be an integer >= \d, got"):
        INTEGER_ARGUMENTS[name](value)


def test_options_no_caller_varies_are_constants():
    from hermgrid.checks import moller_oracle_element

    assert list(inspect.signature(moller_oracle_element).parameters) == ["kin", "trunc"]
    assert list(inspect.signature(hermgrid.kg_mode_residual).parameters) == ["k", "mu", "box"]


def _kinematics(m=1.0, mu=1.0, g=1.0):
    zero = (0.0, 0.0, 0.0)
    return hermgrid.MollerKinematics(zero, zero, zero, zero, m=m, mu=mu, g=g)


BOX = hermgrid.GridBox((3, 3, 3))
WIDE = hermgrid.GridBox((5, 5, 5))
FAR = (1e200, 0.0, 0.0)

# out-of-range physics inputs, each with the typed error it raises, or None
# where a finite value exists and comes back: never an OverflowError,
# IndexError, AttributeError or a numpy warning
OUT_OF_RANGE = {
    "spin_sum-nan": (lambda: hermgrid.spin_sum((math.nan, 0, 0), 1.0), hermgrid.DomainError),
    "element-m": (lambda: hermgrid.moller_reduced_element(
        _kinematics(m=1e300), hermgrid.VertexTruncation(8), CFG), hermgrid.DomainError),
    "element-g": (lambda: hermgrid.moller_reduced_element(
        _kinematics(g=1e200), hermgrid.VertexTruncation(8), CFG), hermgrid.DomainError),
    "kinematics-m": (lambda: _kinematics(m=-1.0), hermgrid.DomainError),
    "kinematics-mu": (lambda: _kinematics(mu=math.nan), hermgrid.DomainError),
    "kinematics-g": (lambda: _kinematics(g=math.inf), hermgrid.DomainError),
    "mode_function": (lambda: hermgrid.mode_function(BOX, (0.1, 0.2)), hermgrid.DomainError),
    "kg_mode_residual": (lambda: hermgrid.kg_mode_residual((0.1, 0.2), 1.0, BOX), hermgrid.DomainError),
    "GridFunction": (lambda: hermgrid.GridFunction(BOX, np.zeros((3, 3, 3)).tolist()), ValueError),
    # the mode underflows to zero, which solves the equation exactly
    "kg_mode_residual-far": (lambda: hermgrid.kg_mode_residual(FAR, 1.0, WIDE), None),
    "kg_mode_residual-mu": (lambda: hermgrid.kg_mode_residual((0.1, 0, 0), 1e200, WIDE), hermgrid.DomainError),
    "low_momentum_u-far": (lambda: hermgrid.low_momentum_u(1, FAR, 1.0), hermgrid.DomainError),
    "low_momentum_u-nan-m": (lambda: hermgrid.low_momentum_u(1, (0.1, 0, 0), math.nan), hermgrid.DomainError),
    "low_momentum_u-negative-m": (lambda: hermgrid.low_momentum_u(1, (0.1, 0, 0), -1.0), hermgrid.DomainError),
    "continuum_moller_reduced-far": (lambda: hermgrid.continuum_moller_reduced(
        hermgrid.MollerKinematics(FAR, (0, 0, 0), (0, 0, 0), (0, 0, 0), m=1.0, mu=1.0, g=1.0)), None),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_out_of_range_physics_inputs_raise_typed_errors(name):
    call, error = OUT_OF_RANGE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert np.isfinite(call())
        else:
            with pytest.raises(error):
                call()


def test_large_momenta_give_finite_energies_and_spinors():
    assert hermgrid.energy((1e200, 0, 0), 1.0) == 1e200
    assert np.all(np.isfinite(hermgrid.spinor_u(1, (1e200, 0, 0), 1.0)))
    # each inner product cancels two terms of size E/m, and the check is
    # relative to that size: a few ulps at any momentum
    assert hermgrid.orthonormality_check(FAR, 1.0) <= 1e-15


# the physics modules build on the base layer alone, never on each other
BASE_LAYER = {"errors", "hermite", "quadrature"}


@pytest.mark.parametrize("module", ["dirac", "greens", "grid", "scattering"])
def test_physics_modules_import_only_the_base_layer(module):
    path = pathlib.Path(hermgrid.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hermgrid":
            imported.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            imported.update(a.name.partition(".")[2] for a in node.names if a.name.split(".")[0] == "hermgrid")
    assert imported <= BASE_LAYER, sorted(imported - BASE_LAYER)
