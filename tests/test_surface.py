"""The package's public surface and its module boundaries.

A name joins __all__ only when production code needs it, so a change to
the exported list shows here and has to be made on purpose.  Modules share
code through public names only: no module imports another hermgrid
module's underscore name.
"""

import ast
import pathlib

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
    "incomplete_gamma_neg_half", "kg_mode_residual", "laplacian_sharp",
    "low_momentum_u", "mode_function", "moller_reduced_element",
    "orthonormality_check", "restrict", "s_plus_green", "spin_sum",
    "spinor_u", "spinor_v", "vertex_axis_sum", "w_sharp", "xi",
    "xi_delta_sharp", "yukawa_coincidence",
]


def test_exported_names_are_pinned():
    assert sorted(hermgrid.__all__) == EXPORTS
    assert len(EXPORTS) == 47
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
