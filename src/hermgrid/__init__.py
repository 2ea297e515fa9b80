"""hermgrid: Hermite-basis difference calculus on a discrete phase space.

Space is an integer lattice of oscillator indices, time stays continuous,
and momentum integrals connect the two through phase-carrying normalized
Hermite functions.  The package provides the difference operators and their
eigenfunctions, Dirac spinor algebra with the discrete mode equation, the
static Green's functions whose coincidence values are finite (the
non-singular Yukawa and Coulomb potentials), and the second-order
two-fermion exchange element, plus a CLI that tabulates everything as CSV.
"""

import importlib as _importlib
import os as _os

# honor the documented thread-count knob before any numeric library spins
# up its pools; this is the only environment variable the package reads
_threads = _os.environ.get("HERMGRID_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

# each exported name under the module that defines it
_EXPORTS = {
    "errors": ("BoxTooSmallError", "DomainError", "HermgridError", "NonconvergenceError",
               "OrderTooLargeError", "TruncationWarning"),
    "closed": ("QuadratureConfig", "GreensValue", "continuum_yukawa", "coulomb_even",
               "g_sharp_axis", "yukawa_coincidence"),
    "hermite": ("hermite_poly", "xi", "xi_delta_sharp"),
    "grid": ("GridBox", "GridFunction", "delta_bwd", "delta_circle", "delta_fwd", "delta_sharp",
             "kg_mode_residual", "laplacian_sharp", "mode_function", "restrict"),
    "dirac": ("GammaSet", "dirac_adjoint", "energy", "gamma_set", "low_momentum_u",
              "orthonormality_check", "s_plus_green", "spin_sum", "spinor_u", "spinor_v"),
    "greens": ("continuum_yukawa_oracle", "coulomb_quadrature", "difference_equation_residual",
               "g_sharp", "w_sharp"),
    "scattering": ("MollerKinematics", "VertexTruncation", "continuum_moller_reduced",
                   "moller_reduced_element", "vertex_axis_sum"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("checks", "cli", "closed", "dirac", "errors", "greens", "grid", "hermite",
               "quadrature", "scattering")

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """An exported name or a submodule, imported on first use and kept in
    the package's namespace, so `import hermgrid` loads no numpy and a
    closed form loads only the module that defines it (PEP 562)."""
    if name in _HOME:
        value = getattr(_importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value

