"""hermgrid: Hermite-basis difference calculus on a discrete phase space.

Space is an integer lattice of oscillator indices, time stays continuous,
and momentum integrals connect the two through phase-carrying normalized
Hermite functions.  The package provides the difference operators and their
eigenfunctions, Dirac spinor algebra with the discrete mode equation, the
static Green's functions whose coincidence values are finite (the
non-singular Yukawa and Coulomb potentials), and the second-order
two-fermion exchange element, plus a CLI that tabulates everything as CSV.
"""

import os as _os

# honor the documented thread-count knob before any numeric library spins
# up its pools; this is the only environment variable the package reads
_threads = _os.environ.get("HERMGRID_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .errors import (
    BoxTooSmallError,
    DomainError,
    HermgridError,
    NonconvergenceError,
    OrderTooLargeError,
    TruncationWarning,
)
from .quadrature import QuadratureConfig
from .hermite import hermite_poly, xi, xi_delta_sharp
from .grid import (
    GridBox,
    GridFunction,
    delta_bwd,
    delta_circle,
    delta_fwd,
    delta_sharp,
    kg_mode_residual,
    laplacian_sharp,
    mode_function,
    restrict,
)
from .dirac import (
    GammaSet,
    dirac_adjoint,
    energy,
    gamma_set,
    low_momentum_u,
    orthonormality_check,
    s_plus_green,
    spin_sum,
    spinor_u,
    spinor_v,
)
from .greens import (
    GreensValue,
    continuum_yukawa,
    continuum_yukawa_oracle,
    coulomb_even,
    coulomb_quadrature,
    difference_equation_residual,
    g_sharp,
    g_sharp_axis,
    w_sharp,
    yukawa_coincidence,
)
from .scattering import (
    MollerKinematics,
    VertexTruncation,
    continuum_moller_reduced,
    moller_reduced_element,
    vertex_axis_sum,
)

__version__ = "0.1.0"

__all__ = [
    "BoxTooSmallError",
    "DomainError",
    "HermgridError",
    "NonconvergenceError",
    "OrderTooLargeError",
    "TruncationWarning",
    "QuadratureConfig",
    "hermite_poly",
    "xi",
    "xi_delta_sharp",
    "GridBox",
    "GridFunction",
    "delta_bwd",
    "delta_circle",
    "delta_fwd",
    "delta_sharp",
    "kg_mode_residual",
    "laplacian_sharp",
    "mode_function",
    "restrict",
    "GammaSet",
    "dirac_adjoint",
    "energy",
    "gamma_set",
    "low_momentum_u",
    "orthonormality_check",
    "s_plus_green",
    "spin_sum",
    "spinor_u",
    "spinor_v",
    "GreensValue",
    "continuum_yukawa",
    "continuum_yukawa_oracle",
    "coulomb_even",
    "coulomb_quadrature",
    "difference_equation_residual",
    "g_sharp",
    "g_sharp_axis",
    "w_sharp",
    "yukawa_coincidence",
    "MollerKinematics",
    "VertexTruncation",
    "continuum_moller_reduced",
    "moller_reduced_element",
    "vertex_axis_sum",
    "__version__",
]
