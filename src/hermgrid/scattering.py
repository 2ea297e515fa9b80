"""Truncated vertex sums and the second-order two-fermion exchange element.

An interaction vertex on the index lattice carries a triple basis sum in
place of the continuum momentum delta.  That object is distributional (its
pointwise partial sums need not converge), so production code never
evaluates it on its own: the exchange element reorganizes both vertices
through the static Green's function, where every sum is damped by the
boson denominator.

The reduced element in the low-momentum regime is

    (g^2 / 4 pi) * [m^2 / sqrt(E1' E2' E1 E2)]
        * sum_{n, nhat <= n_max} A_n G(n, nhat; mu) B_nhat

with per-axis coefficients A_n = prod_j xi_{n_j}(p1_j) conj(xi_{n_j}(p1'_j))
and B likewise from the second fermion line.  Because both coefficient
families factorize over axes, the double sum collapses to a single 3D
quadrature of per-axis profile polynomials against the shared denominator;
that is an exact algebraic identity, not an approximation, and turns an
O(n_max^6) sum into a 3D contraction that the proper-time kernel separates.

The profiles, with their Taylor data at the origin for the pole
correction, depend only on the momenta, the cutoff and the node count.
They are built in one batched real pass over the axes, both fermion lines
and both truncations (the element and its copy with the top coefficient
shell dropped, which measures truncation), and kept read-only in a bounded
LRU keyed on just those.  The boson mass enters through the contraction
alone, greens.green_contract, on the proper-time lattice of the Green's
values (greens.g_proper_time): it folds the profiles onto the x >= 0 half
grid, multiplies them by the cached table e^{-t_m x_i^2} of its rule, and
sums the rule's terms, pole correction included.  So a second mass at the same kinematics pays
only for that contraction.  An independent sum-the-vertices-first
evaluation lives in the checks module and serves as the correctness oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, TruncationWarning
from .greens import green_contract, origin_rows
from .hermite import phi_row, xi_axis
from .quadrature import QuadratureConfig, weighted_phi_table

_SQRT_PI = math.sqrt(math.pi)


@dataclass
class VertexTruncation:
    """Per-axis cutoff for the vertex sums, plus the truncation shift that
    moller_reduced_element writes back after each evaluation."""

    n_max: int = 64
    tail_report: float = 0.0

    def __post_init__(self) -> None:
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max}")
        self.n_max = int(self.n_max)


def vertex_axis_sum(p: float, q: float, k: float, sign_q: int, sign_k: int,
                    trunc: VertexTruncation) -> complex:
    """Truncated one-axis vertex sum sum_{n=0}^{n_max} xi_n(p) c(xi_n(q))
    c(xi_n(k)), where c conjugates its argument when the sign is -1.

    The untruncated sum is a distribution, so no convergence is claimed.
    """
    if sign_q not in (1, -1) or sign_k not in (1, -1):
        raise ValueError(f"signs must be +1 or -1, got sign_q={sign_q}, sign_k={sign_k}")
    a = xi_axis(trunc.n_max, p)
    b = xi_axis(trunc.n_max, q)
    c = xi_axis(trunc.n_max, k)
    if sign_q == -1:
        b = b.conj()
    if sign_k == -1:
        c = c.conj()
    return complex((a * b * c).sum())


def _vec3(p) -> tuple[float, float, float]:
    t = tuple(float(v) for v in p)
    if len(t) != 3 or not all(map(math.isfinite, t)):
        raise ValueError(f"momentum needs three finite components, got {p!r}")
    return t


@dataclass(frozen=True)
class MollerKinematics:
    """External momenta, spins, masses, and coupling for the one-boson
    exchange element.  Energy conservation is not enforced; its defect is
    reported so callers can see how far off shell the configuration sits."""

    p1: tuple[float, float, float]
    p2: tuple[float, float, float]
    p1_out: tuple[float, float, float]
    p2_out: tuple[float, float, float]
    m: float
    mu: float
    g: float
    r1: int = 1
    r2: int = 1
    r1_out: int = 1
    r2_out: int = 1

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p1_out", "p2_out"):
            object.__setattr__(self, name, _vec3(getattr(self, name)))
        if not (self.m > 0 and math.isfinite(self.m)):
            raise ValueError(f"m must be positive and finite, got {self.m}")
        if not (self.mu >= 0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be nonnegative and finite, got {self.mu}")
        if not math.isfinite(self.g):
            raise ValueError(f"g must be finite, got {self.g}")
        for name in ("r1", "r2", "r1_out", "r2_out"):
            if getattr(self, name) not in (1, 2):
                raise ValueError(f"{name} must be 1 or 2, got {getattr(self, name)}")

    def _energy(self, p: tuple[float, float, float]) -> float:
        return math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2 + self.m ** 2)

    @property
    def energies(self) -> tuple[float, float, float, float]:
        """(E1, E2, E1', E2')."""
        return (self._energy(self.p1), self._energy(self.p2),
                self._energy(self.p1_out), self._energy(self.p2_out))

    @property
    def conservation_defect(self) -> float:
        """|E1' + E2' - E1 - E2|, the factored-out energy-delta mismatch."""
        e1, e2, e1o, e2o = self.energies
        return abs(e1o + e2o - e1 - e2)

    @property
    def momentum_defect(self) -> float:
        """Largest component of p1 + p2 - p1' - p2'."""
        return max(
            abs(self.p1[a] + self.p2[a] - self.p1_out[a] - self.p2_out[a])
            for a in range(3)
        )

    @property
    def low_momentum_ok(self) -> bool:
        """True when every external momentum satisfies ||p|| < m/5, the
        validity window of the static-limit reduction."""
        lim = self.m / 5.0
        return all(
            math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2) < lim
            for p in (self.p1, self.p2, self.p1_out, self.p2_out)
        )

    @property
    def prefactor(self) -> float:
        """(g^2 / 4 pi) m^2 / sqrt(E1' E2' E1 E2)."""
        e1, e2, e1o, e2o = self.energies
        return (self.g ** 2 / (4.0 * math.pi)) * self.m ** 2 / math.sqrt(e1o * e2o * e1 * e2)


# An entry holds 3 x 2 x n_nodes doubles plus four, so 128 entries take at
# most 3.2 MB at the largest node count the quadrature accepts (512, the
# fine level of gh_nodes = 256): room for a few dozen kinematics, each
# revisited at further boson masses.
@lru_cache(maxsize=128)
def _profiles(momenta: tuple[float, ...], n_max: int, n_nodes: int) -> tuple[np.ndarray, ...]:
    """Weighted node profiles q (axis, truncation, node) and pole-model
    data c0, c2 (per truncation) of the coefficient double sum at cutoff
    n_max and with its top shell dropped; momenta holds p1, p2, p1', p2'.

    Per axis, line 1 carries c_n i^n and line 2 c_n conj(i^n), where the
    pair's own phases cancel in c_n = xi_n(p) conj(xi_n(p')), leaving
    phi_n(p) phi_n(p') e^{-(p^2+p'^2)/2}/sqrt(pi).  With s_n = (-1)^(n//2),
    i^n is s_n for even n and i s_n for odd n, so the profiles are
    L = L_even + i L_odd and R = R_even - i R_odd with real parts, and
    Re(L R) = L_even R_even + L_odd R_odd; Im(L R) is odd in x and
    integrates to zero against the even denominator.  One matrix product
    with the weighted node table (quadrature.weighted_phi_table) gives every
    parity part of both lines, axes and truncations; one with the origin
    table (greens.origin_rows) gives their Taylor data for the pole
    correction.
    """
    p = np.array(momenta).reshape(2, 6)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = phi_row(n_max, p.ravel())
        coef = vals[:, :6] * vals[:, 6:] * (np.exp(-0.5 * (p[0] * p[0] + p[1] * p[1])) / _SQRT_PI)
    if not np.isfinite(coef).all():
        # phi_n(p) overflows where e^{-p^2/2} underflows: inf * 0
        raise DomainError(f"exchange coefficients are not finite at momenta {momenta} "
                          f"and n_max = {n_max}")
    order = np.arange(n_max + 1)
    signed = np.where(order // 2 % 2, -coef.T, coef.T)
    # mask[t, parity, n]: n has that parity and truncation t keeps it
    # (t = 1 drops the top shell n_max)
    parity = np.stack([order % 2 == 0, order % 2 == 1])
    mask = np.stack([parity, parity & (order < n_max)])
    # batch (truncation, parity, line, axis) of coefficient rows
    batch = (mask[:, :, None, :] * signed[None, None, :, :]).reshape(24, n_max + 1)
    # each profile carries the square root of the weights, so their products
    # carry the weights
    prof = (batch @ weighted_phi_table(n_max, n_nodes)).reshape(2, 2, 2, 3, n_nodes)
    q = prof[:, 0, 0] * prof[:, 0, 1] + prof[:, 1, 0] * prof[:, 1, 1]
    # origin value and second derivative of the even parts, first
    # derivative of the odd ones (the others vanish by parity)
    orig = (batch @ origin_rows(n_max)).reshape(2, 2, 2, 3, 3)
    l0, l2, r0, r2 = orig[:, 0, 0, :, 0], orig[:, 0, 0, :, 2], orig[:, 0, 1, :, 0], orig[:, 0, 1, :, 2]
    l1, r1 = orig[:, 1, 0, :, 1], orig[:, 1, 1, :, 1]
    g0 = l0 * r0
    g2 = 0.5 * (l2 * r0 + 2.0 * l1 * r1 + l0 * r2)
    c0 = g0[:, 0] * g0[:, 1] * g0[:, 2]
    c2 = g2[:, 0] * g0[:, 1] * g0[:, 2] + g0[:, 0] * g2[:, 1] * g0[:, 2] + g0[:, 0] * g0[:, 1] * g2[:, 2]
    q = np.ascontiguousarray(q.transpose(1, 0, 2))
    for a in (q, c0, c2):
        a.setflags(write=False)
    return q, c0, c2


def moller_reduced_element(kin: MollerKinematics, trunc: VertexTruncation,
                           cfg: QuadratureConfig) -> complex:
    """Reduced one-boson-exchange element at the given kinematics.

    Exactly zero on any spin mismatch, and DomainError unless mu > 0; both
    are decided before any profile is built.  The coefficient double sum is
    evaluated through the factorized profile contraction described in the
    module docstring, sharing the proper-time kernel and pole handling with
    the Green's function route.  Truncation health is estimated from the
    same contraction with the top coefficient shell dropped: when that last
    included shell moves the element by more than cfg.tol, a
    TruncationWarning is issued (the first dropped shell is comparable to
    the last included one for the slowly decaying sums this models).  A
    coefficient, element or shift that is not finite raises DomainError.
    """
    if kin.r1 != kin.r1_out or kin.r2 != kin.r2_out:
        return 0j
    if not kin.mu > 0:
        raise DomainError(f"the exchange element needs mu > 0, got {kin.mu}")
    n_nodes = 2 * cfg.gh_nodes if cfg.refine else cfg.gh_nodes
    q, c0, c2 = _profiles(kin.p1 + kin.p2 + kin.p1_out + kin.p2_out, trunc.n_max, n_nodes)
    full, dropped = green_contract(q[0], q[1], q[2], c0, c2, kin.mu, n_nodes)
    prefactor = kin.prefactor
    element = prefactor * complex(full)
    shift = abs(full - dropped) * prefactor
    if not (math.isfinite(element.real) and math.isfinite(shift)):
        raise DomainError(f"the exchange element is not finite here: {element} "
                          f"(truncation shift {shift})")
    trunc.tail_report = float(shift)
    if shift > cfg.tol:
        warnings.warn(
            f"last included coefficient shell moved the element by {shift:.3e} "
            f"(> tol {cfg.tol:.3e}); raise n_max past {trunc.n_max}",
            TruncationWarning,
            stacklevel=2,
        )
    return element


def continuum_moller_reduced(kin: MollerKinematics) -> complex:
    """Continuum counterpart: prefactor / (||q||^2 + mu^2) with transfer
    q = p1 - p1', the value the discrete element should approach for
    well-resolved low-momentum kinematics."""
    q2 = sum((kin.p1[a] - kin.p1_out[a]) ** 2 for a in range(3))
    denom = q2 + kin.mu ** 2
    if denom == 0:
        raise DomainError("zero momentum transfer at mu = 0 has no continuum value")
    return complex(kin.prefactor / denom)
