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
families factorize over axes, the double sum collapses to one integral over
k of per-axis profile polynomials against the shared denominator; that is
an exact algebraic identity, not an approximation, and turns an O(n_max^6)
sum into a 3D integral.  Written in proper time t, with s = 1/(1 + t), the
integral over each axis is sqrt(s) times a polynomial Q_a(s) of degree
n_max, and the element is a sum of prod_a Q_a(s) over a tail of the
Green's values' lattice per mass (quadrature.pt_tail).

Each Q_a, for the element and for its copy with the top coefficient shell
dropped (which measures truncation), is an exact scaled Gauss-Hermite sum
at the n_max + 1 Chebyshev points of s.  These depend only on the momenta
and the cutoff: they are built in one batched pass over the axes and both
fermion lines and kept read-only in a bounded LRU keyed on just those.  The
boson mass enters through the lattice alone, and one cached barycentric
matrix per mass and cutoff carries the Q_a to it, so a second mass at the
same kinematics pays only for that matrix product.  The truncation shift,
the element minus its copy without the top shell, comes back by return
beside the element (moller_element_and_shift); moller_reduced_element
returns the element alone, and neither writes into its arguments.  An
independent sum-the-vertices-first evaluation lives in the checks module
and serves as the correctness oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, OrderTooLargeError, TruncationWarning, momentum, whole
from .hermite import phi_fill, phi_row, xi_axis
from .quadrature import QuadratureConfig, hermite_half, pt_tail, read_only

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class VertexTruncation:
    """Per-axis cutoff for the vertex sums and the exchange element."""

    n_max: int = 64

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_max", whole(self.n_max, "n_max", 1))


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
            object.__setattr__(self, name, momentum(getattr(self, name)))
        if not (self.m > 0 and math.isfinite(self.m)):
            raise DomainError(f"m must be positive and finite, got {self.m}")
        if not (self.mu >= 0 and math.isfinite(self.mu)):
            raise DomainError(f"mu must be nonnegative and finite, got {self.mu}")
        if not math.isfinite(self.g):
            raise DomainError(f"g must be finite, got {self.g}")
        for name in ("r1", "r2", "r1_out", "r2_out"):
            if getattr(self, name) not in (1, 2):
                raise ValueError(f"{name} must be 1 or 2, got {getattr(self, name)}")

    @property
    def energies(self) -> tuple[float, float, float, float]:
        """(E1, E2, E1', E2'), each sqrt(p.p + m^2) by math.hypot, so no
        square overflows."""
        return tuple(math.hypot(*p, self.m) for p in (self.p1, self.p2, self.p1_out, self.p2_out))

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
        """True when every external ||p|| (math.hypot: no square overflows)
        is below m/5, the validity window of the static-limit reduction."""
        lim = self.m / 5.0
        return all(math.hypot(*p) < lim for p in (self.p1, self.p2, self.p1_out, self.p2_out))

    @property
    def prefactor(self) -> float:
        """(g^2 / 4 pi) m^2 / sqrt(E1' E2' E1 E2), as (g^2 / 4 pi) times the
        product of the sqrt(m / E), so no product of energies overflows."""
        return (self.g * self.g / (4.0 * math.pi)) * math.prod(math.sqrt(self.m / e) for e in self.energies)


# Largest vertex cutoff of the exchange element.  Its basis table
# (_scaled_table) holds (n_max + 1)^2 (n_max/2 + 1) doubles, 1.1 MB at the
# default 64 and 8.6 MB here, and grows as n_max^3/2 beyond.
_ELEMENT_N_MAX = 128


def _chebyshev(n_max: int) -> np.ndarray:
    """The n_max + 1 Chebyshev points sin^2(pi c / (2 n_max)) of s in [0, 1]."""
    return np.sin(np.arange(n_max + 1) * (0.5 * math.pi / n_max)) ** 2


# at most four cutoffs: 34 MB at _ELEMENT_N_MAX, 5.6 MB at 64 and below.
# The recurrence writes each row straight into its parity's table and the
# rows with s_n = -1 are negated in place, so a cold build touches each
# table once and peaks at about their size.
@lru_cache(maxsize=4)
def _scaled_table(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows s_n phi_n(y_j sqrt(s_c)) sqrt(W_j) e^{-y_j^2/2} / sqrt(pi),
    s_n = (-1)^(n//2), for even n, then for odd n (n <= n_max), each over
    the Chebyshev points s_c (_chebyshev) and the nodes y_j >= 0 and folded
    scaled weights W_j of the (n_max + 1)-point Gauss-Hermite rule
    (quadrature.hermite_half): column c * J + j of row n, J nodes.  Cached
    read-only per cutoff."""
    y, weights, _ = hermite_half(n_max + 1)
    z = np.outer(np.sqrt(_chebyshev(n_max)), y)
    tables = [np.empty(((n_max + 2 - parity) // 2, z.size)) for parity in (0, 1)]
    phi_fill([tables[n % 2][n // 2].reshape(z.shape) for n in range(n_max + 1)], z,
             np.sqrt(weights) * np.exp(-0.5 * y * y) / _SQRT_PI)
    for table in tables:
        np.negative(table[1::2], out=table[1::2])
    return read_only(*tables)


# An entry holds 6 (n_max + 1) doubles, 6.2 kB at _ELEMENT_N_MAX: room for
# a few dozen kinematics at both cutoffs of a sweep, each revisited at
# further boson masses.
@lru_cache(maxsize=128)
def _profiles(momenta: tuple[float, ...], n_max: int) -> np.ndarray:
    """Per-axis factors Q_a(s_c) at the Chebyshev points (row a) and with
    the top coefficient shell dropped (row 3 + a) of the
    coefficient double sum at cutoff n_max; momenta holds p1, p2, p1', p2'.

    Per axis, line 1 carries c_n i^n and line 2 c_n conj(i^n), where the
    pair's own phases cancel in c_n = xi_n(p) conj(xi_n(p')), leaving
    phi_n(p) phi_n(p') e^{-(p^2+p'^2)/2}/sqrt(pi).  With s_n = (-1)^(n//2),
    i^n is s_n for even n and i s_n for odd n, so the profiles are
    L = L_even + i L_odd and R = R_even - i R_odd with real parts, and
    Re(L R) = L_even R_even + L_odd R_odd; Im(L R) is odd in x and
    integrates to zero against the even denominator.  Q_a(s) = pi^{-1/2}
    s^{-1/2} integral Re(L R)(x) e^{-x^2/s} dx is a polynomial of degree
    n_max in s, and in x = y sqrt(s) the exact scaled Gauss-Hermite sum
    sum_j W_j e^{-y_j^2} Re(L R)(y_j sqrt(s)): the product of the rows of
    signed coefficients with the cutoff's table (_scaled_table), summed
    over the nodes.  Dropping the top shell changes only its parity's rows.
    """
    p = np.array(momenta).reshape(2, 6)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = phi_row(n_max, p.ravel())
        # rows: line 1 by axis, then line 2 by axis; s_n and 1/sqrt(pi)
        # are in the table
        coef = (vals[:, :6] * vals[:, 6:]).T * np.exp(-0.5 * (p[0] * p[0] + p[1] * p[1]))[:, None]
    if not np.isfinite(coef).all():
        # phi_n(p) overflows where e^{-p^2/2} underflows: inf * 0
        raise DomainError(f"exchange coefficients are not finite at momenta {momenta} "
                          f"and n_max = {n_max}")
    top = n_max % 2
    tables = _scaled_table(n_max)
    kept = coef[:, top::2]
    # the top shell's parity, in full and cut, then the other parity
    cut = np.concatenate([kept, kept])
    cut[6:, -1] = 0.0
    with_top = (cut @ tables[top]).reshape(2, 2, 3, n_max + 1, -1)
    other = (coef[:, 1 - top::2] @ tables[1 - top]).reshape(2, 3, n_max + 1, -1)
    q = (np.einsum("tacj,tacj->tac", with_top[:, 0], with_top[:, 1])
         + np.einsum("acj,acj->ac", other[0], other[1])).reshape(6, n_max + 1)
    q.setflags(write=False)
    return q


# An entry holds (n_max + 2) doubles per lattice term, about 200 terms for
# mu in [1e-3, 1e3] and at most 3,110 (mu below 2^-500): 3.2 MB at
# _ELEMENT_N_MAX, so four entries keep at most about 13 MB.  Each mass's map
# serves every kinematics at that mass before the next mass comes, so a
# sweep over masses gains nothing from more entries.
@lru_cache(maxsize=4)
def _lattice_map(mu: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The tail pt_tail(mu, 6 n_max) of the Green's values' lattice, y in
    [mu^2, mu^2 + 12 n_max + 16], as the matrix of the second-form
    barycentric formula from the Chebyshev points (_chebyshev) to its
    s_m = 1/(1 + t_m), transposed, and the weights w_m s_m^{3/2}.  The
    formula carries a polynomial of degree n_max from those points exactly
    up to rounding, and stably (Berrut and Trefethen, SIAM Rev. 46, 2004).
    Cached read-only per mass and cutoff."""
    w, s, _, _ = pt_tail(mu, 6 * n_max)
    weights = np.where(np.arange(n_max + 1) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    d = s[:, None] - _chebyshev(n_max)
    # t below 2^-53 gives s = 1, the last point: its row is that point's value
    hit = d == 0.0
    k = np.where(hit.any(axis=1, keepdims=True), hit, weights / np.where(hit, 1.0, d))
    return read_only(np.ascontiguousarray((k / k.sum(axis=1, keepdims=True)).T), w * s ** 1.5)


def _element_and_shift(kin: MollerKinematics, trunc: VertexTruncation,
                       cfg: QuadratureConfig) -> tuple[complex, float]:
    """The work of both public element functions, each of which calls it
    directly, so that its warning reaches the caller of either."""
    if kin.r1 != kin.r1_out or kin.r2 != kin.r2_out:
        return 0j, 0.0
    mu = float(kin.mu)
    if not (mu > 0 and math.isfinite(mu * mu)):
        raise DomainError(f"the exchange element needs mu > 0 with a finite square, got {mu}")
    if trunc.n_max > _ELEMENT_N_MAX:
        raise OrderTooLargeError(f"vertex cutoff n_max = {trunc.n_max} for the exchange "
                                 f"element, at most {_ELEMENT_N_MAX}")
    q = _profiles(kin.p1 + kin.p2 + kin.p1_out + kin.p2_out, trunc.n_max)
    interp, weights = _lattice_map(mu, trunc.n_max)
    on_lattice = (q @ interp).reshape(2, 3, -1)
    full, dropped = (on_lattice[:, 0] * on_lattice[:, 1] * on_lattice[:, 2]) @ weights
    prefactor = kin.prefactor
    element = complex(prefactor * full)
    shift = float(abs(full - dropped) * prefactor)
    if not (math.isfinite(element.real) and math.isfinite(shift)):
        raise DomainError(f"the exchange element is not finite here: {element} "
                          f"(truncation shift {shift})")
    if shift > cfg.tol:
        warnings.warn(
            f"last included coefficient shell moved the element by {shift:.3e} "
            f"(> tol {cfg.tol:.3e}); raise n_max past {trunc.n_max}",
            TruncationWarning,
            # this frame, the public function, its caller
            stacklevel=3,
        )
    return element, shift


def moller_element_and_shift(kin: MollerKinematics, trunc: VertexTruncation,
                             cfg: QuadratureConfig) -> tuple[complex, float]:
    """Reduced one-boson-exchange element at the given kinematics, with its
    truncation shift: how far the last included coefficient shell moves it.

    Exactly zero on any spin mismatch, with shift 0.0; DomainError unless
    mu > 0 with a finite square, and OrderTooLargeError past n_max = 128
    (_ELEMENT_N_MAX).  All three are decided before any table is built.
    The coefficient double sum is the proper-time integral described in the
    module docstring, summed as sum_m w_m s_m^{3/2} prod_a Q_a(s_m) on the
    lattice of the Green's values (_lattice_map, with that lattice's error
    bound), each Q_a (_profiles) exact up to rounding: against a 90-digit
    evaluation of the integral the element and its shift are within 1e-13
    relative.  The shift is the same sum with the top coefficient shell
    dropped, subtracted: when it exceeds cfg.tol, a TruncationWarning is
    issued (the first dropped shell is comparable to the last included one
    for the slowly decaying sums this models), attributed to the caller of
    this function or of moller_reduced_element.  A coefficient, element or
    shift that is not finite raises DomainError.
    """
    return _element_and_shift(kin, trunc, cfg)


def moller_reduced_element(kin: MollerKinematics, trunc: VertexTruncation,
                           cfg: QuadratureConfig) -> complex:
    """The element of moller_element_and_shift alone, with its
    TruncationWarning and errors."""
    return _element_and_shift(kin, trunc, cfg)[0]


def continuum_moller_reduced(kin: MollerKinematics) -> complex:
    """Continuum counterpart: prefactor / (||q||^2 + mu^2) with transfer
    q = p1 - p1', the value the discrete element should approach for
    well-resolved low-momentum kinematics.  DomainError where that is not
    a finite double (a subnormal mu^2 at zero transfer)."""
    q = [kin.p1[a] - kin.p1_out[a] for a in range(3)]
    q2 = q[0] * q[0] + q[1] * q[1] + q[2] * q[2]
    denom = q2 + kin.mu * kin.mu
    if denom == 0:
        raise DomainError("zero momentum transfer at mu = 0 has no continuum value")
    val = kin.prefactor / denom
    if not math.isfinite(val):
        raise DomainError(f"continuum element at q^2 = {q2}, mu = {kin.mu} is not a finite double: {val}")
    return complex(val)
