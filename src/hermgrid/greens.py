"""Static Green's functions of the sharp-difference Laplacian, their closed
coincidence forms, and the continuum comparisons.

The central object is

    G(n, nhat; mu) = integral d^3k  prod_j xi_{n_j}(k_j) conj(xi_{nhat_j}(k_j))
                     / (k.k + mu^2)

which inverts (sharp Laplacian - mu^2) with a Kronecker source and stays
finite at coincidence, unlike its continuum counterpart.  Two independent
routes are provided and cross-checked: tensor Gauss-Hermite in 3D
(g_sharp), and closed forms along one axis (g_sharp_axis, coulomb_even).

Evaluation notes.  The integrand's denominator develops a near-pole at the
origin as mu -> 0, which plain Gauss-Hermite cannot resolve at any feasible
node count.  The tensor route therefore subtracts the quadratic Taylor
approximant of the polynomial pair product at the pole and adds back the
model's analytically known integral; the subtraction is exact in the
massless limit.

Along one axis the proper-time form of 1/(k.k + mu^2) leaves one monomial:

    G((2j,0,0), (0,0,0); mu) = (sqrt((2j)!) / 2^j) U(j+1, 1/2, mu^2)

with U Tricomi's confluent hypergeometric function (DLMF 13.4.4); j = 0 is
the coincidence value mu e^{mu^2} Gamma(-1/2, mu^2) and mu = 0 gives
coulomb_even.  The ratios U(n)/U(n+1) obey the three-term recurrence in a
(DLMF 13.3.7), whose backward loop (_gamma_cf_levels) is also Legendre's
continued fraction for Gamma(-1/2, x): one loop serves the coincidence
value, the tensor route's pole constants and the axis table (_axis_table),
which runs the recurrence forward instead where mu^2 j is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import mul, truediv

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx

from .errors import DomainError
from .hermite import phi, phi_row
from .quadrature import (
    QuadratureConfig,
    contract_even,
    gauss_hermite,
    gauss_legendre,
    index3,
    refined,
    sized_cache,
    triple_rank,
    weighted_phi_table,
)

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class GreensValue:
    """A Green's function sample plus the honest error bar.

    For a quadrature, err_estimate is the node-doubling defect
    |value(N) - value(2N)| (g_sharp adds a rounding bound) when the config
    asked for refinement (a defect above 100*tol raises, see
    quadrature.refined), and NaN when it did not.  Parity zeros and the
    coincidence value are exact by construction and report 0.0; the other
    axis values report a rounding bound (g_sharp_axis), refined or not.
    """

    value: complex
    err_estimate: float


def clear_caches() -> None:
    """Drop every cache of this module: memoized Green's values, denominator
    cubes, pole constants, pole models, angular moments and axis tables; and
    the sorted-triple rank maps of quadrature, one per cube size the screen
    in contract_even has asked for."""
    for cached in (_g_raw, _inv_denominators, _ball_defects, _pole_model, _angular_moment,
                   _axis_table, _table_steps, triple_rank):
        cached.cache_clear()


def _order(n1) -> int:
    """An order n1 as a nonnegative int; ValueError otherwise (see
    quadrature.index3)."""
    order = int(n1)
    if order != n1 or order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {n1!r}")
    return order


# inverse-denominator cubes 1/(x_i^2+x_j^2+x_l^2+mu^2) on the leading h
# nodes of the x >= 0 half of the Gauss-Hermite grid (contract_even folds
# the rest onto it and screens it down to the cube), one per mass, node
# count and cube size; together they hold at most as many entries as two
# full half-grid tensors of the default fine rule (2 MB each at 128 nodes),
# which is room for a few dozen of the cubes the screen keeps there
@sized_cache(2 * 64 ** 3)
def _inv_denominators(mu: float, n_nodes: int, h: int) -> np.ndarray:
    x, _ = gauss_hermite(n_nodes)
    x2 = x[n_nodes // 2:n_nodes // 2 + h] ** 2
    inv = (np.add.outer(x2, x2) + mu * mu)[None, :, :] + x2[:, None, None]
    np.reciprocal(inv, out=inv)
    inv.setflags(write=False)
    return inv


def _ball_exact(mu: float) -> tuple[float, float]:
    """b0 and b2, the integrals over R^3 of e^{-k.k}/(k.k+mu^2) and of
    k_1^2 e^{-k.k}/(k.k+mu^2).

    b0 = pi^{3/2} Y(mu) with Y = yukawa_coincidence, and
    b2 = pi^{3/2} (1 - mu^2 Y) / 3.  Below mu = 1 the difference cancels
    at most twofold.  From mu = 1 on, the recurrence of U at a = 1 turns it
    into 1 - mu^2 Y = (3/2) Y (1 - 1/d_1), with Y = 1/d_0 and
    d_1 = U(1)/U(2) >= 5/2 from the continued fraction (_gamma_cf_levels),
    a form with nothing left to cancel.
    """
    if mu >= 1.0:
        d = _gamma_cf_levels(mu * mu, 2)
        y = 1.0 / d[0]
        return math.pi ** 1.5 * y, math.pi ** 1.5 * (1.0 - 1.0 / d[1]) * y / 2.0
    b0 = math.pi ** 1.5 * yukawa_coincidence(mu)
    return b0, (math.pi ** 1.5 - mu * mu * b0) / 3.0


@lru_cache(maxsize=64)
def _ball_defects(mu: float, n_nodes: int) -> tuple[float, float]:
    """Exact-minus-quadrature for the constant and per-axis quadratic pole
    models: the amounts the subtraction must add back analytically.
    Cached per mass and node count, so a run of exchange elements at one
    mass pays for the continued fraction and the two moments once."""
    x, w = gauss_hermite(n_nodes)
    b0q, b2q = contract_even(np.stack([w, x * x * w]), w, w,
                             lambda h: _inv_denominators(mu, n_nodes, h))
    b0, b2 = _ball_exact(mu)
    return b0 - float(b0q), b2 - float(b2q)


def green_contract(a, b, c, c0, c2, mu: float, n_nodes: int) -> np.ndarray:
    """pi^{-3/2} integral d^3k a(k_1) b(k_2) c(k_3) e^{-k.k} / (k.k + mu^2)
    for factorized integrands, one value per row of a, b and c.

    a, b and c hold each axis factor at the n_nodes Gauss-Hermite nodes with
    the weights already applied.  c0 and c2 (one per row) are the value and
    the summed per-axis half-second-derivatives at the origin of the
    polynomial product a b c: the quadratic pole model whose quadrature
    defect (_ball_defects) is added back in closed form.
    """
    if not math.isfinite(mu * mu):
        raise DomainError(f"mu^2 must be finite for the denominator tensor, got mu = {mu}")
    mu, n_nodes = float(mu), int(n_nodes)
    acc = contract_even(a, b, c, lambda h: _inv_denominators(mu, n_nodes, h))
    d0, d2 = _ball_defects(mu, n_nodes)
    return (acc + (np.asarray(c0) * d0 + np.asarray(c2) * d2)) * math.pi ** -1.5


@lru_cache(maxsize=1024)
def _pole_model(n: int, nhat: int) -> tuple[float, float]:
    """Value and half-second-derivative at the origin of the one-axis pair
    polynomial phi_n phi_nhat, from the Hermite differential relations
    phi_n'(0) = sqrt(2n) phi_{n-1}(0) and phi_n''(0) = -2n phi_n(0).
    Cached: every mass and node count asks for the same few pairs."""
    z = phi_row(max(n, nhat), np.zeros(1))[:, 0].tolist()
    q0 = z[n] * z[nhat]
    cross = 0.0
    if n >= 1 and nhat >= 1:
        cross = 2.0 * math.sqrt(n * nhat) * z[n - 1] * z[nhat - 1]
    return q0, -(n + nhat) * q0 + cross


def _pair_model(n: tuple[int, ...], nhat: tuple[int, ...]) -> tuple[float, float]:
    """c0 and c2 of the pair's quadratic pole model (green_contract): the
    value and the summed per-axis half-second-derivatives at the origin of
    the product of the three one-axis pair polynomials."""
    (q0a, q2a), (q0b, q2b), (q0c, q2c) = (_pole_model(n[a], nhat[a]) for a in range(3))
    return q0a * q0b * q0c, q2a * q0b * q0c + q0a * q2b * q0c + q0a * q0b * q2c


def _g_eval(n: tuple[int, ...], nhat: tuple[int, ...], mu: float, n_nodes: int) -> complex:
    table = weighted_phi_table(max(max(n), max(nhat)), n_nodes)
    val = green_contract(*(table[n[a]] * table[nhat[a]] for a in range(3)), *_pair_model(n, nhat),
                         mu, n_nodes)
    phase = 1j ** ((sum(n) - sum(nhat)) % 4)
    return complex(phase * val[0])


# Memoized tensor-route values, one per pair, mass and node count.  The
# residual box of the acceptance suite (2,187 residuals over three masses)
# makes 2,100 entries, so the bound lets a box run reuse every shared value.
@lru_cache(maxsize=4096)
def _g_raw(n: tuple[int, ...], nhat: tuple[int, ...], mu: float, n_nodes: int) -> complex:
    return _g_eval(n, nhat, mu, n_nodes)


def g_sharp(n, nhat, mu: float, cfg: QuadratureConfig) -> GreensValue:
    """Tensor Gauss-Hermite evaluation of the 3D Green's function integral.

    The Gaussian weight is taken from the basis-function product, leaving a
    polynomial pair table over a shared inverse-denominator tensor, plus the
    pole subtraction described in the module docstring.  The i^(sum n - sum
    nhat) phase makes parity-allowed values real (sign (-1)^(diff/2)).  A
    pair that violates parity on some axis integrates to exactly zero; it
    is returned as phase * 0.0 with err_estimate 0.0 once the index and mass
    checks pass, and no tensor is built for it.

    With refinement, err_estimate adds to the node-doubling defect what
    the rounding of the fine N-node rule moves the value, which both levels
    carry: (16 + N/4) ulps of K_max (1 + |c0| + |c2|/2), K_max the largest
    kernel entry and c0, c2 the pole model (_pair_model).  Each weighted
    pair row has 1-norm <= sqrt(pi), so pi^{3/2} times that bounds the
    absolute terms of the sum.  Against the closed axis values the defect
    alone falls short by up to 5 of those ulps at N <= 128, 13 at 256 and
    29 at 512 (n1 <= 10, mu in [0.3, 200]).
    """
    n = index3(n)
    nhat = index3(nhat)
    if not mu > 0:
        raise DomainError(f"mu must be positive here (massless goes through coulomb paths), got {mu}")
    if not math.isfinite(mu * mu):
        raise DomainError(f"mu^2 must be finite for the denominator tensor, got mu = {mu}")
    if any((n[a] + nhat[a]) % 2 for a in range(3)):
        phase = 1j ** ((sum(n) - sum(nhat)) % 4)
        return GreensValue(complex(phase * 0.0), 0.0)
    value, err = refined(lambda k: _g_raw(n, nhat, mu, k * cfg.gh_nodes), cfg, 100.0 * cfg.tol,
                         "Green's function at n={}, nhat={}, mu={}", n, nhat, mu)
    if cfg.refine:
        c0, c2 = _pair_model(n, nhat)
        x, _ = gauss_hermite(2 * cfg.gh_nodes)
        k_max = 1.0 / (3.0 * float(x[cfg.gh_nodes]) ** 2 + mu * mu)
        err += (16 + cfg.gh_nodes / 2) * 2.0 ** -52 * k_max * (1.0 + abs(c0) + 0.5 * abs(c2))
    return GreensValue(complex(value), err)


# Entries of the default axis table, n1 = 0, 2, ..., 40; a higher order asks
# for a table of twice the size, as often as needed.  Every entry past 21
# would add a level to each backward build (4-8 us cold for mu in [1, 4] on
# a 2-core VM).
_AXIS_TABLE = 21

# x * size up to which _axis_table runs forward.  Forward, the seed's
# rounding grows by about e^{4 sqrt(x j)} by entry j, at most e^4 here;
# measured, the entries stay within (j + 1) ulps.
_FORWARD_MAX = 1.0


@lru_cache(maxsize=None)
def _table_steps(size: int) -> tuple[float, ...]:
    """sqrt(j (j - 1/2)) for j = 1..size-1, once per table size."""
    return tuple(math.sqrt(j * (j - 0.5)) for j in range(1, size))


@lru_cache(maxsize=128)
def _axis_table(mu: float, size: int) -> tuple[float, ...]:
    """g_j = (sqrt((2j)!) / 2^j) U(j+1, 1/2, mu^2) for j < size, mu > 0, as
    g_0 = yukawa_coincidence(mu) (the same float) and g_j = g_{j-1}
    sqrt(j (j - 1/2)) / d_j, so the prefactor never overflows.  The
    d_j = U(j)/U(j+1) come from _gamma_cf_levels once x = mu^2 times size
    passes _FORWARD_MAX, and otherwise from the recurrence run forward as
    e_j = (j + 1/2)(e_{j-1} - x) / (j + x - e_{j-1}), d_j = j + 1/2 + e_j,
    from e_0 = 1/g_0 - 1/2: d_j stays exact at x = 0, where the plain
    three-term step lost up to j^2/8 ulps by j = 100."""
    x = mu * mu
    if x * size > _FORWARD_MAX:
        d = _gamma_cf_levels(x, size)
        # from mu = 1 on this is the float yukawa_coincidence returns
        g = 1.0 / d[0] if mu >= 1.0 else yukawa_coincidence(mu)
    else:
        g = yukawa_coincidence(mu)
        e = 1.0 / g - 0.5
        d = [0.5 + e]
        for j in range(1, size):
            e = (j + 0.5) * (e - x) / (j + x - e)
            d.append(j + 0.5 + e)
    return tuple(accumulate(map(truediv, _table_steps(size), d[1:]), mul, initial=g))


def g_sharp_axis(n1: int, mu: float, cfg: QuadratureConfig) -> GreensValue:
    """Green's function along one axis, G((n1,0,0),(0,0,0); mu), in closed
    form (module docstring): an exact zero for odd n1, and for even n1 = 2j
    entry j of the per-mass table _axis_table.

    At n1 = 0 that is the float yukawa_coincidence(mu), with err_estimate
    0.0 as for the other closed forms.  Otherwise err_estimate is the
    rounding bound (4 j + 64)(2^-52 |value| + 2^-1074): four roundings per
    factor of the table's product and 64 for its seed, which covers the
    growth of the forward recurrence and the truncation of the backward one;
    1.0e-13 relative at n1 = 200, and measured against mpmath never reached.
    No quadrature runs, so cfg is not read; it keeps the routes' call shape.
    """
    n1 = _order(n1)
    if not mu > 0:
        raise DomainError(f"mu must be positive, got {mu}")
    if n1 % 2:
        return GreensValue(0j, 0.0)
    j = n1 // 2
    size = _AXIS_TABLE
    while size <= j:
        size *= 2
    value = _axis_table(mu, size)[j]
    err = (4 * j + 64) * (2.0 ** -52 * value + 2.0 ** -1074) if j else 0.0
    return GreensValue(complex(value), err)


# Margin c of the depth N = ceil((sqrt(count) + c / sqrt(x))^2) + 2 of
# _gamma_cf_levels: for c >= 8.0 every level below count is within one ulp
# of a run twice as deep, measured for count 1 to 168 at 120 masses in
# [0.2, 1e4] (9.0 from the plain start e = x).  The two extra levels serve
# large x, where the square alone reaches less than one level past count.
_CF_MARGIN = 8.5

# level numbers as floats, enough for the default table at every mass where
# it runs backward (at most 1,900 levels)
_LEVEL_K = tuple(map(float, range(2048)))


def _gamma_cf_levels(x: float, count: int) -> list[float]:
    """d_n = U(n, 1/2, x) / U(n+1, 1/2, x) for n < count, x > 0.

    With d_n = n + 1/2 + e_n, the recurrence of U in a (DLMF 13.3.7) reads
    e_n = x + (n+1) e_{n+1} / d_{n+1}, every term positive.  U is its
    minimal solution, so the loop runs backward (Miller's algorithm), from
    the step's fixed point e = h + sqrt(h^2 + x (N + 3/2)), h = (x - 1/2)/2,
    at depth N = ceil((sqrt(max(count, _AXIS_TABLE)) + _CF_MARGIN /
    sqrt(x))^2) + 2, about 72/x for small x.  As U(0) = 1, 1/d_0 =
    U(1, 1/2, x) = x^{1/2} e^x Gamma(-1/2, x): the loop is Legendre's
    continued fraction for Gamma(-1/2, x) (DLMF 8.9.2) evaluated bottom-up,
    d_n its level-n denominator.  Every count up to _AXIS_TABLE runs at one
    depth, so the coincidence value is the axis table's first entry to the
    bit.  From x = 2^80 on, every d_n = x + 2n + 1/2 - O(n^2/x) rounds to x.
    """
    if x >= 2.0 ** 80:
        return [x] * count
    depth = math.ceil((math.sqrt(max(count, _AXIS_TABLE)) + _CF_MARGIN / math.sqrt(x)) ** 2) + 2
    ks = _LEVEL_K if depth < len(_LEVEL_K) else tuple(map(float, range(depth + 1)))
    h = 0.5 * (x - 0.5)
    e = h + math.sqrt(h * h + x * (depth + 1.5))
    for k in ks[depth:count - 1:-1]:
        e = x + k * e / (k + 0.5 + e)
    out = []
    for k in ks[count - 1:0:-1]:
        d = k + 0.5 + e
        out.append(d)
        e = x + k * e / d
    out.append(0.5 + e)
    out.reverse()
    return out


def _gamma_cf(x: float) -> float:
    """x^{1/2} e^x Gamma(-1/2, x) = 1/d_0 for x >= 1 (_gamma_cf_levels).
    No exponential is formed, so nothing overflows or cancels at large x."""
    return 1.0 / _gamma_cf_levels(x, 1)[0]


def incomplete_gamma_neg_half(x: float) -> float:
    """Gamma(-1/2, x) = integral_x^inf w^{-3/2} e^{-w} dw for x > 0.

    Below x = 1 uses the closed identity 2 e^{-x}/sqrt(x) - 2 sqrt(pi)
    erfc(sqrt(x)), which holds the x -> 0 blowup; from x = 1 on, where the
    two terms would cancel, e^{-x} x^{-1/2} times the continued fraction
    (_gamma_cf).  Accurate to a few parts in 1e15 relative wherever the value
    is a normal double.
    """
    if not x > 0:
        raise DomainError(f"argument must be positive, got {x}")
    s = math.sqrt(x)
    if x >= 1.0:
        return math.exp(-x) / s * _gamma_cf(x)
    return 2.0 * math.exp(-x) / s - 2.0 * _SQRT_PI * math.erfc(s)


def yukawa_coincidence(mu: float) -> float:
    """Closed coincidence value mu e^{mu^2} Gamma(-1/2, mu^2).

    Finite for every mu > 0 and -> 2 as mu -> 0+; the continuum kernel
    diverges at coincidence, this is the formalism's headline finite number.
    Below mu = 1 it is 2 (1 - sqrt(pi) mu erfcx(mu)); from mu = 1 on, the
    continued fraction _gamma_cf(mu^2), in which e^{mu^2} has cancelled.
    """
    if not mu > 0:
        raise DomainError(f"mu must be positive, got {mu}")
    if mu >= 1.0:
        return _gamma_cf(mu * mu)
    return 2.0 * (1.0 - _SQRT_PI * mu * float(erfcx(mu)))


def coulomb_even(n1: int) -> float:
    """Massless axis values at even grid index 2*n1, in closed form:
    2^(n1+1) n1! / ((2 n1 + 1) sqrt((2 n1)!)).

    n1 here is the half-index.  Orders up to 85, where (2 n1)! is still a
    double, use the factorials as floats (so n1=0 returns exactly 2.0).
    Past that the square 4^(n1+1) / ((2 n1 + 1)^2 C(2 n1, n1)) is an exact
    integer ratio, which Python's int true division rounds correctly; one
    square root follows.  The integers grow with n1, and so does the cost
    (3 ms a value at n1 = 5000), so from n1 = 1000 on C(2n, n) comes from its
    asymptotic series 4^n / sqrt(pi n) (1 - 1/(8n) + 1/(128n^2) +
    5/(1024n^3) - 21/(32768n^4) + ...), whose next term is below 2e-18
    there; it meets the exact ratio within one ulp.
    """
    n1 = _order(n1)
    if n1 <= 85:
        num = float(2 ** (n1 + 1) * math.factorial(n1))
        return num / ((2 * n1 + 1) * math.sqrt(float(math.factorial(2 * n1))))
    if n1 < 1000:
        return math.sqrt(4 ** (n1 + 1) / ((2 * n1 + 1) ** 2 * math.comb(2 * n1, n1)))
    u = 1.0 / n1
    series = 1.0 + u * (-1.0 / 8 + u * (1.0 / 128 + u * (5.0 / 1024 - u * 21.0 / 32768)))
    return 2.0 * (math.pi * n1) ** 0.25 / ((2.0 * n1 + 1.0) * math.sqrt(series))


@lru_cache(maxsize=256)
def _angular_moment(n1: int, n_nodes: int, ang_nodes: int) -> np.ndarray:
    """s_i = sum_j wy_j phi_{n1}(k_i y_j) at each node k_i of the n_nodes-point
    Gauss-Hermite rule, with the ang_nodes-point Gauss-Legendre rule in
    y = cos(theta).  For even n1, phi_{n1}(k y) is an even polynomial of
    degree n1 in y, which the angular rule integrates exactly once
    ang_nodes > n1 / 2.  Cached read-only per order and node counts."""
    k, _ = gauss_hermite(n_nodes)
    y, wy = gauss_legendre(ang_nodes)
    s = phi(n1, np.outer(k, y)) @ wy
    s.setflags(write=False)
    return s


def _coulomb_eval(n1: int, gh_nodes: int, ang_nodes: int) -> complex:
    _, w = gauss_hermite(gh_nodes)
    # half-line radial integral folded onto the full line by joint
    # (k, y) -> (-k, -y) symmetry of the integrand
    val = (w @ _angular_moment(n1, gh_nodes, ang_nodes)) / _SQRT_PI
    phase = 1j ** (n1 % 4)
    return complex(phase * val)


def coulomb_quadrature(n1: int, cfg: QuadratureConfig) -> GreensValue:
    """Massless axis values by direct 2D quadrature (radius times angle).

    Takes the full grid index: even indices reproduce coulomb_even(index/2),
    odd indices integrate to zero by angular parity.  The mass-zero
    denominator cancels against the radial Jacobian, so the integrand is a
    pure polynomial against the Gaussian weight and the rule is exact once
    the node count clears half the order.
    """
    n1 = _order(n1)
    ang = max(8, n1 // 2 + 2)
    value, err = refined(lambda k: _coulomb_eval(n1, k * cfg.gh_nodes, k * ang), cfg,
                         100.0 * cfg.tol, "massless quadrature at index {}", n1)
    return GreensValue(complex(value), err)


def continuum_yukawa(r: float, mu: float, g: float) -> float:
    """The continuum potential -(g^2 / 4 pi) e^{-mu r} / r; singular at r = 0."""
    if not r > 0:
        raise DomainError(f"r must be positive, got {r}")
    if mu < 0:
        raise DomainError(f"mu must be nonnegative, got {mu}")
    val = -(g * g) / (4.0 * math.pi) * math.exp(-mu * r) / r
    if not math.isfinite(val):
        raise DomainError(f"potential at r={r}, mu={mu}, g={g} is not a finite double: {val}")
    return val


def continuum_yukawa_oracle(r: float, mu: float, cfg: QuadratureConfig) -> float:
    """Unit-coupling continuum potential from the 1D oscillatory integral
    -(1/(2 pi^2 r)) integral_0^inf k sin(r k)/(k^2 + mu^2) dk.

    Evaluated with an oscillatory-weight adaptive rule whose tail handling
    relies on the mu-damped decay of the envelope.  Exists purely as an
    independent check on continuum_yukawa.
    """
    if not r > 0:
        raise DomainError(f"r must be positive, got {r}")
    if not (mu > 0 and mu * mu > 0):
        # k / (k^2 + mu^2) is 0/0 at k = 0 once mu^2 underflows
        raise DomainError(f"mu must be positive with a nonzero square, got {mu}")
    val, _ = quad(
        lambda k: k / (k * k + mu * mu),
        0.0,
        np.inf,
        weight="sin",
        wvar=r,
        limlst=200,
    )
    return -val / (2.0 * math.pi ** 2 * r)


def difference_equation_residual(n, nhat, mu: float, cfg: QuadratureConfig) -> float:
    """|sharp-Laplacian G - mu^2 G + delta(n, nhat)| at one index pair.

    Applies the twice-applied weighted stencil to the first argument by
    calling g_sharp at the shifted indices (seven distinct points: center
    plus +-2 per axis, with the lower shift absent where its coefficient
    vanishes).  The Green's function inverts the operator with a negative
    Kronecker source, so adding the delta should cancel to quadrature noise.
    """
    n = index3(n)
    nhat = index3(nhat)
    lhs = 0j
    center = 0.0
    for ax in range(3):
        v = n[ax]
        up = list(n)
        up[ax] = v + 2
        lhs += 0.5 * math.sqrt((v + 1.0) * (v + 2.0)) * g_sharp(tuple(up), nhat, mu, cfg).value
        if v >= 2:
            dn = list(n)
            dn[ax] = v - 2
            lhs += 0.5 * math.sqrt(v * (v - 1.0)) * g_sharp(tuple(dn), nhat, mu, cfg).value
        center -= 0.5 * (2.0 * v + 1.0)
    lhs += (center - mu * mu) * g_sharp(n, nhat, mu, cfg).value
    if n == nhat:
        lhs += 1.0
    return abs(lhs)


def w_sharp(n1: int, mu: float, cfg: QuadratureConfig) -> float:
    """Static potential profile along one axis: the (n1,0,0) vs origin
    Green's value, g_sharp_axis for mu > 0 and coulomb_even at mu = 0."""
    n1 = _order(n1)
    if not mu >= 0:
        raise DomainError(f"mu must be nonnegative, got {mu}")
    if mu > 0:
        return g_sharp_axis(n1, mu, cfg).value.real
    if n1 % 2 == 1:
        return 0.0
    return coulomb_even(n1 // 2)


def v_sharp(n1: int, mu: float, g: float, cfg: QuadratureConfig) -> float:
    """Interaction potential -g^2 w_sharp(n1, mu)."""
    return -(g * g) * w_sharp(n1, mu, cfg)
