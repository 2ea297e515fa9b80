"""Static Green's functions of the sharp-difference Laplacian, their closed
coincidence forms, and the continuum comparisons.

The central object is

    G(n, nhat; mu) = integral d^3k  prod_j xi_{n_j}(k_j) conj(xi_{nhat_j}(k_j))
                     / (k.k + mu^2)

which inverts (sharp Laplacian - mu^2) with a Kronecker source and stays
finite at coincidence, unlike its continuum counterpart.

Closed forms.  Write 1/(k.k + mu^2) as the proper-time integral
int_0^inf e^{-t (k.k + mu^2)} dt and set s = 1/(1+t), tau = 1 - s.  Along
one axis the Gaussian integral over k is a single power tau^j, and the
integral over t of tau^j is j! U(j+1, 1/2, mu^2), with U Tricomi's
confluent hypergeometric function (DLMF 13.4.4), so each axis value is one
entry of a per-mass table:

    G((2j,0,0), (0,0,0); mu) = (sqrt((2j)!) / 2^j) U(j+1, 1/2, mu^2)

j = 0 is the coincidence value mu e^{mu^2} Gamma(-1/2, mu^2) and mu = 0
gives coulomb_even.  The ratios U(n)/U(n+1) obey the three-term recurrence
in a (DLMF 13.3.7), whose backward loop (_gamma_cf_levels) is also
Legendre's continued fraction for Gamma(-1/2, x): one loop serves the
coincidence value and the axis table (_axis_table), which runs the
recurrence forward instead where mu^2 j is small, and the table's first two
entries give the pole constants of the exchange element's contraction.

Proper-time sum.  Every other pair (g_sharp) takes the proper-time
integral as a trapezoid rule in log t, each axis' Gaussian integral an
exact Gauss-Hermite sum (g_proper_time).  The same rule separates the 3D
kernel of the exchange element (green_contract), which still sums on a
Gauss-Hermite grid and subtracts a quadratic pole model at the origin.
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

from .errors import DomainError, NonconvergenceError, OrderTooLargeError
from .hermite import phi, phi_at, phi_row
from .quadrature import (
    QuadratureConfig,
    fold_even,
    gauss_hermite,
    gauss_legendre,
    index3,
    read_only,
    refined,
    sized_cache,
)

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class GreensValue:
    """A Green's function sample plus the honest error bar: a rounding bound
    for g_sharp, g_sharp_axis and g_proper_time, refined or not (0.0 for
    the exact parity zeros and coincidence value), and for
    coulomb_quadrature the node-doubling defect |value(N) - value(2N)|
    (above 100*tol it raises, see quadrature.refined), NaN unrefined."""

    value: complex
    err_estimate: float


def clear_caches() -> None:
    """Drop every cache of this module: proper-time rules, pole constants,
    origin tables, scaled Gauss-Hermite rules, angular moments and axis
    tables."""
    for cached in (_proper_time_rule, _ball_defects, origin_rows, _scaled_rule,
                   _angular_moment, _axis_table, _table_steps):
        cached.cache_clear()


def _order(n1) -> int:
    """An order n1 as a nonnegative int; ValueError otherwise (see
    quadrature.index3)."""
    order = int(n1)
    if order != n1 or order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {n1!r}")
    return order


# Step h of the trapezoid rule in log proper time (_pt_lattice), whose error
# in 1/y is at most 2 |Gamma(1 - 2 pi i / h)| = 3.5e-17 relative for every
# y > 0; _PT_ERROR adds what its cut drops (2^-60 + e^-40).
_PT_STEP = 0.24
_PT_ERROR = 4.1e-17


def _pt_lattice(mu: float, y_min: float, y_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Proper times t_m = e^{m h} and weights h t_m e^{-t_m mu^2} of the
    trapezoid rule for 1/y = integral e^{v - y e^v} dv, y = k.k + mu^2, cut
    to v in [ln(2^-60/y_max), ln(40/y_min)], y_min held at >= 2^-1000."""
    y_min = max(y_min, 2.0 ** -1000)
    lo = math.floor((-60.0 * math.log(2.0) - math.log(y_max)) / _PT_STEP)
    hi = math.ceil((math.log(40.0) - math.log(y_min)) / _PT_STEP)
    t = np.exp(_PT_STEP * np.arange(lo, hi + 1))
    return t, _PT_STEP * t * np.exp(-t * (mu * mu))


# one table per mass and node count, 2 * 64^3 entries in all: about 37 tables
# of the default fine rule (65 x about 215), or 8 at 512 nodes (257 x 245)
@sized_cache(2 * 64 ** 3)
def _proper_time_rule(mu: float, n_nodes: int) -> np.ndarray:
    """The lattice (_pt_lattice) of the grid's y = x_i^2 + x_j^2 + x_k^2 +
    mu^2 as one read-only table: rows E[i, m] = e^{-t_m x_i^2} on the x >= 0
    half of the n_nodes-point grid, then the weights."""
    x, _ = gauss_hermite(n_nodes)
    half = x[n_nodes // 2:]
    t, w = _pt_lattice(mu, 3.0 * float(half[0]) ** 2 + mu * mu, 3.0 * float(x[-1]) ** 2 + mu * mu)
    table = np.vstack([np.exp(-np.outer(half ** 2, t)), w])
    table.setflags(write=False)
    return table


def _separable_sum(a, b, c, mu: float, n_nodes: int) -> np.ndarray:
    """sum_ijk a_i b_j c_k K_ijk, K_ijk = 1/(x_i^2 + x_j^2 + x_k^2 + mu^2), on
    the n_nodes-point grid for each row of a, b and c (a stack of one row
    broadcasts).  With K_ijk ~ sum_m w_m E_im E_jm E_km (_proper_time_rule),
    the rows are folded onto the x >= 0 half grid (fold_even; an odd vector
    folds to exact zeros) and sum_m w_m (aE)_m (bE)_m (cE)_m is formed.
    Each such kernel value is within 4 ulps of K_ijk (_PT_ERROR from the
    rule, the rest rounding), and the sum within (4 + 3H + M) ulps of
    sum_ijk |a_i b_j c_k| K_ijk, H = ceil(n_nodes/2) and M the rule's terms
    (190 to 245 for mu in [1e-3, 100] up to 512 nodes).  A NaN or inf entry
    makes its row's value non-finite."""
    rule = _proper_time_rule(mu, n_nodes)
    rows = [np.atleast_2d(v) for v in (a, b, c)]
    p = fold_even(np.concatenate(rows)) @ rule[:-1]
    ra, rb = len(rows[0]), len(rows[1])
    return (p[:ra] * p[ra:ra + rb] * p[ra + rb:]) @ rule[-1]


def _ball_exact(mu: float) -> tuple[float, float]:
    """b0 and b2, the integrals over R^3 of e^{-k.k}/(k.k+mu^2) and of
    k_1^2 e^{-k.k}/(k.k+mu^2): b0 = pi^{3/2} g_0 and b2 = pi^{3/2}
    (g_0 - sqrt(2) g_1) / 2 from the axis table, which is pi^{3/2}
    (1 - mu^2 U(1)) / 3 by the recurrence of U at a = 1.  U(1) - U(2) is
    between a third of U(1) and U(1) at every mass, so nothing cancels."""
    g0, g1 = _axis_entries(mu, 2)[:2]
    return math.pi ** 1.5 * g0, math.pi ** 1.5 * (g0 - math.sqrt(2.0) * g1) / 2.0


@lru_cache(maxsize=64)
def _ball_defects(mu: float, n_nodes: int) -> tuple[float, float]:
    """Exact-minus-quadrature of the constant and per-axis quadratic pole
    models through the contraction's kernel (_separable_sum), whose error in
    the models they so cancel.  Cached per mass and node count."""
    x, w = gauss_hermite(n_nodes)
    b0q, b2q = _separable_sum(np.stack([w, x * x * w]), w, w, mu, n_nodes)
    b0, b2 = _ball_exact(mu)
    return b0 - float(b0q), b2 - float(b2q)


def green_contract(a, b, c, c0, c2, mu: float, n_nodes: int) -> np.ndarray:
    """pi^{-3/2} integral d^3k a(k_1) b(k_2) c(k_3) e^{-k.k} / (k.k + mu^2)
    for factorized integrands, one value per row of a, b and c.

    a, b and c hold each axis factor at the n_nodes Gauss-Hermite nodes with
    the weights already applied, and are summed by the separable proper-time
    kernel (_separable_sum).  c0 and c2 (one per row) are the value and the
    summed per-axis half-second-derivatives at the origin of the polynomial
    product a b c: the quadratic pole model whose quadrature defect
    (_ball_defects) is added back in closed form.
    """
    mu, n_nodes = float(mu), int(n_nodes)
    if not math.isfinite(mu * mu):
        raise DomainError(f"mu^2 must be finite for the proper-time kernel, got mu = {mu}")
    acc = _separable_sum(a, b, c, mu, n_nodes)
    d0, d2 = _ball_defects(mu, n_nodes)
    return (acc + (np.asarray(c0) * d0 + np.asarray(c2) * d2)) * math.pi ** -1.5


@lru_cache(maxsize=64)
def origin_rows(n_max: int) -> np.ndarray:
    """Columns phi_n(0), phi_n'(0) = sqrt(2n) phi_{n-1}(0) and
    phi_n''(0) = -2n phi_n(0) for n <= n_max, from the Hermite differential
    relations: the Taylor data of the exchange element's pole models
    (green_contract).  Cached read-only per order."""
    z0 = phi_row(n_max, np.zeros(1))[:, 0]
    narr = np.arange(n_max + 1)
    z1 = np.zeros(n_max + 1)
    z1[1:] = np.sqrt(2.0 * narr[1:]) * z0[:-1]
    out = np.stack([z0, z1, -2.0 * narr * z0], axis=1)
    out.setflags(write=False)
    return out


def _checked_pair(n, nhat, mu: float) -> tuple[tuple[int, ...], tuple[int, ...], GreensValue | None]:
    """The index triples of a Green's value as ints, once they and the mass
    are valid (mu > 0 with a finite square), and the exact zero phase * 0.0
    of a pair that violates parity on some axis (None for one that does not)."""
    n = index3(n)
    nhat = index3(nhat)
    if not mu > 0:
        raise DomainError(f"mu must be positive here (massless goes through coulomb paths), got {mu}")
    if not math.isfinite(float(mu) * float(mu)):
        raise DomainError(f"mu^2 must be finite for the proper-time sum, got mu = {mu}")
    odd = any((a + b) % 2 for a, b in zip(n, nhat))
    return n, nhat, GreensValue(complex(1j ** ((sum(n) - sum(nhat)) % 4) * 0.0), 0.0) if odd else None


# Most nodes of _scaled_rule (p + q <= 1454): 729 reach y = 37.65, where e^{-y^2/2} is subnormal
_SCALED_NODES_MAX = 728


@lru_cache(maxsize=64)
def _scaled_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes y_j >= 0 of the n_nodes-point Gauss-Hermite rule and its
    scaled weights W_j = w_j e^{y_j^2} / sqrt(pi) = 1 / sum_{k < n_nodes}
    psi_k(y_j)^2, psi_k = phi_k e^{-y^2/2}, folded for even integrands
    (fold_even).  No W_j underflows where w_j does (four of 401 do)."""
    if n_nodes > _SCALED_NODES_MAX:
        raise OrderTooLargeError(f"{n_nodes} nodes for the proper-time sum, at most {_SCALED_NODES_MAX}")
    y, _ = gauss_hermite(n_nodes)
    total = sum(row * row for row in phi_at(range(n_nodes), y, np.exp(-0.5 * y * y)).values())
    return read_only(np.array(y[n_nodes // 2:]), fold_even(1.0 / total))


def _axis_laplace(p: int, q: int, s: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J = pi^{-1/2} integral phi_p phi_q e^{-(1+t) x^2} dx at s = 1/(1+t),
    tau = t s, and J with phi_p phi_q replaced by 1.  In x = y sqrt(s) it is
    an even polynomial of degree p + q against e^{-y^2}, so exactly
    sqrt(s) sum_j W_j e^{-tau y_j^2} psi_p psi_q(y_j sqrt(s)) (_scaled_rule)."""
    y, weights = _scaled_rule((p + q) // 2 + 1)
    root = np.sqrt(s)
    damped = np.exp(-np.outer(tau, y * y)) * weights
    z = np.outer(root, y)
    psi = phi_at((p, q), z, np.exp(-0.5 * z * z))
    return root * np.sum(psi[p] * psi[q] * damped, axis=1), root * np.sum(damped, axis=1)


def g_proper_time(n, nhat, mu: float, cfg: QuadratureConfig) -> GreensValue:
    """G(n, nhat; mu) = i^(sum n - sum nhat) sum_m w_m prod_a J_a(t_m) on
    _pt_lattice's lattice for y in [mu^2, mu^2 + 2D + 16], D = sum n +
    sum nhat (190 to 260 terms for mu in [1e-3, 1e4]), each J_a exact
    (_axis_laplace); a parity zero as in g_sharp.  prod_a J_a(t) is a
    Laplace transform in t of the integrand over k.k, so the rule's bound
    for 1/y holds.  err_estimate is (2^-52 (max order + 2) + 2^-53 (L + 4)
    + _PT_ERROR) times the sum with every basis value 1: rounding in the
    recurrence and sums, in the nodes v_m = m h (2^-53 |v_m|, the terms
    mattering where |v| <= L + 4, L = max |ln y|), and the rule's error.
    Absolute terms alone bound nothing: the recurrence cancels near s = 1.
    It raises NonconvergenceError above 100 * cfg.tol (the one field read),
    and OrderTooLargeError past n_a + nhat_a = 1454 (_SCALED_NODES_MAX).
    """
    n, nhat, zero = _checked_pair(n, nhat, mu)
    if zero is not None:
        return zero
    y_min, y_max = max(mu * mu, 2.0 ** -1000), mu * mu + 2.0 * (sum(n) + sum(nhat)) + 16.0
    t, w = _pt_lattice(mu, y_min, y_max)
    s = 1.0 / (1.0 + t)
    axes = {pair: _axis_laplace(*pair, s, t * s) for pair in set(zip(n, nhat))}
    value, ones = (w @ math.prod(axes[pair][k] for pair in zip(n, nhat)) for k in (0, 1))
    big_log = max(-math.log(y_min), math.log(y_max))
    err = float((2.0 ** -52 * (max(n + nhat) + 4 + 0.5 * big_log) + _PT_ERROR) * ones)
    if not err <= 100.0 * cfg.tol:
        raise NonconvergenceError(f"Green's function at n={n}, nhat={nhat}, mu={mu}: rounding "
                                  f"bound {err:.3e} exceeds the gate {100.0 * cfg.tol:.3e}")
    return GreensValue(complex(1j ** ((sum(n) - sum(nhat)) % 4) * value), err)


def g_sharp(n, nhat, mu: float, cfg: QuadratureConfig) -> GreensValue:
    """G(n, nhat; mu) by the one route for its kind of pair.  A pair that
    violates parity on some axis is the exact zero phase * 0.0,
    err_estimate 0.0.  An axis pair, (0,0,0) against an index with at most
    one nonzero component n1, on any axis and in either order, is
    g_sharp_axis(n1): one entry of the per-mass table (module docstring),
    the coincidence value at n1 = 0, whatever cfg holds.  Every other pair
    is g_proper_time, with its own bound, gated at 100 * cfg.tol (the one
    field read).
    """
    n, nhat, zero = _checked_pair(n, nhat, mu)
    if zero is not None:
        return zero
    if sum(map(bool, n + nhat)) <= 1:
        return g_sharp_axis(max(n + nhat), mu, cfg)
    return g_proper_time(n, nhat, mu, cfg)


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


def _axis_entries(mu: float, count: int) -> tuple[float, ...]:
    """The axis table at mu with at least count entries: the default size,
    doubled as often as needed."""
    size = _AXIS_TABLE
    while size < count:
        size *= 2
    return _axis_table(mu, size)


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
    value = _axis_entries(mu, j + 1)[j]
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

    n1 here is the half-index.  The square 4^(n1+1) / ((2 n1 + 1)^2
    C(2 n1, n1)) is an exact integer ratio, which Python's int true division
    rounds correctly; one square root follows, so every value is within one
    ulp (n1 = 0 returns exactly 2.0).  The integers grow with n1, and so
    does the cost (3 ms a value at n1 = 5000), so from n1 = 1000 on C(2n, n)
    comes from its asymptotic series 4^n / sqrt(pi n) (1 - 1/(8n) +
    1/(128n^2) + 5/(1024n^3) - 21/(32768n^4) + ...), whose next term is
    below 2e-18 there; it meets the exact ratio within one ulp.
    """
    n1 = _order(n1)
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
