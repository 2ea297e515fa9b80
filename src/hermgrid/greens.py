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
recurrence forward instead where mu^2 j is small.

Proper-time sum.  Every other pair (g_sharp) takes the proper-time
integral as a trapezoid rule in log t (quadrature.pt_lattice), each axis'
Gaussian integral an exact sum on the half of a Gauss-Hermite rule with its
folded scaled weights (quadrature.hermite_half, g_proper_time).  The
exchange element (scattering.moller_reduced_element) sums on the same
lattice, with the same rule for its per-axis factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import mul, truediv

import numpy as np

from .errors import DomainError, NonconvergenceError, OrderTooLargeError, whole
from .hermite import phi_at
from .quadrature import (
    GH_RULE_MAX,
    PT_ERROR,
    QuadratureConfig,
    gauss_legendre,
    hermite_half,
    index3,
    pt_lattice,
    read_only,
)

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class GreensValue:
    """A Green's function sample plus the honest error bar: a stated
    rounding bound for every route, g_sharp, g_sharp_axis, g_proper_time and
    coulomb_quadrature, each of which evaluates an exact form or an exact
    rule once (0.0 for exact zeros only)."""

    value: complex
    err_estimate: float


def clear_caches() -> None:
    """Drop every cache of this module: axis tables and the continuum
    oracle's Fourier rule (the quadrature rules it reads stay)."""
    for cached in (_axis_table, _table_steps, _fourier_rule):
        cached.cache_clear()


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


def _axis_laplace(p: int, q: int, s: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J = pi^{-1/2} integral phi_p phi_q e^{-(1+t) x^2} dx at s = 1/(1+t),
    tau = t s, and J with phi_p phi_q replaced by 1.  In x = y sqrt(s) it is
    an even polynomial of degree p + q against e^{-y^2}, so exactly
    sqrt(s) sum_j W_j e^{-tau y_j^2} psi_p psi_q(y_j sqrt(s)), W_j the
    folded scaled weights of quadrature.hermite_half."""
    y, weights, _ = hermite_half((p + q) // 2 + 1)
    root = np.sqrt(s)
    damped = np.exp(-np.outer(tau, y * y)) * weights
    z = np.outer(root, y)
    psi = phi_at((p, q), z, np.exp(-0.5 * z * z))
    return root * np.sum(psi[p] * psi[q] * damped, axis=1), root * np.sum(damped, axis=1)


def g_proper_time(n, nhat, mu: float, cfg: QuadratureConfig) -> GreensValue:
    """G(n, nhat; mu) = i^(sum n - sum nhat) sum_m w_m prod_a J_a(t_m) on
    pt_lattice's lattice for y in [mu^2, mu^2 + 2D + 16], D = sum n +
    sum nhat (190 to 260 terms for mu in [1e-3, 1e4]), each J_a exact
    (_axis_laplace); a parity zero as in g_sharp.  prod_a J_a(t) is a
    Laplace transform in t of the integrand over k.k, so the rule's bound
    for 1/y holds.  err_estimate is (2^-52 (max order + 2) + 2^-53 (L + 4)
    + PT_ERROR) times the sum with every basis value 1: rounding in the
    recurrence and sums, in the nodes v_m = m h (2^-53 |v_m|, the terms
    mattering where |v| <= L + 4, L = max |ln y|), and the rule's error.
    Absolute terms alone bound nothing: the recurrence cancels near s = 1.
    It raises NonconvergenceError above 100 * cfg.tol and
    OrderTooLargeError past n_a + nhat_a = 1454 (quadrature.GH_RULE_MAX).
    """
    n, nhat, zero = _checked_pair(n, nhat, mu)
    if zero is not None:
        return zero
    y_min, y_max = max(mu * mu, 2.0 ** -1000), mu * mu + 2.0 * (sum(n) + sum(nhat)) + 16.0
    t, w = pt_lattice(mu, y_min, y_max)
    s = 1.0 / (1.0 + t)
    axes = {pair: _axis_laplace(*pair, s, t * s) for pair in set(zip(n, nhat))}
    value, ones = (w @ math.prod(axes[pair][k] for pair in zip(n, nhat)) for k in (0, 1))
    big_log = max(-math.log(y_min), math.log(y_max))
    err = float((2.0 ** -52 * (max(n + nhat) + 4 + 0.5 * big_log) + PT_ERROR) * ones)
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
    is g_proper_time, with its own bound, gated at 100 * cfg.tol.
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

    At n1 = 0 that is the float yukawa_coincidence(mu).  err_estimate is
    the rounding bound (4 j + 64)(2^-52 |value| + 2^-1074) at every even
    n1: four roundings per factor of the table's product and 64 for its
    seed, which covers the growth of the forward recurrence and the
    truncation of the backward one (the seed itself, the coincidence value,
    is up to about 1.2 ulps off); 1.0e-13 relative at n1 = 200, and
    measured against mpmath never reached.
    No quadrature runs, so cfg is not read; it keeps the routes' call shape.
    """
    n1 = whole(n1, "order")
    if not mu > 0:
        raise DomainError(f"mu must be positive, got {mu}")
    if n1 % 2:
        return GreensValue(0j, 0.0)
    j = n1 // 2
    value = _axis_entries(mu, j + 1)[j]
    err = (4 * j + 64) * (2.0 ** -52 * value + 2.0 ** -1074)
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


def yukawa_coincidence(mu: float) -> float:
    """Closed coincidence value mu e^{mu^2} Gamma(-1/2, mu^2).

    Finite for every mu > 0 and -> 2 as mu -> 0+; the continuum kernel
    diverges at coincidence, this is the formalism's headline finite number.
    Below mu = 1 it is 2 (1 - sqrt(pi) mu e^{mu^2} erfc(mu)), within 16 ulps
    (12 near mu = 1, where it cancels); from mu = 1 on, 1/d_0 of the
    continued fraction (_gamma_cf_levels at x = mu^2), in which e^{mu^2}
    has cancelled, so nothing overflows at large mu.
    """
    if not mu > 0:
        raise DomainError(f"mu must be positive, got {mu}")
    if mu >= 1.0:
        return 1.0 / _gamma_cf_levels(mu * mu, 1)[0]
    return 2.0 * (1.0 - _SQRT_PI * mu * math.exp(mu * mu) * math.erfc(mu))


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
    n1 = whole(n1, "order")
    if n1 < 1000:
        return math.sqrt(4 ** (n1 + 1) / ((2 * n1 + 1) ** 2 * math.comb(2 * n1, n1)))
    u = 1.0 / n1
    series = 1.0 + u * (-1.0 / 8 + u * (1.0 / 128 + u * (5.0 / 1024 - u * 21.0 / 32768)))
    return 2.0 * (math.pi * n1) ** 0.25 / ((2.0 * n1 + 1.0) * math.sqrt(series))


def coulomb_quadrature(n1: int, cfg: QuadratureConfig) -> GreensValue:
    """Massless axis values by direct 2D quadrature (radius times angle).

    Takes the full grid index: even indices reproduce coulomb_even(index/2),
    odd indices integrate to zero by angular parity.  The mass-zero
    denominator cancels against the radial Jacobian, so the integrand is
    phi_{n1}(k y), a polynomial of degree n1, against e^{-k^2} dk dy: the
    product of the (n1 // 2 + 1)-point Gauss-Hermite rule in k and
    Gauss-Legendre rule in y = cos(theta) is exact, and runs once.  The
    integrand is even under (k, y) -> (-k, -y), so the sum runs on the
    rule's half k >= 0 with its folded scaled weights W
    (quadrature.hermite_half), as W e^{-k^2 (1 - y^2/2)} psi_{n1}(k y) with
    psi = phi e^{-z^2/2}: both factors stay in range at every node.
    err_estimate is the rounding bound (n1 + 8) 2^-52 sum |terms|; against
    the exact integer ratio at n1 = 0..300, 726 and 1454 no value comes
    within a fifth of it.  A bound above 100 * cfg.tol raises
    NonconvergenceError, and an order whose rule would pass GH_RULE_MAX
    (n1 >= 1456) raises OrderTooLargeError before any rule is built.
    """
    n1 = whole(n1, "order")
    nodes = n1 // 2 + 1
    if nodes > GH_RULE_MAX:
        raise OrderTooLargeError(f"massless quadrature at index {n1} needs {nodes} "
                                 f"Gauss-Hermite nodes, at most {GH_RULE_MAX}")
    k, weights, _ = hermite_half(nodes)
    y, wy = gauss_legendre(nodes)
    z = np.outer(k, y)
    terms = phi_at((n1,), z, np.exp(-0.5 * z * z))[n1]
    terms *= np.exp(np.outer(-k * k, 1.0 - 0.5 * y * y))
    terms *= wy
    value = weights @ terms.sum(axis=1)
    err = (n1 + 8) * 2.0 ** -52 * float(weights @ np.abs(terms).sum(axis=1))
    if not err <= 100.0 * cfg.tol:
        raise NonconvergenceError(f"massless quadrature at index {n1}: rounding bound "
                                  f"{err:.3e} exceeds the gate {100.0 * cfg.tol:.3e}")
    return GreensValue(complex(1j ** (n1 % 4) * value), err)


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


@lru_cache(maxsize=None)
def _fourier_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_m and weights w_m, integral_0^inf f(u) sin u du = sum_m w_m
    f(u_m), of Ooura and Mori's double-exponential rule for Fourier
    integrals (J. Comput. Appl. Math. 112, 1999): u = M phi(t) at t = m h,
    m in [-200, 140], M h = pi, phi = t / (1 - e^{-g}), g = 2t + alpha
    (1 - e^{-t}) + beta (e^t - 1).  The nodes near the zeros of sin u
    double-exponentially, so the slow tail needs no cut; t = 0 takes the
    limits phi = 1/g'(0), phi' = (g'(0)^2 - g''(0)) / (2 g'(0)^2).  Cached
    read-only."""
    h, beta, big = 0.04, 0.25, math.pi / 0.04
    alpha = beta / math.sqrt(1.0 + big * math.log1p(big) / (4.0 * math.pi))
    t = h * np.delete(np.arange(-200, 141), 200)
    g = 2.0 * t + alpha * (1.0 - np.exp(-t)) + beta * np.expm1(t)
    one, slope, g1 = -np.expm1(-g), 2.0 + alpha * np.exp(-t) + beta * np.exp(t), 2.0 + alpha + beta
    u = big * np.append(t / one, 1.0 / g1)
    dphi = np.append((one - t * (1.0 - one) * slope) / (one * one), (g1 * g1 + alpha - beta) / (2.0 * g1 * g1))
    return read_only(u, math.pi * dphi * np.sin(u))


def continuum_yukawa_oracle(r: float, mu: float) -> float:
    """Unit-coupling continuum potential from the 1D oscillatory integral
    -(1/(2 pi^2 r)) integral_0^inf k sin(r k)/(k^2 + mu^2) dk.

    In u = r k the integral is integral_0^inf u sin u / (u^2 + a^2) du,
    a = mu r, by _fourier_rule.  Over r in [1e-3, 50] and mu in [1e-100, 10]
    it is within 2.1e-13 relative of -e^{-mu r}/(4 pi r) where mu r <= 5
    (2.3e-15 at mu r = 0.5, 1.4e-15 at mu = 1e-100) and 2.2e-16 absolute
    beyond.  Exists purely as an independent check on continuum_yukawa.
    """
    if not r > 0:
        raise DomainError(f"r must be positive, got {r}")
    if not (mu > 0 and mu * mu > 0):
        raise DomainError(f"mu must be positive with a nonzero square, got {mu}")
    u, w = _fourier_rule()
    a = float(mu) * float(r)
    return -float(w @ (u / (u * u + a * a))) / (2.0 * math.pi ** 2 * r)


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
    n1 = whole(n1, "order")
    if not mu >= 0:
        raise DomainError(f"mu must be nonnegative, got {mu}")
    if mu > 0:
        return g_sharp_axis(n1, mu, cfg).value.real
    if n1 % 2 == 1:
        return 0.0
    return coulomb_even(n1 // 2)

