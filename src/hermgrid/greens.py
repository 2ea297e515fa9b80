"""Static Green's functions of the sharp-difference Laplacian, their closed
coincidence forms, and the continuum comparisons.

The central object is

    G(n, nhat; mu) = integral d^3k  prod_j xi_{n_j}(k_j) conj(xi_{nhat_j}(k_j))
                     / (k.k + mu^2)

which inverts (sharp Laplacian - mu^2) with a Kronecker source and stays
finite at coincidence, unlike its continuum counterpart.

Closed forms.  The axis values, the coincidence value, the massless axis
values and the continuum potential read only math and live in closed,
with the value and configuration types; they are re-exported here.

Proper-time sum.  Every other pair (g_sharp) takes the proper-time
integral as a trapezoid rule in log t (quadrature.pt_tail), each axis'
Gaussian integral an exact sum on the half of a Gauss-Hermite rule with its
folded scaled weights (quadrature.hermite_half, g_proper_time), cached
per mass and axis pair on one lattice per mass.  The exchange element
(scattering.moller_reduced_element) sums on a tail of the same lattice,
with the same rule for its per-axis factors.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import closed
from .closed import (  # the closed forms, re-exported next to the routes
    AXIS_TABLE,
    PARITY_ZEROS,
    GreensValue,
    QuadratureConfig,
    axis_entries,
    axis_table,
    continuum_yukawa,
    coulomb_even,
    g_sharp_axis,
    yukawa_coincidence,
)
from .errors import DomainError, NonconvergenceError, OrderTooLargeError, whole
from .hermite import phi_at
from .quadrature import (
    GH_RULE_MAX,
    PT_DEGREE_MAX,
    PT_ERROR,
    hermite_half,
    index3,
    pt_tail,
    pt_weights,
    read_only,
)


def clear_caches() -> None:
    """Drop every cache of this module and of closed: the axis tables, the
    per-axis factors of g_proper_time, and the continuum oracle's Fourier
    rule (the quadrature rules and proper-time lattices it reads stay)."""
    closed.clear_caches()
    _axis_laplace.cache_clear()
    _fourier_rule.cache_clear()


def _checked_pair(n, nhat, mu: float) -> tuple[tuple[int, ...], tuple[int, ...], GreensValue | None]:
    """The index triples of a Green's value as ints, once they and the mass
    are valid (mu > 0 with a finite square), and the exact zero phase * 0.0
    of a pair that violates parity on some axis (None for one that does not).
    Two tuples of plain nonnegative ints and a float mass pass in one test
    of the seven types, one of the ints' sign (as in quadrature.index3) and
    one of the mass; any other input takes index3 and the two mass checks,
    with their errors.  g_proper_time calls it, and so does g_sharp for the
    inputs its own one-pass route does not take."""
    plain = type(n) is type(nhat) is tuple and len(n) == len(nhat) == 3
    if plain:
        (a, b, c), (p, q, r) = n, nhat
        plain = (type(a) is type(b) is type(c) is type(p) is type(q) is type(r) is int
                 and a | b | c | p | q | r >= 0 and type(mu) is float and 0.0 < mu and mu * mu < math.inf)
    if not plain:
        (a, b, c), (p, q, r) = n, nhat = index3(n), index3(nhat)
        if not mu > 0:
            raise DomainError(f"mu must be positive here (massless goes through coulomb paths), got {mu}")
        if not math.isfinite(float(mu) * float(mu)):
            raise DomainError(f"mu^2 must be finite for the proper-time sum, got mu = {mu}")
    return n, nhat, PARITY_ZEROS[(a + b + c - p - q - r) % 4] if (a + p | b + q | c + r) & 1 else None


# Elements of one block of _axis_laplace's arrays (256 KiB of doubles each,
# which times best on a 2-core VM: 1.8-2.0 s at (0, 1454) and mu = 1e-300,
# against 2.8 s at half and 4.1 s at four times the size)
_BLOCK = 2 ** 15


# An entry holds 2 doubles per lattice term, 3-4.6 kB for mu in [1e-3,
# 1e3] and at most 50 kB (mu below 2^-500): 12.8 MB at most for 256
# entries.  check full's residual box asks for 7 a mass, `greens --n-max
# 200` for 101.
@lru_cache(maxsize=256)
def _axis_laplace(mu: float, p: int, q: int) -> np.ndarray:
    """Rows J and ones on pt_tail(mu, PT_DEGREE_MAX), p <= q: J = pi^{-1/2}
    integral phi_p phi_q e^{-(1+t) x^2} dx at s = 1/(1+t), tau = t s, and
    J with phi_p phi_q replaced by 1.  In x = y sqrt(s) it is an even
    polynomial of degree p + q against e^{-y^2}, so exactly sqrt(s) sum_j
    W_j e^{-tau y_j^2} psi_p psi_q(y_j sqrt(s)), W_j the folded scaled
    weights of quadrature.hermite_half.  Each node's entries are those of
    any tail at that node.  The lattice terms go in blocks of _BLOCK
    elements (terms times nodes), each row one sum as in a single block, so
    the top order at the least mass peaks at 3 MiB (78 in one block); every
    factor at mu >= 1e-3 up to p + q = 226 is one block.  Cached read-only
    per (mu, p, q)."""
    _, s, tau, _ = pt_tail(mu, PT_DEGREE_MAX)
    y, weights, _ = hermite_half((p + q) // 2 + 1)
    root = np.sqrt(s)
    square = y * y
    rows = np.empty((2, root.size))
    step = max(1, _BLOCK // y.size)
    for i in range(0, root.size, step):
        part = slice(i, i + step)
        damped = np.exp(-np.outer(tau[part], square)) * weights
        z = np.outer(root[part], y)
        psi = phi_at((p, q), z, np.exp(-0.5 * z * z))
        rows[0, part] = np.sum(psi[p] * psi[q] * damped, axis=1)
        rows[1, part] = np.sum(damped, axis=1)
    rows *= root
    return read_only(rows)[0]


# The largest n_a + nhat_a on an axis whose factor's rule, of
# (n_a + nhat_a) // 2 + 1 nodes, stays within GH_RULE_MAX
_ORDER_MAX = 2 * GH_RULE_MAX - 1


def g_proper_time(n, nhat, mu: float, cfg: QuadratureConfig) -> GreensValue:
    """G(n, nhat; mu) = i^(sum n - sum nhat) sum_m w_m prod_a J_a(t_m) on
    pt_tail(mu, D), the lattice for y in [mu^2, mu^2 + 2D + 16], D = sum n
    + sum nhat (190 to 260 terms for mu in [1e-3, 1e4]), each J_a exact; a
    parity zero as in g_sharp.  It is the tail of one lattice per mass, on
    the whole of which each axis' J_a is cached per (mu, min, max) of the
    axis' pair (_axis_laplace) and sliced to its last len(w) nodes, so a
    warm pair is three lookups, a product and a dot, with the bits of a sum
    on its own lattice.  prod_a J_a(t) is a Laplace transform in t of the
    integrand over k.k, so the rule's bound for 1/y holds.  err_estimate
    is (2^-52 (max order + 2) + 2^-53 (L + 4) + PT_ERROR) times the sum
    with every basis value 1: rounding in the recurrence and sums, in the
    nodes v_m = m h (2^-53 |v_m|, the terms mattering where |v| <= L + 4,
    L = max |ln y|), and the rule's error.
    Absolute terms alone bound nothing: the recurrence cancels near s = 1.
    It raises NonconvergenceError above 100 * cfg.tol, and
    OrderTooLargeError, naming the pair, past n_a + nhat_a = 1454 on some
    axis, whose rule would pass GH_RULE_MAX nodes, before any rule is built.
    """
    n, nhat, zero = _checked_pair(n, nhat, mu)
    if zero is not None:
        return zero
    return _proper_time_sum(n, nhat, mu, cfg)


def _proper_time_sum(n: tuple[int, ...], nhat: tuple[int, ...], mu: float, cfg: QuadratureConfig) -> GreensValue:
    """g_proper_time's sum at a checked pair of ints that keeps parity on
    every axis and a checked mass, which its errors name as given."""
    (a, b, c), (p, q, r) = n, nhat
    if a + p > _ORDER_MAX or b + q > _ORDER_MAX or c + r > _ORDER_MAX:
        widest = max(a + p, b + q, c + r)
        raise OrderTooLargeError(f"Green's function at n={n}, nhat={nhat}: an axis of order {widest} needs "
                                 f"{widest // 2 + 1} Gauss-Hermite nodes, at most {GH_RULE_MAX}")
    x = float(mu)
    # each axis' factor is cached under its pair in ascending order, set by a
    # conditional: min() and max() took 0.7 us of a warm pair
    prod = ((_axis_laplace(x, a, p) if a <= p else _axis_laplace(x, p, a))
            * (_axis_laplace(x, b, q) if b <= q else _axis_laplace(x, q, b))
            * (_axis_laplace(x, c, r) if c <= r else _axis_laplace(x, r, c)))
    w, big_log = pt_weights(x, a + b + c + p + q + r)
    # the factors on the pair's own lattice: its last len(w) nodes
    value, ones = w.dot(prod[0, -w.size:]), w.dot(prod[1, -w.size:])
    err = float((2.0 ** -52 * (max(a, b, c, p, q, r) + 4 + 0.5 * big_log) + PT_ERROR) * ones)
    if not err <= 100.0 * cfg.tol:
        raise NonconvergenceError(f"Green's function at n={n}, nhat={nhat}, mu={mu}: rounding "
                                  f"bound {err:.3e} exceeds the gate {100.0 * cfg.tol:.3e}")
    return GreensValue(complex(1j ** ((a + b + c - p - q - r) % 4) * value), err)


def g_sharp(n, nhat, mu: float, cfg: QuadratureConfig) -> GreensValue:
    """G(n, nhat; mu) by the one route for its kind of pair.  A pair that
    violates parity on some axis is the exact zero phase * 0.0,
    err_estimate 0.0.  An axis pair, (0,0,0) against an index with at most
    one nonzero component n1, on any axis and in either order, is read
    straight from the per-mass table of closed (axis_table): the shared entry
    g_sharp_axis(n1) returns, the coincidence value at n1 = 0, whatever cfg
    holds.  Every other pair is g_proper_time's sum, with its bound and
    errors, gated at 100 * cfg.tol.

    Two tuples of three plain nonnegative ints and a float mass whose square
    is positive and finite pass every check in one test, _checked_pair's,
    made here on the six ints unpacked once; the route is picked on the
    same six ints, and a general pair goes to the sum without a second
    check.  Any other input (lists, numpy ints or bools, whole floats,
    numpy or int masses, bad values) takes _checked_pair's full checks, with
    their errors in their order, and then the same routes, so its value or
    error is the one of its plain form.
    """
    plain = type(n) is type(nhat) is tuple and len(n) == len(nhat) == 3
    if plain:
        (a, b, c), (p, q, r) = n, nhat
        plain = (type(a) is type(b) is type(c) is type(p) is type(q) is type(r) is int
                 and a | b | c | p | q | r >= 0 and type(mu) is float and 0.0 < mu and mu * mu < math.inf)
    if not plain:
        # the parity zero _checked_pair returns is the one found below
        n, nhat, _ = _checked_pair(n, nhat, mu)
        (a, b, c), (p, q, r) = n, nhat
    twice = a + b + c + p + q + r
    # five of the six are 0 exactly when one of them is their sum (one
    # comparison at a time, which builds no tuple), and such a pair keeps
    # parity exactly when the sum is even
    if twice == a or twice == b or twice == c or twice == p or twice == q or twice == r:
        if twice & 1:
            return PARITY_ZEROS[(a + b + c - p - q - r) & 3]
        j = twice >> 1
        if j < AXIS_TABLE:
            return axis_table(mu, AXIS_TABLE)[j]
        return axis_entries(mu, j + 1)[j]
    if (a + p | b + q | c + r) & 1:
        return PARITY_ZEROS[(a + b + c - p - q - r) & 3]
    return _proper_time_sum(n, nhat, mu, cfg)


def coulomb_quadrature(n1: int, cfg: QuadratureConfig) -> GreensValue:
    """Massless axis values by direct quadrature, the check on coulomb_even.

    Takes the full grid index: even indices reproduce coulomb_even(index/2);
    odd indices integrate to zero by angular parity and return the exact
    zero.  The mass-zero denominator cancels against the radial Jacobian,
    so the integrand is phi_{n1}(k y) against e^{-k^2} dk dy, y = cos(theta).
    As phi_{n+1}' = sqrt(2(n+1)) phi_n, its angle integral is
    2 phi_{n1+1}(k) / (k sqrt(2(n1+1))), an even polynomial of degree n1,
    which the half of the Gauss-Hermite rule of nodes + nodes % 2 points,
    nodes = n1 // 2 + 1 (an even rule, no node at k = 0), sums exactly as
    (2 / sqrt(2(n1+1))) sum_i W_i e^{-k_i^2/2} psi_{n1+1}(k_i) / k_i, W the
    folded scaled weights (quadrature.hermite_half), psi = phi e^{-k^2/2}.
    err_estimate is the rounding bound (n1 + 8) 2^-52 sum |terms|; against
    the exact integer ratio at n1 = 0..300, 726, 1000, 1452 and 1454 no
    value comes within a fifth of it.  A bound above 100 * cfg.tol raises
    NonconvergenceError, and an order whose rule would pass GH_RULE_MAX
    (n1 >= 1456) raises OrderTooLargeError before any rule is built.
    """
    n1 = whole(n1, "order")
    nodes = n1 // 2 + 1
    if nodes > GH_RULE_MAX:
        raise OrderTooLargeError(f"massless quadrature at index {n1} needs {nodes} "
                                 f"Gauss-Hermite nodes, at most {GH_RULE_MAX}")
    if n1 % 2:
        return PARITY_ZEROS[0]
    k, weights, _ = hermite_half(nodes + nodes % 2)
    seed = np.exp(-0.5 * k * k)
    terms = phi_at((n1 + 1,), k, seed)[n1 + 1] * seed * weights / k * (2.0 / math.sqrt(2.0 * (n1 + 1)))
    value = terms.sum()
    err = (n1 + 8) * 2.0 ** -52 * float(np.abs(terms).sum())
    if not err <= 100.0 * cfg.tol:
        raise NonconvergenceError(f"massless quadrature at index {n1}: rounding bound "
                                  f"{err:.3e} exceeds the gate {100.0 * cfg.tol:.3e}")
    return GreensValue(complex(1j ** (n1 % 4) * value), err)


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
    if not 0 < r < math.inf:
        raise DomainError(f"r must be positive and finite, got {r}")
    if not (0 < mu < math.inf and mu * mu > 0):
        raise DomainError(f"mu must be positive and finite with a nonzero square, got {mu}")
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
    if not 0 <= mu < math.inf:
        raise DomainError(f"mu must be nonnegative and finite, got {mu}")
    if mu > 0:
        return g_sharp_axis(n1, mu, cfg).value.real
    if n1 % 2 == 1:
        return 0.0
    return coulomb_even(n1 // 2)

