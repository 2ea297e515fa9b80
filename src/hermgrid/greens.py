"""Static Green's functions of the sharp-difference Laplacian, their closed
coincidence forms, and the continuum comparisons.

The central object is

    G(n, nhat; mu) = integral d^3k  prod_j xi_{n_j}(k_j) conj(xi_{nhat_j}(k_j))
                     / (k.k + mu^2)

which inverts (sharp Laplacian - mu^2) with a Kronecker source and stays
finite at coincidence, unlike its continuum counterpart.  Three independent
evaluation routes are provided and cross-checked: tensor Gauss-Hermite in 3D
(g_sharp), a reduced radial-angular quadrature along one axis (g_sharp_axis),
and closed forms for the coincidence and massless cases.

Evaluation notes.  The integrand's denominator develops a near-pole at the
origin as mu -> 0, which plain Gauss-Hermite cannot resolve at any feasible
node count.  Both quadrature routes therefore subtract a local model of the
integrand at the pole (the quadratic Taylor approximant of the polynomial
pair product in 3D, the exact analytic continuation in the reduced route)
and add back the model's analytically known integral; the subtraction is
exact in the massless limit.  The reduced route drops the subtraction once
mu is large enough that the pole no longer limits the rule, because the
continuation factor grows exponentially with mu^2 there and would only add
cancellation noise.

The reduced route integrates over y = cos(theta) with a Gauss-Legendre rule
of more than n1/2 nodes, which is exact for the even polynomial
phi_{n1}(k y) of degree n1.  The angular moment at each radial node
(_angular_moment) therefore does not depend on mu and is cached per order
and node count, so each mass costs one radial sum; the massless 2D
quadrature reads the same moments on its Gauss-Hermite radii.  The same
exactness makes the subtracted pole term sum_j wy_j phi_{n1}(i mu y_j) an
even polynomial of degree n1 in mu, whose n1/2 + 1 coefficients, all of one
sign, are cached per order and rule (_pole_coefficients) and summed by
Horner's rule in mu^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx

from .errors import DomainError
from .hermite import phi, phi_coefficients, phi_row
from .quadrature import (
    QuadratureConfig,
    contract_even,
    gauss_hermite,
    gauss_laguerre_half,
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
    """A Green's function sample plus the honest refinement-based error bar.

    err_estimate is |value(N) - value(2N)| under node doubling when the
    config asked for refinement (a defect above 100*tol raises, see
    quadrature.refined), exactly 0.0 for results that are exact by
    construction (parity zeros, closed forms), and NaN when refinement was
    disabled so no estimate exists.
    """

    value: complex
    err_estimate: float


def clear_caches() -> None:
    """Drop every cache of this module: memoized Green's values, denominator
    cubes, pole constants, pole models, angular moments and pole-moment
    coefficients; and the sorted-triple rank maps of quadrature, one per
    cube size the screen in contract_even has asked for."""
    for cached in (_g_raw, _inv_denominators, _ball_defects, _pole_model, _angular_moment,
                   _pole_coefficients, triple_rank):
        cached.cache_clear()


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
    at most twofold.  From mu = 1 on, Y = F = 1/(x + 3/2 + t) with x = mu^2
    and t the tail of the continued fraction (_gamma_cf_tail), so
    1 - mu^2 Y = (3/2 + t) F, a form with nothing left to cancel.
    """
    if mu >= 1.0:
        t = _gamma_cf_tail(mu * mu)
        f = 1.0 / (mu * mu + 1.5 + t)
        return math.pi ** 1.5 * f, math.pi ** 1.5 * (1.5 + t) * f / 3.0
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


def _g_eval(n: tuple[int, ...], nhat: tuple[int, ...], mu: float, n_nodes: int) -> complex:
    table = weighted_phi_table(max(max(n), max(nhat)), n_nodes)
    (q0a, q2a), (q0b, q2b), (q0c, q2c) = (_pole_model(n[a], nhat[a]) for a in range(3))
    c0 = q0a * q0b * q0c
    c2 = q2a * q0b * q0c + q0a * q2b * q0c + q0a * q0b * q2c
    val = green_contract(*(table[n[a]] * table[nhat[a]] for a in range(3)), c0, c2, mu, n_nodes)
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
    return GreensValue(complex(value), err)


# Pole subtraction is only worth its numerical cost while the pole at
# x = -mu^2 sits close to the integration ray.  Beyond this threshold the
# plain rule already converges past machine precision, while the subtracted
# continuation phi_{n1}(i mu y) grows like e^{mu^2} times a polynomial in n1
# and the subtract-then-add-back round trip starts to cancel catastrophically
# (about 1e-6 absolute noise by n1 = 40, mu = 4).  Both branches are
# machine-accurate on either side of 1, so the switch is not delicate.
_AXIS_SUBTRACT_MAX_MU = 1.0


@lru_cache(maxsize=256)
def _angular_moment(n1: int, rule, radial_nodes: int, ang_nodes: int) -> np.ndarray:
    """s_i = sum_j wy_j phi_{n1}(k_i y_j) at each radius k_i of a radial rule,
    with the ang_nodes-point Gauss-Legendre rule in y = cos(theta).

    rule is gauss_laguerre_half, whose nodes are x = k^2, or gauss_hermite,
    whose nodes are k.  No mass enters, so one read-only vector per order
    and node count serves every mu.  For even n1, phi_{n1}(k y) is an even
    polynomial of degree n1 in y, which the angular rule integrates exactly
    once ang_nodes > n1 / 2.
    """
    x, _ = rule(radial_nodes)
    k = np.sqrt(x) if rule is gauss_laguerre_half else x
    y, wy = gauss_legendre(ang_nodes)
    s = phi(n1, np.outer(k, y)) @ wy
    s.setflags(write=False)
    return s


@lru_cache(maxsize=256)
def _pole_coefficients(n1: int, ang_nodes: int) -> tuple[float, ...]:
    """c_m, m = 0..n1/2, of the pole moment p(mu) = sum_m c_m mu^(2m) for
    even n1, where p(mu) = sum_j wy_j phi_{n1}(i mu y_j) on the ang_nodes-point
    Gauss-Legendre rule.

    With h_k the power-series coefficients of phi_{n1} (phi_coefficients),
    c_m = h_{2m} (-1)^m (wy @ y^(2m)).  The moments come from the rule, not
    from 2/(2m+1), so that c_0 = wy @ 1 exactly as a plain sum over the
    rule.  Every c_m has the sign (-1)^(n1/2), so Horner's rule in mu^2
    (_pole_moment) does not cancel.  No mass enters; cached per order and
    rule.
    """
    h = phi_coefficients(n1)
    y, wy = gauss_legendre(ang_nodes)
    y2 = y * y
    power = np.ones_like(y)
    out = []
    for m in range(n1 // 2 + 1):
        out.append(float(h[2 * m] * (-1.0) ** m * (power @ wy)))
        power = power * y2
    return tuple(out)


def _pole_moment(n1: int, mu: float, ang_nodes: int) -> float:
    """sum_j wy_j phi_{n1}(i mu y_j) for even n1, by Horner's rule in mu^2."""
    coef = _pole_coefficients(n1, ang_nodes)
    mu2 = mu * mu
    p = coef[-1]
    for c in coef[-2::-1]:
        p = p * mu2 + c
    return p


# At high n1, phi_{n1}(sqrt(x) y) grows fast over the far radial nodes, so
# the axis route relies on half-Laguerre weights that are accurate to
# relative precision there, not only to absolute precision.
def _axis_eval(n1: int, mu: float, radial_nodes: int, ang_nodes: int) -> float:
    xr, wr = gauss_laguerre_half(radial_nodes)
    s = _angular_moment(n1, gauss_laguerre_half, radial_nodes, ang_nodes)
    if mu <= _AXIS_SUBTRACT_MAX_MU:
        pole = _pole_moment(n1, mu, ang_nodes)
        tail = _SQRT_PI - math.pi * mu * float(erfcx(mu))
        val = wr @ ((s - pole) / (xr + mu * mu)) + pole * tail
    else:
        val = wr @ (s / (xr + mu * mu))
    sign = -1.0 if (n1 // 2) % 2 else 1.0
    return float(sign * val / _SQRT_PI)


def g_sharp_axis(n1: int, mu: float, cfg: QuadratureConfig) -> GreensValue:
    """Green's function along one axis, G((n1,0,0),(0,0,0); mu), via the
    reduced two-dimensional integral in x = k^2 and y = cos(theta).

    The radial rule carries the sqrt(x) e^{-x} measure of the reduced
    integrand.  For small mu the integrand's analytic continuation at
    x = -mu^2 is subtracted, removing the nearby pole exactly; for larger mu
    the pole is far from the ray and the plain rule is used (see
    _AXIS_SUBTRACT_MAX_MU).  Either way the result is machine-accurate
    uniformly in mu.  Odd orders vanish by angular parity and are returned
    as exact zeros.

    The angular rule has max(8, n1/2 + 2) nodes at the coarse level and
    twice that at the fine one, so it is exact for the even polynomial
    phi_{n1}(sqrt(x) y) at both; its result, the angular moment at each
    radial node, is mu-independent and cached.  The pole term below the
    switch, sum_j wy_j phi_{n1}(i mu y_j), is an even polynomial of degree
    n1 in mu whose coefficients are cached per order and rule
    (_pole_coefficients) and summed by Horner's rule.  A call then costs
    one radial sum per level; the refinement defect still compares the two
    radial rules.
    """
    n1 = int(n1)
    if n1 < 0:
        raise ValueError(f"order must be nonnegative, got {n1}")
    if not mu > 0:
        raise DomainError(f"mu must be positive, got {mu}")
    if n1 % 2 == 1:
        return GreensValue(0j, 0.0)
    ang = max(8, n1 // 2 + 2)
    value, err = refined(lambda k: _axis_eval(n1, mu, k * cfg.radial_nodes, k * ang), cfg,
                         100.0 * cfg.tol, "axis Green's function at n1={}, mu={}", n1, mu)
    return GreensValue(complex(value), err)


# Depth of the continued fraction in _gamma_cf.  The fraction converges
# fastest for large x; at x = 1, its slowest point, 90 levels already reach
# the double-precision limit.
_CF_DEPTH = 100


def _gamma_cf_tail(x: float) -> float:
    """The tail t of _gamma_cf(x) = 1/(x + 3/2 + t), for x >= 1."""
    t = 0.0
    for n in range(_CF_DEPTH, 0, -1):
        t = -n * (n + 0.5) / (x + 1.5 + 2.0 * n + t)
    return t


def _gamma_cf(x: float) -> float:
    """x^{1/2} e^x Gamma(-1/2, x) for x >= 1.

    Evaluates the even contraction of Legendre's continued fraction for the
    incomplete gamma function (DLMF 8.9.2),
    1/(x + 3/2 - (1*3/2)/(x + 7/2 - (2*5/2)/(x + 11/2 - ...))), bottom-up at
    a fixed depth (_gamma_cf_tail); that direction keeps the rounding to a
    few ulps.  No exponential is formed, so nothing overflows or cancels at
    large x.
    """
    return 1.0 / (x + 1.5 + _gamma_cf_tail(x))


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
    n1 = int(n1)
    if n1 < 0:
        raise ValueError(f"order must be nonnegative, got {n1}")
    if n1 <= 85:
        num = float(2 ** (n1 + 1) * math.factorial(n1))
        return num / ((2 * n1 + 1) * math.sqrt(float(math.factorial(2 * n1))))
    if n1 < 1000:
        return math.sqrt(4 ** (n1 + 1) / ((2 * n1 + 1) ** 2 * math.comb(2 * n1, n1)))
    u = 1.0 / n1
    series = 1.0 + u * (-1.0 / 8 + u * (1.0 / 128 + u * (5.0 / 1024 - u * 21.0 / 32768)))
    return 2.0 * (math.pi * n1) ** 0.25 / ((2.0 * n1 + 1.0) * math.sqrt(series))


def _coulomb_eval(n1: int, gh_nodes: int, ang_nodes: int) -> complex:
    _, w = gauss_hermite(gh_nodes)
    # half-line radial integral folded onto the full line by joint
    # (k, y) -> (-k, -y) symmetry of the integrand
    val = (w @ _angular_moment(n1, gauss_hermite, gh_nodes, ang_nodes)) / _SQRT_PI
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
    n1 = int(n1)
    if n1 < 0:
        raise ValueError(f"order must be nonnegative, got {n1}")
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
    Green's value, through the best route for the given mass."""
    n1 = int(n1)
    if n1 < 0:
        raise ValueError(f"order must be nonnegative, got {n1}")
    if mu < 0:
        raise DomainError(f"mu must be nonnegative, got {mu}")
    if mu > 0:
        return g_sharp_axis(n1, mu, cfg).value.real
    if n1 % 2 == 1:
        return 0.0
    return coulomb_even(n1 // 2)


def v_sharp(n1: int, mu: float, g: float, cfg: QuadratureConfig) -> float:
    """Interaction potential -g^2 w_sharp(n1, mu)."""
    return -(g * g) * w_sharp(n1, mu, cfg)
