"""Gamma matrices, plane-wave bispinors, spin sums, and the on-shell
fermionic Green's-function integral.

Metric convention diag(1,1,1,-1) with an anti-Hermitian time matrix.  The
adjoint is s~ = i s^dagger gamma4, and spinors are mass-normalized so that
u~u = +1 and v~v = -1 per spin at every momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, OrderTooLargeError, momentum
from .hermite import phi_at, phi_fill
from .quadrature import GH_RULE_MAX, QuadratureConfig, gauss_legendre, hermite_half, index3, read_only, refined

_I = 1j


def _gamma_matrices() -> tuple[np.ndarray, ...]:
    g1 = np.array(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex
    )
    g2 = np.array(
        [[0, 0, 0, -_I], [0, 0, _I, 0], [0, -_I, 0, 0], [_I, 0, 0, 0]], dtype=complex
    )
    g3 = np.array(
        [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex
    )
    g4 = np.diag([-_I, -_I, _I, _I]).astype(complex)
    return g1, g2, g3, g4


@dataclass(frozen=True)
class GammaSet:
    """The four 4x4 matrices; index 1..3 spatial (Hermitian), 4 time (anti-Hermitian)."""

    matrices: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def __getitem__(self, mu: int) -> np.ndarray:
        if mu not in (1, 2, 3, 4):
            raise ValueError(f"gamma index must be 1..4, got {mu}")
        return self.matrices[mu - 1]


def gamma_set() -> GammaSet:
    """Fresh copies of the representation's exact entries (all 0, +-1, +-i)."""
    return GammaSet(_gamma_matrices())


def energy(p: tuple[float, float, float], m: float) -> float:
    """On-shell energy +sqrt(p.p + m^2) by math.hypot, so no square overflows;
    DomainError for a bad momentum (errors.momentum) or mass."""
    if not (m > 0 and math.isfinite(m)):
        raise DomainError(f"mass must be positive and finite, got {m}")
    return math.hypot(*momentum(p), m)


def _sigma_dot(p: tuple[float, float, float]) -> np.ndarray:
    p1, p2, p3 = p
    return np.array([[p3, p1 - _I * p2], [p1 + _I * p2, -p3]], dtype=complex)


def _chi(r: int) -> np.ndarray:
    if r not in (1, 2):
        raise ValueError(f"spin label must be 1 or 2, got {r}")
    chi = np.zeros(2, dtype=complex)
    chi[r - 1] = 1.0
    return chi


def spinor_u(r: int, p: tuple[float, float, float], m: float) -> np.ndarray:
    """Particle bispinor; rest-frame limit is the r-th unit column."""
    e = energy(p, m)
    pref = math.sqrt((m + e) / (2.0 * m))
    chi = _chi(r)
    out = np.empty(4, dtype=complex)
    out[:2] = pref * chi
    out[2:] = pref * (-_I) * (_sigma_dot(p) @ chi) / (m + e)
    return out


def spinor_v(r: int, p: tuple[float, float, float], m: float) -> np.ndarray:
    """Antiparticle bispinor; rest-frame limit is the (2+r)-th unit column."""
    e = energy(p, m)
    pref = math.sqrt((m + e) / (2.0 * m))
    chi = _chi(r)
    out = np.empty(4, dtype=complex)
    out[:2] = pref * _I * (_sigma_dot(p) @ chi) / (m + e)
    out[2:] = pref * chi
    return out


def dirac_adjoint(s: np.ndarray) -> np.ndarray:
    """Row vector i s^dagger gamma4."""
    return _I * (np.conj(s) @ _GAMMAS[3])


def orthonormality_check(p: tuple[float, float, float], m: float) -> float:
    """Max deviation over all 16 inner products from u~u = delta, v~v = -delta,
    u~v = v~u = 0, divided by E/m, the size of the two terms that cancel in
    each (u~u = ((E + m) - (E - m)) / 2m): a few ulps at any momentum."""
    us = [spinor_u(r, p, m) for r in (1, 2)]
    vs = [spinor_v(r, p, m) for r in (1, 2)]
    uts = [dirac_adjoint(u) for u in us]
    vts = [dirac_adjoint(v) for v in vs]
    worst = 0.0
    for r in range(2):
        for s in range(2):
            delta = 1.0 if r == s else 0.0
            worst = max(worst, abs(uts[r] @ us[s] - delta))
            worst = max(worst, abs(vts[r] @ vs[s] + delta))
            worst = max(worst, abs(uts[r] @ vs[s]))
            worst = max(worst, abs(vts[r] @ us[s]))
    return worst / (energy(p, m) / m)


def low_momentum_u(r: int, p: tuple[float, float, float], m: float) -> np.ndarray:
    """Truncated expansion of spinor_u through third order in |p|/m.

    Upper components chi (1 + t/2), lower -i (sigma.p) chi (1 - t/2) / (2m)
    with t = (|p|/2m)^2; the neglected remainder is O(|p|^4).  DomainError
    for a bad momentum (errors.momentum) or mass, and for |p| >= m.
    """
    if not (m > 0 and math.isfinite(m)):
        raise DomainError(f"mass must be positive and finite, got {m}")
    p = momentum(p)
    norm2 = p[0] * p[0] + p[1] * p[1] + p[2] * p[2]
    if norm2 >= m * m:
        raise DomainError(f"|p| = {math.sqrt(norm2)} not below m = {m}")
    t = norm2 / (4.0 * m * m)
    chi = _chi(r)
    out = np.empty(4, dtype=complex)
    out[:2] = chi * (1.0 + 0.5 * t)
    out[2:] = (-_I) * (_sigma_dot(p) @ chi) / (2.0 * m) * (1.0 - 0.5 * t)
    return out


def spin_sum(p: tuple[float, float, float], m: float) -> np.ndarray:
    """(m/E) sum_r u_r u~_r, the positive-energy projector."""
    e = energy(p, m)
    total = np.zeros((4, 4), dtype=complex)
    for r in (1, 2):
        u = spinor_u(r, p, m)
        total += np.outer(u, dirac_adjoint(u))
    return (m / e) * total


_GAMMAS = read_only(*_gamma_matrices())
# Share of every matrix entry that the radial rule may drop past its radius.
_TAIL = 2.0 ** -64
# ln 2 in two parts (Cody and Waite): e * _LN2_HI is exact for whole e below 2^21.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


@lru_cache(maxsize=256)
def _radius(pair_degree: int) -> float:
    """Radius R past which each entry of the projector holds less than _TAIL.

    Mehler's formula bounds every basis polynomial on the real line:
    phi_n(x)^2 <= t^-n (1-t^2)^-1/2 e^{2 x^2 t/(1+t)} for any 0 < t < 1.  So
    a pair product of total degree D = sum n + sum nhat, times its Gaussian,
    stays below t^{-D/2} (1-t^2)^{-3/2} e^{-b k.k} with b = (1-t)/(1+t).
    The kernel factors of the entries (m/2E, k_a/2E and 1/2 against the
    gamma matrices) are at most 1/2 each in size, so past R an entry loses at
    most

        4 pi^-1/2 t^{-D/2} (1-t^2)^{-3/2} R e^{-b R^2} / b

    (the radial integral of r^2 e^{-b r^2} from R on is below R e^{-b R^2}/b
    once b R^2 >= 1/2).  R is the least such radius over a grid of 50 t in
    [0.01, 0.5], each from at most 20 steps of the fixed-point iteration
    r = sqrt((log C + log r) / b), stopped once a step returns its input
    (every further step would too).  The radii fall and then rise along the
    grid, so the least one is found by bisecting on the sign of the step
    from grid point i to i + 1, at about a dozen points.  That gives the
    float of the full scan at every degree from 0 to 3,000, each checked,
    and the projector's Gauss-Hermite cap (GH_RULE_MAX) admits no degree
    above 2,178 (726 on each axis).
    """
    grid = np.linspace(0.01, 0.5, 50).tolist()
    log_tail = math.log(4.0 / math.sqrt(math.pi) / _TAIL)

    @lru_cache(maxsize=None)
    def radius_at(i: int) -> float:
        t = grid[i]
        b = (1.0 - t) / (1.0 + t)
        log_c = log_tail - 0.5 * pair_degree * math.log(t) - 1.5 * math.log1p(-t * t) - math.log(b)
        r = 1.0
        for _ in range(20):
            step = math.sqrt((log_c + math.log(r)) / b)
            if step == r:
                break
            r = step
        return r

    lo, hi = 0, len(grid) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if radius_at(mid) <= radius_at(mid + 1):
            hi = mid
        else:
            lo = mid + 1
    return radius_at(lo)


@lru_cache(maxsize=256)
def _radial_rule(n_nodes: int, pair_degree: int) -> tuple[np.ndarray, ...]:
    """Gauss-Legendre nodes r on [0, R], weights w r^2, and the Gaussian
    e^{-r^2} = g 2^-e as a mantissa g and a whole exponent e: past r = 27.3
    it is 0 as a double.  r^2 is formed exactly as hi + lo (Dekker's
    product) and e = round(r^2 / ln 2) is taken off it against ln 2 in two
    parts, so g = e^{e ln 2 - hi - lo} carries about one ulp however large
    r^2 is; rounding r^2 alone would cost r^2 ulps."""
    radius = _radius(pair_degree)
    y, wy = gauss_legendre(n_nodes)
    r = 0.5 * radius * (1.0 + y)
    hi = r * r
    split = 134217729.0 * r
    r_hi = split - (split - r)
    r_lo = r - r_hi
    lo = ((r_hi * r_hi - hi) + 2.0 * r_hi * r_lo) + r_lo * r_lo
    e = np.rint(hi / math.log(2.0))
    gauss = np.exp((e * _LN2_HI - hi) + (e * _LN2_LO - lo))
    return read_only(r, (0.5 * radius * wy) * hi, gauss, e.astype(int))


# Bounded: an entry holds at most 364 doubles (p + q + lift = 727).
@lru_cache(maxsize=1024)
def _axis_overlaps(p: int, q: int, lift: int) -> np.ndarray:
    """g(k) = b_k O(2k) for 2k <= p + q + lift (read-only), with b_k =
    sqrt((2k)!) / (k! 2^k) and O(j) = sum_i W_i psi_j(y_i) psi_p psi_q(z_i)
    z_i^lift, psi_j = phi_j e^{-y^2/2} and z = y / sqrt(2), on the
    half of the (p + q + lift + 1)-point Gauss-Hermite rule, W its folded
    scaled weights (quadrature.hermite_half).  The integrand is an even
    polynomial of degree j + p + q + lift times e^{-y^2}, so the rule is
    exact, and O(j) vanishes for j > p + q + lift by orthogonality."""
    count = p + q + lift + 1
    y, weights, _ = hermite_half(count)
    z = y / math.sqrt(2.0)
    pair = phi_at((p, q), z, np.exp(-0.5 * z * z))
    line = weights * pair[p] * pair[q] * z ** lift
    rows = np.empty((count, y.size))
    phi_fill(rows, y, np.exp(-0.5 * y * y))
    even = rows[::2] @ line
    k = np.arange(1.0, even.size)
    b = np.sqrt(np.cumprod(np.concatenate([[1.0], (2.0 * k - 1.0) / (2.0 * k)])))
    return read_only(b * even)[0]


def _shell_profile(n, nhat, odd, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(r, f): n_nodes radial nodes and weights, sum_i f_i K(r_i) the integral
    over momentum of prod_a phi_{n_a} phi_{nhat_a}(k_a) (times k_a on the
    axis in odd, at most one) e^{-k.k} K(|k|), in O(D^2) work at degree D.

    Only the product's l = 0 part survives the angular integral: a sum over
    the l = 0 oscillator shells at scale sqrt(2) (Moshinsky and Smirnov, The
    Harmonic Oscillator in Modern Physics, 1996).  Shell K is the sum S_K
    of the products of even one-axis states of half-orders k_1 + k_2 + k_3
    = K, weighted b_{k_1} b_{k_2} b_{k_3}, whose radial function is
    (-1)^K L_K(x) e^{-x/2} at x = 2 r^2 (L_K the Laguerre polynomial of
    alpha = 1/2).  The pair's overlap with S_K is the convolution C_K of
    the axes' g (_axis_overlaps), and |S_K|^2 = (b^2 * b^2 * b^2)[K] is
    L_K(0) = prod_{i<=K} (2i + 1)/(2i) (b_k^2 has the generating function
    (1 - t)^{-1/2}).  So the profile is 4 pi sum_K C_K P_K(x) e^{-x/2},
    with P_K = (-1)^K L_K / L_K(0) run by the recurrence (K + 3/2) P_{K+1}
    = (x - 2K - 3/2) P_K - K P_{K-1} from P_0 = 1, the Gaussian's mantissa
    (_radial_rule); at r = 0 it is 4 pi times the polynomial at 0.  Far
    nodes drive P_K past the double range, so, as in
    quadrature._christoffel_weights, a node's state is divided by an exact
    power of two whenever a value exceeds 2^256; that exponent and the
    Gaussian's apply only at the end.
    """
    g = [_axis_overlaps(min(p, q), max(p, q), int(a in odd)) for a, (p, q) in enumerate(zip(n, nhat))]
    coef = np.convolve(np.convolve(g[0], g[1]), g[2]).tolist()
    r, w, gauss, exponent = _radial_rule(n_nodes, sum(n) + sum(nhat))
    x = 2.0 * r * r
    prev, cur = 0.0, gauss
    total = coef[0] * cur
    shift = -exponent
    for k in range(len(coef) - 1):
        prev, cur = cur, ((x - (2 * k + 1.5)) * cur - k * prev) / (k + 1.5)
        total += coef[k + 1] * cur
        if abs(cur).max() > 2.0 ** 256:
            e = np.where(abs(cur) > 1.0, np.frexp(cur)[1], 0)
            prev, cur, total = (np.ldexp(v, -e) for v in (prev, cur, total))
            shift = shift + e
    return r, (4.0 * math.pi) * w * np.ldexp(total, shift)


def _s_plus_eval(
    n: tuple[int, int, int],
    nhat: tuple[int, int, int],
    dt: float,
    m: float,
    n_nodes: int,
) -> np.ndarray:
    # The kernels e^{-iE dt}/2E and e^{-iE dt} depend on |k| alone, so each
    # integral is a radial sum against the pair polynomial's l = 0 profile.
    # The pair is odd in the axes where n_a + nhat_a is odd.  Only integrals
    # whose integrand is even in every axis survive: those of m and gamma4
    # for an even pair, that of gamma_a for a pair odd in axis a alone, and
    # none for a pair odd in two axes.
    odd = [a for a in range(3) if (n[a] + nhat[a]) % 2]
    core = np.zeros((4, 4), dtype=complex)
    if len(odd) <= 1:
        r, f = _shell_profile(n, nhat, odd, n_nodes)
        e = np.sqrt(r * r + m * m)
        osc = np.exp((-_I * dt) * e)
        i_k = f @ (osc / (2.0 * e))
        if odd:
            core = _I * i_k * _GAMMAS[odd[0]]
        else:
            core = -_I * (0.5 * (f @ osc)) * _GAMMAS[3] - m * i_k * np.eye(4)
    phase = _I ** ((sum(n) - sum(nhat)) % 4)
    return (_I * phase * math.pi ** -1.5) * core


def s_plus_green(
    n: tuple[int, int, int],
    nhat: tuple[int, int, int],
    dt: float,
    m: float,
    cfg: QuadratureConfig,
) -> np.ndarray:
    """On-shell fermionic Green's function sample between two grid indices.

    Evaluates i * integral of [(i gamma.p - i gamma4 E - m)/2E] times the
    basis-pair product times e^{-iE dt} over momentum.  The kernels depend
    on |k| alone, so the integral is a radial Gauss-Legendre sum on [0, R]
    of the kernels against the pair polynomial's l = 0 profile, a sum over
    oscillator shells in O(D^2) work (_shell_profile), with D = sum n +
    sum nhat the pair's degree.  R follows from a stated tail bound
    (_radius); on [0, R] the rule resolves the branch point of E at
    |k| = i m at any mass.  Only the radial rule is refined, at k *
    max(QuadratureConfig.gh_nodes, D) nodes for k = 1, 2: a pair of high
    degree needs about as many radial nodes as its degree.  The gate
    (quadrature.refined) is cfg.tol on the largest entry defect.  A pair odd in
    two axes gives exact zeros at any order.  An axis whose n_a + nhat_a,
    plus one on the odd axis, reaches GH_RULE_MAX = 728 would need a
    Gauss-Hermite rule past that cap: OrderTooLargeError, before any rule
    is built.
    """
    n = index3(n)
    nhat = index3(nhat)
    if not (m > 0 and math.isfinite(float(m) * float(m))):
        raise DomainError(f"mass must be positive with a finite square, got {m}")
    m = float(m)
    if not math.isfinite(dt):
        raise DomainError(f"time separation must be finite, got {dt}")
    odd = [a for a in range(3) if (n[a] + nhat[a]) % 2]
    rule = max(n[a] + nhat[a] + (a in odd) for a in range(3)) + 1
    if len(odd) <= 1 and rule > GH_RULE_MAX:
        raise OrderTooLargeError(f"fermionic Green's function at n={n}, nhat={nhat}: its overlaps need a "
                                 f"{rule}-point Gauss-Hermite rule, at most {GH_RULE_MAX}")
    n_nodes = max(QuadratureConfig.gh_nodes, sum(n) + sum(nhat))
    value, _ = refined(lambda k: _s_plus_eval(n, nhat, dt, m, k * n_nodes), cfg.tol,
                       "fermionic Green's function at n={}, nhat={}", n, nhat)
    return value
