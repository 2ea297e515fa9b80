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

from .errors import DomainError, OrderTooLargeError
from .hermite import phi_at
from .quadrature import QuadratureConfig, gauss_legendre, index3, read_only, refined

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
    """On-shell energy +sqrt(p.p + m^2)."""
    if not m > 0:
        raise DomainError(f"mass must be positive, got {m}")
    return math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2 + m * m)


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
    g4 = _gamma_matrices()[3]
    return _I * (np.conj(s) @ g4)


def orthonormality_check(p: tuple[float, float, float], m: float) -> float:
    """Max deviation over all 16 inner products from u~u = delta, v~v = -delta,
    u~v = v~u = 0."""
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
    return worst


def low_momentum_u(r: int, p: tuple[float, float, float], m: float) -> np.ndarray:
    """Truncated expansion of spinor_u through third order in |p|/m.

    Upper components chi (1 + t/2), lower -i (sigma.p) chi (1 - t/2) / (2m)
    with t = (|p|/2m)^2; the neglected remainder is O(|p|^4).
    """
    norm2 = p[0] ** 2 + p[1] ** 2 + p[2] ** 2
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
# Largest stated work of one projector (_check_work): (100,100,100)^2 has
# 1.8e9, (300,200,0)/(100,0,0) 2.8e9, (150,150,150)^2 9.2e9 and
# (300,300,300)^2 1.5e11.
_WORK_MAX = 4e9
# Points evaluated at once: the sphere rule of a high order is walked through
# in blocks of about this many points, so memory does not grow with the order.
_BLOCK = 2 ** 18


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
    and the projector's work budget (_WORK_MAX) admits no degree above
    about 2,500.
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
def _radial_rule(n_nodes: int, pair_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes r on [0, R] and weights w r^2 e^{-r^2}.

    r^2 is formed exactly as hi + lo (Dekker's product), so that
    r^2 e^{-r^2} = hi e^{-hi} (1 + lo/hi - lo) carries about one ulp however
    large r^2 is; rounding r^2 alone would cost r^2 ulps in e^{-r^2}."""
    radius = _radius(pair_degree)
    y, wy = gauss_legendre(n_nodes)
    r = 0.5 * radius * (1.0 + y)
    hi = r * r
    split = 134217729.0 * r
    r_hi = split - (split - r)
    r_lo = r - r_hi
    lo = ((r_hi * r_hi - hi) + 2.0 * r_hi * r_lo) + r_lo * r_lo
    w = (0.5 * radius * wy) * (hi * np.exp(-hi)) * (1.0 + (lo / hi - lo))
    return read_only(r, w)


@lru_cache(maxsize=256)
def _sphere_rule(degree: int, equator: int) -> tuple[np.ndarray, ...]:
    """Product rule over the unit sphere for polynomials even in each axis,
    of degree <= degree in all and <= equator in the two equatorial axes.

    Returns the polar nodes u = cos(theta) >= 0, sin(theta), the weights and
    the azimuth cosines c_j.  The integral of f over the whole sphere is
    sum_t w_t sum_j f(s_t c_j, s_t c_{M-1-j}, u_t), exact for such f:
    Gauss-Legendre in u with degree//2 + 1 nodes, folded onto u >= 0 by
    parity (a node at 0 counted once), and the midpoint rule in the azimuth
    on [0, pi/2] with M = equator//4 + 1 points.  The latter is the
    4M-point rule over the circle folded by parity, and an integrand even in
    both equatorial axes carries only the harmonics cos(2 l phi) with
    2 l <= equator < 4M, which it integrates exactly.
    """
    u, wu = gauss_legendre(degree // 2 + 1)
    half = u >= 0
    u, wu = u[half], np.where(u[half] > 0, 2.0 * wu[half], wu[half])
    m = equator // 4 + 1
    c = np.cos((np.arange(m) + 0.5) * (math.pi / (2 * m)))
    return read_only(u, np.sqrt((1.0 - u) * (1.0 + u)), wu * (2.0 * math.pi / m), c)


def _radial_profile(n, nhat, odd, r: np.ndarray) -> np.ndarray:
    """At each radius r_i, the integral over the unit sphere of the
    basis-pair polynomial prod_a phi_{n_a} phi_{nhat_a}(k_a), times k_a for
    the axis a in odd (at most one), at k = r_i times the direction.

    The axis of the highest degree is the polar one, so that a pair that
    excites one axis alone needs a single azimuth."""
    deg = [n[a] + nhat[a] + (a in odd) for a in range(3)]
    pole = deg.index(max(deg))
    eq = [a for a in range(3) if a != pole]
    u, s, w, c = _sphere_rule(sum(deg), sum(deg) - deg[pole])
    cs = np.stack([c, c[::-1]])
    mb = min(c.size, max(1, _BLOCK // (2 * r.size)))
    tb = max(1, _BLOCK // (2 * r.size * mb))
    profile = np.zeros(r.size)
    for t in (slice(i, i + tb) for i in range(0, u.size, tb)):
        z = r[:, None] * u[t]
        rows = phi_at((n[pole], nhat[pole]), z)
        polar = rows[n[pole]] * rows[nhat[pole]]
        if pole in odd:
            polar *= z
        rs = (r[:, None] * s[t])[:, :, None, None]
        ring = 0.0
        for j in range(0, c.size, mb):
            # equatorial coordinates, indexed (radius, polar node, axis, azimuth)
            k = rs * cs[:, j:j + mb]
            rows = phi_at([n[a] for a in eq] + [nhat[a] for a in eq], k)
            q = (rows[n[eq[0]]][:, :, 0] * rows[nhat[eq[0]]][:, :, 0]
                 * (rows[n[eq[1]]][:, :, 1] * rows[nhat[eq[1]]][:, :, 1]))
            if odd and odd[0] != pole:
                q *= k[:, :, eq.index(odd[0])]
            ring = ring + q.sum(axis=-1)
        profile += (ring * polar) @ w[t]
    return profile


def _check_work(n: tuple[int, ...], nhat: tuple[int, ...], n_nodes: int) -> None:
    """OrderTooLargeError where sphere points (as _radial_profile sizes them) x fine
    radial nodes x highest order passes _WORK_MAX; a pair odd in two axes needs no rule."""
    deg = [a + b + (a + b) % 2 for a, b in zip(n, nhat)]
    work = (sum(deg) // 2 + 2) // 2 * ((sum(deg) - max(deg)) // 4 + 1) * 2 * n_nodes * max(n + nhat)
    if work > _WORK_MAX and sum(deg) - sum(n) - sum(nhat) <= 1:
        raise OrderTooLargeError(f"fermionic Green's function at n={n}, nhat={nhat}: stated work "
                                 f"{work:.2e} exceeds the budget {_WORK_MAX:.0e}")


def _s_plus_eval(
    n: tuple[int, int, int],
    nhat: tuple[int, int, int],
    dt: float,
    m: float,
    n_nodes: int,
) -> np.ndarray:
    # The kernels e^{-iE dt}/2E and e^{-iE dt} depend on |k| alone, so each
    # integral is a radial sum of the pair polynomial's spherical average.
    # The pair is odd in the axes where n_a + nhat_a is odd.  Only integrals
    # whose integrand is even in every axis survive: those of m and gamma4
    # for an even pair, that of gamma_a for a pair odd in axis a alone, and
    # none for a pair odd in two axes.
    odd = [a for a in range(3) if (n[a] + nhat[a]) % 2]
    core = np.zeros((4, 4), dtype=complex)
    if len(odd) <= 1:
        r, w = _radial_rule(n_nodes, sum(n) + sum(nhat))
        f = w * _radial_profile(n, nhat, odd, r)
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
    on |k| alone, so the integral splits into the average of the pair
    polynomial over the sphere, by a product rule exact for its degree, and
    a radial Gauss-Legendre sum on [0, R] against r^2 e^{-r^2} and the
    kernels, evaluated at the radial nodes only.  R follows from a stated
    tail bound (_radius); on [0, R] the rule resolves the branch point of E
    at |k| = i m at any mass.  Only the radial rule is refined: it runs at
    k * max(gh_nodes, D) nodes for k = 1, 2, with D = sum n + sum nhat the
    pair's degree, since a pair of high degree needs about as many radial
    nodes as its degree.  The refinement gate (quadrature.refined) is tol
    on the largest entry defect.  A pair odd in two axes gives exact zeros.

    The cost grows like D^3 times the order (about D^2/16 directions, D
    radial nodes, a basis recurrence to the order at each point): at the
    default config, with one BLAS thread on a shared 2-core Xeon VM,
    (60,60,60)^2 takes 2.2-2.4 s, (100,100,100)^2 18.6 s,
    (300,200,0)/(100,0,0) 18.1 s and (1000,0,0)/(0,0,0) 2.1 s (one
    azimuth).  A pair whose stated work exceeds _WORK_MAX = 4e9, as
    (150,150,150)^2 does, raises OrderTooLargeError before any rule runs.
    """
    n = index3(n)
    nhat = index3(nhat)
    if not (m > 0 and math.isfinite(float(m) * float(m))):
        raise DomainError(f"mass must be positive with a finite square, got {m}")
    m = float(m)
    if not math.isfinite(dt):
        raise DomainError(f"time separation must be finite, got {dt}")
    n_nodes = max(cfg.gh_nodes, sum(n) + sum(nhat))
    _check_work(n, nhat, n_nodes)
    value, _ = refined(lambda k: _s_plus_eval(n, nhat, dt, m, k * n_nodes), cfg, cfg.tol,
                       "fermionic Green's function at n={}, nhat={}", n, nhat)
    return value
