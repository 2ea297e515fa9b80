"""Gamma matrices, plane-wave bispinors, spin sums, and the on-shell
fermionic Green's-function integral.

Metric convention diag(1,1,1,-1) with an anti-Hermitian time matrix.  The
adjoint is s~ = i s^dagger gamma4, and spinors are mass-normalized so that
u~u = +1 and v~v = -1 per spin at every momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import (
    QuadratureConfig,
    contract_even,
    gauss_hermite,
    index3,
    refined,
    triple_rank,
    triple_sums,
    weighted_phi_table,
)

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

    @property
    def spatial(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.matrices[:3]

    @property
    def time(self) -> np.ndarray:
        return self.matrices[3]


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


def _s_plus_eval(
    n: tuple[int, int, int],
    nhat: tuple[int, int, int],
    dt: float,
    m: float,
    n_nodes: int,
) -> np.ndarray:
    x, _ = gauss_hermite(n_nodes)
    table = weighted_phi_table(max(max(n), max(nhat)), n_nodes)
    p1, p2, p3 = (table[n[a]] * table[nhat[a]] for a in range(3))
    sums = triple_sums(n_nodes)
    e = osc = sums[:0]

    def kernel(h: int, over_2e: bool) -> np.ndarray:
        # E, e^{-iE dt} and both kernels are even in every axis and symmetric
        # under any permutation of the axes, so they are evaluated once per
        # sorted triple of half-grid nodes and gathered into the (h, h, h)
        # cube that contract_even asks for.  Rank order puts the triples
        # with hi < h first, so the second call's cube, which is no larger,
        # reads a prefix of the first call's values.
        nonlocal e, osc
        t = h * (h + 1) * (h + 2) // 6
        if e.size < t:
            e = np.sqrt(sums[:t] + m * m)
            osc = np.exp((-_I * dt) * e)
        return (osc[:t] / (2.0 * e[:t]) if over_2e else osc[:t])[triple_rank(h)]

    i_m, i_1, i_2, i_3 = contract_even(
        np.stack([p1, x * p1, p1, p1]),
        np.stack([p2, p2, x * p2, p2]),
        np.stack([p3, p3, p3, x * p3]),
        lambda h: kernel(h, True),
    )
    i_e = 0.5 * contract_even(p1, p2, p3, lambda h: kernel(h, False))[0]
    g1, g2, g3, g4 = _gamma_matrices()
    phase = _I ** ((sum(n) - sum(nhat)) % 4)
    scale = phase * math.pi ** -1.5
    core = _I * (g1 * i_1 + g2 * i_2 + g3 * i_3) - _I * g4 * i_e - m * i_m * np.eye(4)
    return _I * scale * core


def s_plus_green(
    n: tuple[int, int, int],
    nhat: tuple[int, int, int],
    dt: float,
    m: float,
    cfg: QuadratureConfig,
) -> np.ndarray:
    """On-shell fermionic Green's function sample between two grid indices.

    Evaluates i * integral of [(i gamma.p - i gamma4 E - m)/2E] times the
    basis-pair product times e^{-iE dt} over momentum, by tensor
    Gauss-Hermite quadrature with the Gaussian weight taken from the basis
    functions.  The oscillatory time factor is smooth and stays inside.
    The refinement gate (quadrature.refined) is tol on the largest entry
    defect.
    """
    n = index3(n)
    nhat = index3(nhat)
    if not (m > 0 and math.isfinite(m * m)):
        raise DomainError(f"mass must be positive with a finite square, got {m}")
    if not math.isfinite(dt):
        raise DomainError(f"time separation must be finite, got {dt}")
    value, _ = refined(lambda k: _s_plus_eval(n, nhat, dt, m, k * cfg.gh_nodes), cfg, cfg.tol,
                       "fermionic Green's function at n={}, nhat={}", n, nhat)
    return value
