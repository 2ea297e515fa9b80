"""The exchange element on a 3D Gauss-Hermite grid, with a quadratic pole
model at the origin: the route the library took before the element became
a sum over the proper-time lattice, kept here as an independent reference.

green_contract sums factorized integrands against 1/(k.k + mu^2) on the
n_nodes-point grid in each axis.  It writes the kernel as the proper-time
lattice of greens.pt_lattice (_proper_time_rule), folds the rows onto the
x >= 0 half grid, and adds back the closed-form defect of a quadratic pole
model (_ball_defects).  grid_element feeds it the profiles of the two
fermion lines on that grid.  Nothing here is shared with the element's
Chebyshev tables or barycentric map; its error shrinks with the node count
(about 1e-6 relative at 128 nodes, n_max = 64 and mu = 1).
"""

import math
from functools import lru_cache

import numpy as np

from hermgrid.greens import _axis_entries, pt_lattice
from hermgrid.hermite import phi_row
from hermgrid.quadrature import gauss_hermite, weighted_phi_table

_SQRT_PI = math.sqrt(math.pi)


def fold_even(v: np.ndarray) -> np.ndarray:
    """Fold vectors on a mirror-symmetric grid onto its x >= 0 half.

    Entry k of the result is v at the k-th nonnegative node plus v at its
    mirror node; the centre node of an odd-sized grid is counted once.  Sums
    of v against any kernel that is even in x are then sums over the half
    grid.  Gauss-Hermite nodes and weights are symmetric to the last bit, so
    the fold of an odd vector is exactly zero.
    """
    n = v.shape[-1]
    h = n // 2
    out = np.array(v[..., h:])
    out[..., n - 2 * h:] += v[..., h - 1::-1]
    return out


# one table per mass and node count, at most 0.5 MB each (512 nodes)
@lru_cache(maxsize=32)
def _proper_time_rule(mu: float, n_nodes: int) -> np.ndarray:
    """The lattice (pt_lattice) of the grid's y = x_i^2 + x_j^2 + x_k^2 +
    mu^2 as one read-only table: rows E[i, m] = e^{-t_m x_i^2} on the x >= 0
    half of the n_nodes-point grid, then the weights."""
    x, _ = gauss_hermite(n_nodes)
    half = x[n_nodes // 2:]
    t, w = pt_lattice(mu, 3.0 * float(half[0]) ** 2 + mu * mu, 3.0 * float(x[-1]) ** 2 + mu * mu)
    table = np.vstack([np.exp(-np.outer(half ** 2, t)), w])
    table.setflags(write=False)
    return table


def _separable_sum(a, b, c, mu: float, n_nodes: int) -> np.ndarray:
    """sum_ijk a_i b_j c_k K_ijk, K_ijk = 1/(x_i^2 + x_j^2 + x_k^2 + mu^2), on
    the n_nodes-point grid for each row of a, b and c (a stack of one row
    broadcasts).  With K_ijk ~ sum_m w_m E_im E_jm E_km (_proper_time_rule),
    the rows are folded onto the x >= 0 half grid (fold_even; an odd vector
    folds to exact zeros) and sum_m w_m (aE)_m (bE)_m (cE)_m is formed.
    Each such kernel value is within 4 ulps of K_ijk, and the sum within
    (4 + 3H + M) ulps of sum_ijk |a_i b_j c_k| K_ijk, H = ceil(n_nodes/2)
    and M the rule's terms.  A NaN or inf entry makes its row's value
    non-finite."""
    rule = _proper_time_rule(mu, n_nodes)
    rows = [np.atleast_2d(v) for v in (a, b, c)]
    p = fold_even(np.concatenate(rows)) @ rule[:-1]
    ra, rb = len(rows[0]), len(rows[1])
    return (p[:ra] * p[ra:ra + rb] * p[ra + rb:]) @ rule[-1]


def _ball_exact(mu: float) -> tuple[float, float]:
    """b0 and b2, the integrals over R^3 of e^{-k.k}/(k.k+mu^2) and of
    k_1^2 e^{-k.k}/(k.k+mu^2): b0 = pi^{3/2} g_0 and b2 = pi^{3/2}
    (g_0 - sqrt(2) g_1) / 2 from the axis table."""
    g0, g1 = _axis_entries(mu, 2)[:2]
    return math.pi ** 1.5 * g0, math.pi ** 1.5 * (g0 - math.sqrt(2.0) * g1) / 2.0


@lru_cache(maxsize=64)
def _ball_defects(mu: float, n_nodes: int) -> tuple[float, float]:
    """Exact-minus-quadrature of the constant and per-axis quadratic pole
    models through the kernel (_separable_sum)."""
    x, w = gauss_hermite(n_nodes)
    b0q, b2q = _separable_sum(np.stack([w, x * x * w]), w, w, mu, n_nodes)
    b0, b2 = _ball_exact(mu)
    return b0 - float(b0q), b2 - float(b2q)


def green_contract(a, b, c, c0, c2, mu: float, n_nodes: int) -> np.ndarray:
    """pi^{-3/2} integral d^3k a(k_1) b(k_2) c(k_3) e^{-k.k} / (k.k + mu^2)
    for factorized integrands, one value per row of a, b and c, which hold
    each axis factor at the nodes with the weights applied.  c0 and c2 are
    the value and the summed per-axis half-second-derivatives at the origin
    of the polynomial product a b c: the quadratic pole model whose
    quadrature defect (_ball_defects) is added back in closed form."""
    acc = _separable_sum(a, b, c, mu, n_nodes)
    d0, d2 = _ball_defects(mu, n_nodes)
    return (acc + (np.asarray(c0) * d0 + np.asarray(c2) * d2)) * math.pi ** -1.5


@lru_cache(maxsize=64)
def origin_rows(n_max: int) -> np.ndarray:
    """Columns phi_n(0), phi_n'(0) = sqrt(2n) phi_{n-1}(0) and
    phi_n''(0) = -2n phi_n(0) for n <= n_max: the Taylor data of the pole
    models.  Cached read-only per order."""
    z0 = phi_row(n_max, np.zeros(1))[:, 0]
    narr = np.arange(n_max + 1)
    z1 = np.zeros(n_max + 1)
    z1[1:] = np.sqrt(2.0 * narr[1:]) * z0[:-1]
    out = np.stack([z0, z1, -2.0 * narr * z0], axis=1)
    out.setflags(write=False)
    return out


def grid_profiles(momenta, n_max: int, n_nodes: int):
    """Weighted node profiles q (axis, truncation, node) and pole-model data
    c0, c2 (per truncation) at cutoff n_max and with its top shell dropped;
    momenta holds p1, p2, p1', p2'.  Per axis the profile product is
    L_even R_even + L_odd R_odd (scattering._profiles), here at the grid's
    nodes with the weights, and its Taylor data at the origin."""
    p = np.array(momenta).reshape(2, 6)
    vals = phi_row(n_max, p.ravel())
    coef = vals[:, :6] * vals[:, 6:] * (np.exp(-0.5 * (p[0] * p[0] + p[1] * p[1])) / _SQRT_PI)
    order = np.arange(n_max + 1)
    signed = np.where(order // 2 % 2, -coef.T, coef.T)
    parity = np.stack([order % 2 == 0, order % 2 == 1])
    mask = np.stack([parity, parity & (order < n_max)])
    # batch (truncation, parity, line, axis) of coefficient rows
    batch = (mask[:, :, None, :] * signed[None, None, :, :]).reshape(24, n_max + 1)
    prof = (batch @ weighted_phi_table(n_max, n_nodes)).reshape(2, 2, 2, 3, n_nodes)
    q = prof[:, 0, 0] * prof[:, 0, 1] + prof[:, 1, 0] * prof[:, 1, 1]
    orig = (batch @ origin_rows(n_max)).reshape(2, 2, 2, 3, 3)
    l0, l2, r0, r2 = orig[:, 0, 0, :, 0], orig[:, 0, 0, :, 2], orig[:, 0, 1, :, 0], orig[:, 0, 1, :, 2]
    l1, r1 = orig[:, 1, 0, :, 1], orig[:, 1, 1, :, 1]
    g0 = l0 * r0
    g2 = 0.5 * (l2 * r0 + 2.0 * l1 * r1 + l0 * r2)
    c0 = g0[:, 0] * g0[:, 1] * g0[:, 2]
    c2 = g2[:, 0] * g0[:, 1] * g0[:, 2] + g0[:, 0] * g2[:, 1] * g0[:, 2] + g0[:, 0] * g0[:, 1] * g2[:, 2]
    return q.transpose(1, 0, 2), c0, c2


def grid_element(kin, n_max: int, n_nodes: int) -> tuple[float, float]:
    """The reduced element and its truncation shift on the n_nodes grid."""
    q, c0, c2 = grid_profiles(kin.p1 + kin.p2 + kin.p1_out + kin.p2_out, n_max, n_nodes)
    full, dropped = green_contract(q[0], q[1], q[2], c0, c2, kin.mu, n_nodes)
    return kin.prefactor * float(full), kin.prefactor * abs(float(full - dropped))
