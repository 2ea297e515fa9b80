"""Quadrature rules, cached basis tables, and the one 3D contraction kernel.

All rules are cached by node count and returned as read-only arrays: the
first-touch cost of large allocations on this class of host is significant,
so every integral in the package contracts against these shared tables
instead of rebuilding them.  Every 3D Gauss-Hermite sum in the package
(Green's function, exchange element, fermion propagator) has a kernel that
is even in each axis and goes through contract_even, which works on the
x >= 0 half of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_hermite, roots_legendre

from .hermite import phi_row


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts and tolerances shared by every integral evaluation.

    refine=True evaluates each quadrature at the configured node count and
    at double that count; the difference is reported as the error estimate.
    With refine=False no estimate exists and NaN is reported instead.
    """

    gh_nodes: int = 64
    radial_nodes: int = 400
    tol: float = 1e-8
    refine: bool = True

    def __post_init__(self) -> None:
        if self.gh_nodes < 8:
            raise ValueError(f"gh_nodes must be >= 8, got {self.gh_nodes}")
        if self.radial_nodes < 8:
            raise ValueError(f"radial_nodes must be >= 8, got {self.radial_nodes}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


def _freeze(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def gauss_hermite(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral e^{-x^2} f(x) dx over the real line."""
    x, w = roots_hermite(n_nodes)
    return _freeze(x, w)


@lru_cache(maxsize=None)
def gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral f(y) dy over [-1, 1]."""
    y, w = roots_legendre(n_nodes)
    return _freeze(y, w)


def _christoffel_weights(x: np.ndarray, diag: np.ndarray, off: np.ndarray, mass: float) -> np.ndarray:
    """Gauss weights w_i = mass / sum_k p_k(x_i)^2 from the Jacobi matrix.

    p_k are the orthonormal polynomials of the unit-mass measure, run by the
    three-term recurrence b_{k+1} p_{k+1} = (x - a_k) p_k - b_k p_{k-1}.
    Every term of the sum is positive, so it is known to relative accuracy
    wherever the recurrence is.  Far nodes drive p_k past the double range;
    whenever a value exceeds 2^256 the recurrence state of that node is
    divided by an exact power of two, kept as an exponent, and applied to
    the weight only at the end, where it underflows gracefully.
    """
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    total = np.ones_like(x)
    shift = np.zeros(x.shape, dtype=int)
    b_prev = 0.0
    for a, b in zip(diag, off):
        prev, cur = cur, ((x - a) * cur - b_prev * prev) / b
        b_prev = b
        total += cur * cur
        if np.max(np.abs(cur)) > 2.0 ** 256:
            e = np.where(np.abs(cur) > 1.0, np.frexp(cur)[1], 0)
            prev = np.ldexp(prev, -e)
            cur = np.ldexp(cur, -e)
            total = np.ldexp(total, -2 * e)
            shift += e
    return np.ldexp(mass / total, -2 * shift)


@lru_cache(maxsize=None)
def gauss_laguerre_half(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss-Laguerre rule for integral sqrt(x) e^{-x} f(x) dx on [0, inf).

    The nodes are the eigenvalues of the Jacobi matrix (Golub-Welsch).  The
    library routine for this rule overflows internally and returns NaN nodes
    already at a few hundred points, which is inside this package's default
    radial resolution.  The weights come from the Christoffel function at
    each node (_christoffel_weights), not from squared eigenvector
    components: those carry only absolute precision, about 1e-34 of noise
    at the far nodes of a 400-node rule, whose true weights are many orders
    of magnitude smaller.  Each weight is accurate to a few parts in 1e12
    relative wherever the true weight is a normal double; a weight below
    that range comes back as a subnormal or as exactly 0, never as noise.
    """
    alpha = 0.5
    k = np.arange(n_nodes, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    x = eigh_tridiagonal(diag, off, eigvals_only=True)
    w = _christoffel_weights(x, diag, off, math.gamma(alpha + 1.0))
    return _freeze(x, w)


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


def contract_even(a: np.ndarray, b: np.ndarray, c: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Mode-product contraction sum_ijk a_i b_j c_k K_ijk for each row of a,
    b and c (one vector, or a stack of them), over a mirror-symmetric grid.

    K must be even in each axis; ``kernel`` holds it on the half grid only,
    as the (H, H, H) tensor over the nodes x >= 0, H = ceil(n/2).  The
    vectors are folded (fold_even), contracted on the first axis by one
    matrix product and on the other two by one einsum.
    """
    fa, fb, fc = (fold_even(np.atleast_2d(v)) for v in (a, b, c))
    rows, h = fa.shape[0], kernel.shape[0]
    t = fa @ kernel.reshape(h, h * h)
    return np.einsum("bjk,bj,bk->b", t.reshape(rows, h, h), fb, fc)


@lru_cache(maxsize=None)
def weighted_phi_table(n_max: int, n_nodes: int) -> np.ndarray:
    """Table B[n, i] = phi_n(x_i) sqrt(w_i) on the Gauss-Hermite grid.

    Row dot products give basis overlaps: sum_i B[n,i] B[m,i] is the
    orthonormality integral, exact for n + m < 2 n_nodes.  Entries stay
    O(1) for any order because the Gaussian halves live in the weights.
    """
    x, w = gauss_hermite(n_nodes)
    table = phi_row(n_max, x) * np.sqrt(w)
    table.setflags(write=False)
    return table
