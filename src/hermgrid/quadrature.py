"""Quadrature rules, cached basis tables, and the one 3D contraction kernel.

All rules are cached by node count and returned as read-only arrays: the
first-touch cost of large allocations on this class of host is significant,
so every integral in the package contracts against these shared tables
instead of rebuilding them.  Every 3D Gauss-Hermite sum in the package
(Green's function, exchange element, fermion propagator) has a kernel that
is even in each axis and goes through contract_even, which works on the
x >= 0 half of the grid.  The folded basis vectors decay like Gaussians past
their turning points, so contract_even screens them first: it keeps the
leading h half-grid nodes that hold all but 2^-64 of each vector's absolute
sum, asks its caller for the kernel on that (h, h, h) cube only, and sums
there, with a rigorous bound on what it dropped (see contract_even).  A
kernel of x_i^2 + x_j^2 + x_k^2 alone needs one value per sorted index
triple; triple_sums and triple_rank hold that list and its map back to the
half-grid tensor.  Every quadrature value in the package passes the one
refinement gate, refined.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, wraps
from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_hermite, roots_legendre

from .errors import NonconvergenceError
from .hermite import phi_row

# The fine refinement level runs at twice gh_nodes, and the tensor routes
# build kernels on half-grid cubes of up to (gh_nodes)^3 nodes there.  The
# screen in contract_even usually keeps a much smaller cube, but vectors
# that reach the last node keep all of it: s_plus_green then holds an intp
# rank map and two complex kernels of that shape, about 0.7 GB at 256
# nodes.  Larger counts would exhaust the memory of a typical host.
GH_NODES_MAX = 256


@dataclass(frozen=True)
class QuadratureConfig:
    """Node count and tolerances shared by every quadrature evaluation.

    refine=True evaluates each quadrature at gh_nodes Gauss-Hermite nodes
    per axis and at double that count; the difference is reported as the
    error estimate and tested against a gate (see refined).  With
    refine=False no estimate exists and NaN is reported instead.  The
    closed forms, the axis values among them, read none of these fields.
    """

    gh_nodes: int = 64
    tol: float = 1e-8
    refine: bool = True

    def __post_init__(self) -> None:
        if self.gh_nodes < 8:
            raise ValueError(f"gh_nodes must be >= 8, got {self.gh_nodes}")
        if self.gh_nodes > GH_NODES_MAX:
            raise ValueError(f"gh_nodes must be <= {GH_NODES_MAX}, got {self.gh_nodes}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


def index3(n) -> tuple[int, int, int]:
    """A grid index triple as three nonnegative ints; ValueError otherwise."""
    t = tuple(n)
    if len(t) != 3:
        raise ValueError(f"grid index needs three components, got {n!r}")
    out = []
    for v in t:
        iv = int(v)
        if iv != v or iv < 0:
            raise ValueError(f"grid index components must be nonnegative integers, got {n!r}")
        out.append(iv)
    return tuple(out)


def refined(evaluate, cfg: QuadratureConfig, gate: float, where: str, *where_args):
    """The one refinement gate of every quadrature value: (value, err_estimate).

    evaluate(k) integrates at k times the configured node counts and returns
    a number or an array.  With refinement off, (evaluate(1), NaN) is
    returned.  Otherwise the value at k = 2 is returned with the defect
    max |value(2) - value(1)| (plain |.| for a number) as its err_estimate,
    and a defect above gate raises NonconvergenceError.  The comparison is
    written so that a NaN defect raises too.  Green's values pass 100*tol as
    the gate, the fermion projector tol.  The message names the value by
    where.format(*where_args), built only on failure.
    """
    coarse = evaluate(1)
    if not cfg.refine:
        return coarse, math.nan
    fine = evaluate(2)
    err = abs(fine - coarse)
    if isinstance(err, np.ndarray):
        err = float(err.max())
    if not err <= gate:
        raise NonconvergenceError(
            f"{where.format(*where_args)}: refinement defect {err:.3e} exceeds the gate {gate:.3e}"
        )
    return fine, err


def sized_cache(budget: int):
    """Memoize a function of hashable arguments that returns a read-only
    array, least recently used first out, holding at most budget array
    entries in all (the newest array is always kept).  Like functools'
    lru_cache, the wrapper has cache_clear() and cache_info().currsize."""
    def wrap(fn):
        held: OrderedDict = OrderedDict()

        def entries() -> int:
            return sum(v.size for v in held.values())

        @wraps(fn)
        def cached(*args):
            if args in held:
                held.move_to_end(args)
            else:
                held[args] = fn(*args)
                while len(held) > 1 and entries() > budget:
                    held.popitem(last=False)
            return held[args]

        cached.cache_clear = held.clear
        cached.cache_info = lambda: SimpleNamespace(currsize=len(held), entries=entries())
        return cached
    return wrap


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


# No route of the package uses the half-Laguerre rule and its weights since
# the axis values it integrated became closed forms.  The benchmark
# (perfbench) still builds the rule in its set-up and is its only caller,
# so the rule goes with the next change to the benchmark.

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
    already at a few hundred points.  The weights come from the Christoffel
    function at each node (_christoffel_weights), not from squared eigenvector
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


# A kernel f(x_i^2 + x_j^2 + x_k^2) on the half grid is symmetric in
# (i, j, k), so it takes one value per sorted triple lo <= mid <= hi:
# H(H+1)(H+2)/6 of them instead of H^3.  The triple of rank
# C(hi+2, 3) + C(mid+1, 2) + lo is the rank-th in lexicographic (hi, mid, lo)
# order, so the triples with hi < h lead the list for every h, and a map
# for the leading (h, h, h) cube of a larger grid is the map for h.  The
# screen asks for one map per cube size, so the maps are bounded together
# by the entries of one full map at the largest node count.

@sized_cache(GH_NODES_MAX ** 3)
def triple_rank(h: int) -> np.ndarray:
    """(h, h, h) map from each half-grid index triple to the rank of its
    sorted triple; gathering a per-triple list through it expands the list
    to the tensor that contract_even takes.  The ranks do not depend on the
    grid the cube is cut from."""
    a, b, c = np.ix_(*(np.arange(h, dtype=np.intp),) * 3)
    hi = np.maximum(np.maximum(a, b), c)
    lo = np.minimum(np.minimum(a, b), c)
    mid = a + b + c - hi - lo
    rank = hi * (hi + 1) * (hi + 2) // 6 + mid * (mid + 1) // 2 + lo
    return _freeze(rank)[0]


@lru_cache(maxsize=None)
def triple_sums(n_nodes: int) -> np.ndarray:
    """x_lo^2 + x_mid^2 + x_hi^2 over the half-grid nodes of the n-node
    Gauss-Hermite rule, one entry per sorted triple, in rank order."""
    x, _ = gauss_hermite(n_nodes)
    x2 = x[n_nodes // 2:] ** 2
    a, b, c = np.ix_(*(np.arange(x2.size),) * 3)
    hi, mid, lo = np.nonzero((a >= b) & (b >= c))
    return _freeze((x2[lo] + x2[mid]) + x2[hi])[0]


# Share of a folded vector's absolute sum that the screen may drop.
_SCREEN = 2.0 ** -64


def contract_even(a: np.ndarray, b: np.ndarray, c: np.ndarray, kernel) -> np.ndarray:
    """Mode-product contraction sum_ijk a_i b_j c_k K_ijk for each row of a,
    b and c (one vector, or a stack of them), over a mirror-symmetric grid.

    K must be even in each axis and is given on the half grid only:
    kernel(h) returns it as the (h, h, h) tensor over the first h nodes
    x >= 0, for some h <= H = ceil(n/2).  The vectors are folded (fold_even)
    and then screened.  Each folded row v keeps its entries up to the last
    one with |v_i| > 2^-64 |v|_1 / H, so it drops at most 2^-64 |v|_1; h is
    the largest such count over all rows of a, b and c, rounded up to a
    multiple of 8 and capped at H, so that one cached kernel serves many
    calls and h depends on the vectors alone.  If any row's |v|_1 is not
    finite (a NaN or inf entry, or overflow), no node is dropped, so
    non-finite values show in the result.  The sum over the cube differs
    from the full half-grid sum by at most

        3 * 2^-64 * max|K| * |a|_1 * |b|_1 * |c|_1

    (folded vectors, K over the full half grid), far below the rounding of
    the sum itself.  The cube is contracted on the first axis by one matrix
    product and on the other two by one einsum.
    """
    fa, fb, fc = (fold_even(np.atleast_2d(v)) for v in (a, b, c))
    rows, n = fa.shape
    mag = np.abs(np.concatenate([fa, fb, fc]))
    total = mag.sum(axis=1, keepdims=True)
    h = n
    if np.all(np.isfinite(total)):
        above = np.flatnonzero(np.any(mag > total * (_SCREEN / n), axis=0))
        reach = int(above[-1]) + 1 if above.size else 0
        h = min(n, 8 * max(1, -(-reach // 8)))
    t = fa[:, :h] @ kernel(h).reshape(h, h * h)
    return np.einsum("bjk,bj,bk->b", t.reshape(rows, h, h), fb[:, :h], fc[:, :h])


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
