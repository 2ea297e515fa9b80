"""Quadrature rules, the proper-time lattice, cached tables, one refinement gate.

All rules are cached by node count and returned as read-only arrays: the
first-touch cost of large allocations on this class of host is significant,
so every integral in the package contracts against these shared tables
instead of rebuilding them.  Every rule is built in numpy, the Gauss-Hermite
and Gauss-Legendre rules from a start polished on the three-term recurrence.
The proper-time lattice is built once per mass and each sum reads its tail
(pt_tail), so its cut rule is written here alone.
A route whose rule is exact evaluates it once and states a rounding bound;
s_plus_green, whose rule is not, passes the one refinement gate, refined,
which always evaluates both node levels.  Each route works its node counts
out from its input; QuadratureConfig holds the tolerance alone.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .closed import QuadratureConfig  # re-exported: every route's tolerance
from .errors import NonconvergenceError, OrderTooLargeError, whole
from .hermite import phi_at, phi_row

# Step h of the trapezoid rule in log proper time (pt_lattice), whose error
# in 1/y is at most 2 |Gamma(1 - 2 pi i / h)| = 3.5e-17 relative for every
# y > 0; PT_ERROR adds what its cut drops (2^-60 + e^-40).
_PT_STEP = 0.24
PT_ERROR = 4.1e-17

# Most nodes of a Gauss-Hermite rule: at 729, x reaches 37.65, where e^{-x^2/2} is subnormal
GH_RULE_MAX = 728
# Largest degree D = sum n + sum nhat of a proper-time sum: n_a + nhat_a <= 1454 on each axis
PT_DEGREE_MAX = 3 * (2 * GH_RULE_MAX - 2)


def index3(n) -> tuple[int, int, int]:
    """A grid index triple as three nonnegative ints; ValueError otherwise.
    A tuple of three plain nonnegative ints is returned as it is, after one
    test of its types and one of its sign (an | of ints is negative exactly
    when one of them is); every other input takes the checks by whole."""
    if type(n) is tuple and len(n) == 3:
        a, b, c = n
        if type(a) is type(b) is type(c) is int and a | b | c >= 0:
            return n
    t = tuple(n)
    if len(t) != 3:
        raise ValueError(f"grid index needs three components, got {n!r}")
    a, b, c = t
    what = "a grid index component"
    return whole(a, what), whole(b, what), whole(c, what)


def refined(evaluate, gate: float, where: str, *where_args):
    """The one refinement gate of every quadrature value: (value, err_estimate).

    evaluate(k) integrates at k times the route's node counts and returns
    a number or an array.  The value at k = 2 is returned with the defect
    max |value(2) - value(1)| (plain |.| for a number) as its err_estimate,
    and a defect above gate raises NonconvergenceError.  The comparison is
    written so that a NaN defect raises too.  The fermion projector passes
    tol as the gate, the checks' tensor Green's values 100*tol.  The message
    names the value by where.format(*where_args), built only on failure.
    """
    coarse = evaluate(1)
    fine = evaluate(2)
    err = abs(fine - coarse)
    if isinstance(err, np.ndarray):
        err = float(err.max())
    if not err <= gate:
        raise NonconvergenceError(
            f"{where.format(*where_args)}: refinement defect {err:.3e} exceeds the gate {gate:.3e}"
        )
    return fine, err


def pt_first(y_max: float) -> int:
    """The first m of pt_lattice's nodes t_m = e^{m h} cut at y_max."""
    return math.floor((-60.0 * math.log(2.0) - math.log(y_max)) / _PT_STEP)


def pt_lattice(mu: float, y_min: float, y_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Proper times t_m = e^{m h} and weights h t_m e^{-t_m mu^2} of the
    trapezoid rule for 1/y = integral e^{v - y e^v} dv, y = k.k + mu^2, cut
    to v in [ln(2^-60/y_max), ln(40/y_min)], y_min held at >= 2^-1000.
    Node m is the same float whatever the cut, so a lattice cut at a
    smaller y_max is the tail of this one from pt_first(y_max) on."""
    y_min = max(y_min, 2.0 ** -1000)
    hi = math.ceil((math.log(40.0) - math.log(y_min)) / _PT_STEP)
    t = np.exp(_PT_STEP * np.arange(pt_first(y_max), hi + 1))
    return t, _PT_STEP * t * np.exp(-t * (mu * mu))


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only in place (for arrays that caches hand out)."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


# 3 doubles a term, 190 to 286 terms for mu in [1e-3, 1e3] and at most 3,117
# (mu below 2^-500): 75 kB.  A mass serves a run of sums before the next.
@lru_cache(maxsize=8)
def _pt_mass(mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, float]:
    """pt_tail's whole lattice at mu, read-only, its first node's m, and
    -ln y_min of every cut, y_min = mu^2 held at >= 2^-1000."""
    y_max = mu * mu + 2.0 * PT_DEGREE_MAX + 16.0
    t, w = pt_lattice(mu, mu * mu, y_max)
    s = 1.0 / (1.0 + t)
    return (*read_only(w, s, t * s), pt_first(y_max), -math.log(max(mu * mu, 2.0 ** -1000)))


def pt_weights(mu: float, degree: int) -> tuple[np.ndarray, float]:
    """The weights w_m and the span L of pt_tail(mu, degree), without its
    s and tau views: all a Green's value's sum reads."""
    w, _, _, first, low_log = _pt_mass(mu)
    y_max = mu * mu + 2.0 * degree + 16.0
    return w[pt_first(y_max) - first:], max(low_log, math.log(y_max))


def pt_tail(mu: float, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Read-only views w_m, s_m = 1/(1 + t_m), tau_m = t_m s_m of pt_lattice
    for y in [mu^2, mu^2 + 2 degree + 16], degree <= PT_DEGREE_MAX: the tail
    of one cached lattice per mass, cut for PT_DEGREE_MAX; and the span
    L = max |ln y| of that cut, y held at >= 2^-1000."""
    w, big_log = pt_weights(mu, degree)
    _, s, tau, _, _ = _pt_mass(mu)
    return w, s[-w.size:], tau[-w.size:], big_log


def _mirrored(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """The read-only rule mirrored from its half x >= 0 (an odd rule's 0 first)."""
    lower = slice(1 if x[0] == 0.0 else 0, None)
    return read_only(np.concatenate([-x[lower][::-1], x]), np.concatenate([w[lower][::-1], w]))


@lru_cache(maxsize=None)
def hermite_half(n_nodes: int) -> tuple[np.ndarray, ...]:
    """Nodes x >= 0 of the n_nodes-point Gauss-Hermite rule (an odd rule's
    0 first), scaled weights W = 1 / sum_{k<n} psi_k(x)^2 (psi_k = phi_k
    e^{-x^2/2}) folded for even integrands (2W off the origin), and weights
    w = sqrt(pi) e^{-x^2} W; OrderTooLargeError past GH_RULE_MAX nodes.  No
    W underflows where w does (two of 401 do).  x^2 start as Gauss-Laguerre
    nodes of alpha = -1/2 or 1/2 (even or odd n) from the half-size Jacobi
    matrix, and take one Newton step, phi_n' = sqrt(2n) phi_{n-1}.  The
    Christoffel sum, as n psi_{n-1}^2 - sqrt(n(n-1)) psi_{n-2} psi_n, is
    stationary at a node, so it is taken at the start in the same pass; w,
    which moves by -2x per unit of node shift, takes the step's first-order
    factor.  Against
    40-digit rules the nodes are within 2 ulps at the tested counts, the
    smallest positive one, where the recurrence rounds most against it, up
    to 10 (548 nodes); normal weights within 4e-14 relative at 1 to 728
    nodes (3.3e-15 at the median node).
    """
    if n_nodes > GH_RULE_MAX:
        raise OrderTooLargeError(f"{n_nodes} Gauss-Hermite nodes, at most {GH_RULE_MAX}")
    half, odd = divmod(n_nodes, 2)
    k = np.arange(half, dtype=float)
    jacobi = np.diag(2.0 * k + odd + 0.5) + np.diag(np.sqrt(k[1:] * (k[1:] + odd - 0.5)), -1)
    x = np.sqrt(np.concatenate([np.zeros(odd), np.linalg.eigvalsh(jacobi)]))
    seed = np.exp(-0.5 * x * x)
    psi = phi_at(range(max(n_nodes - 2, 0), n_nodes + 1), x, seed)
    below, mid, top = psi.get(n_nodes - 2, 0.0), psi[n_nodes - 1], psi[n_nodes]
    total = n_nodes * mid * mid - math.sqrt(n_nodes * (n_nodes - 1.0)) * below * top
    step = -top / (math.sqrt(2.0 * n_nodes) * mid)
    w = math.sqrt(math.pi) * seed * seed * (1.0 - 2.0 * x * step) / total
    x = x + step
    return read_only(x, np.where(x > 0.0, 2.0, 1.0) / total, w)


@lru_cache(maxsize=None)
def gauss_hermite(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral e^{-x^2} f(x) dx over the real line:
    hermite_half mirrored (symmetric to the last bit, an odd rule's centre 0)."""
    x, _, w = hermite_half(n_nodes)
    return _mirrored(x, w)


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence
    (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}, rounded in that order, in
    place through three rotating buffers."""
    prev, cur, nxt, tmp = np.ones_like(x), x.copy(), np.empty_like(x), np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, 2 * k + 1, out=nxt)
        nxt *= cur
        np.multiply(prev, k, out=tmp)
        nxt -= tmp
        nxt /= k + 1
        prev, cur, nxt = cur, nxt, prev
    return cur, prev


# Bounded: s_plus_green asks for a rule per radial node count of a high degree.
@lru_cache(maxsize=128)
def gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral f(y) dy over [-1, 1].

    Tricomi's nodes (1 - (n-1)/(8n^3) - (39 - 28/sin^2 t)/(384 n^4)) cos t,
    t = pi (4k - 1)/(4n + 2), polished on the nonnegative half and mirrored
    (symmetric to the last bit; an odd rule keeps its node at exactly 0).
    Each pass of the recurrence gives the Halley step s = d / (1 + d (x +
    n(n+1) d/2) / ((1-x)(1+x))) from the Newton step d.  The pass whose
    n s is below 2^-27 sqrt((1-x)(1+x)) (the second from n = 4 on) takes
    the last step and gives the weights 2 / ((1-x)(1+x) P_n'^2), with
    (1-x)(1+x) P_n' = n (P_{n-1} - x P_n), times the step's first-order
    factor 1 - 2x s / ((1-x)(1+x)).  Against 40-digit rules the nodes are
    within 2 ulps at the tested counts, the smallest positive one, where
    the recurrence rounds most against it, up to 6.5 (458 nodes); weights
    within 2.5e-15 relative at the median node, at the ends 4.8e-14 (128
    nodes) and 5.4e-13 (512).
    """
    k = np.arange((n_nodes + 1) // 2, 0, -1)
    t = math.pi * (4 * k - 1) / (4 * n_nodes + 2)
    x = (1.0 - (n_nodes - 1) / (8.0 * n_nodes ** 3)
         - (39.0 - 28.0 / np.sin(t) ** 2) / (384.0 * n_nodes ** 4)) * np.cos(t)
    x[:n_nodes % 2] = 0.0  # an odd rule's centre node
    while True:
        p, q = _legendre_pair(n_nodes, x)
        slope, gap = n_nodes * (q - x * p), (1.0 - x) * (1.0 + x)
        d = -p * gap / slope
        step = d / (1.0 + d * (x + 0.5 * n_nodes * (n_nodes + 1) * d) / gap)
        if np.all((n_nodes * step) ** 2 <= 2.0 ** -54 * gap):
            break
        x = x + step
    w = (2.0 * gap - 4.0 * x * step) / slope ** 2
    return _mirrored(x + step, w)


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

    The nodes are the eigenvalues of the Jacobi matrix (Golub-Welsch), from
    numpy.linalg.eigvalsh of the dense matrix, the one hermite_half takes for
    an odd rule.  The weights come from the Christoffel function at each node
    (_christoffel_weights), not from squared eigenvector components: those
    carry only absolute precision, about 1e-34 of noise at the far nodes of
    a 400-node rule, whose true weights are many orders of magnitude
    smaller.  Each weight is accurate to a few parts in 1e12 relative
    wherever the true weight is a normal double; a weight below that range
    comes back as a subnormal or as exactly 0, never as noise.
    """
    alpha = 0.5
    k = np.arange(n_nodes, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    w = _christoffel_weights(x, diag, off, math.gamma(alpha + 1.0))
    return read_only(x, w)


# 16 tables: a 200th order at 512 nodes takes 0.8 MB, the checks' order 40
# at 200 nodes 66 kB
@lru_cache(maxsize=16)
def weighted_phi_table(n_max: int, n_nodes: int) -> np.ndarray:
    """Table B[n, i] = phi_n(x_i) sqrt(w_i) on the Gauss-Hermite grid, cached
    read-only per order and node count.

    Row dot products give basis overlaps: sum_i B[n,i] B[m,i] is the
    orthonormality integral, exact for n + m < 2 n_nodes.  Entries stay
    O(1) for any order because the Gaussian halves live in the weights.
    """
    x, w = gauss_hermite(n_nodes)
    table = phi_row(n_max, x)
    table *= np.sqrt(w)
    table.setflags(write=False)
    return table
