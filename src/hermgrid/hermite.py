"""Scaled Hermite basis functions and their index-space difference calculus.

The basis function of order n is

    xi_n(k) = i^n e^{-k^2/2} H_n(k) / (pi^{1/4} 2^{n/2} sqrt(n!))

where H_n is the physicists' Hermite polynomial.  Everything in this package
that integrates over momentum expands in this basis, so the evaluation here
must stay accurate for orders in the hundreds.  Factorials and raw H_n values
overflow long before that, which is why all evaluation goes through one
normalized three-term recurrence, run in place by phi_fill on preallocated
rows with its step coefficients read from one cached table (_steps).  The
scalar paths xi and xi_axis run the same steps on floats from that table.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import OrderTooLargeError

_PI_QUARTER = math.pi ** 0.25

# H_30(10) already needs ~1e38-scale intermediates; beyond that raw polynomial
# values are useless in double precision.
_MAX_RAW_ORDER = 30


def hermite_poly(n: int, k: float) -> float:
    """Physicists' Hermite polynomial H_n(k) by the recurrence
    H_{n+1} = 2k H_n - 2n H_{n-1}, seeded with H_0 = 1 and H_1 = 2k.

    Only intended for small orders; use :func:`xi` for anything serious.
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    if n > _MAX_RAW_ORDER:
        raise OrderTooLargeError(
            f"raw Hermite order {n} exceeds the stable limit {_MAX_RAW_ORDER}; "
            "use the normalized basis function instead"
        )
    h_prev, h = 1.0, 2.0 * k
    if n == 0:
        return 1.0
    for j in range(1, n):
        h_prev, h = h, 2.0 * k * h - 2.0 * j * h_prev
    return h


@lru_cache(maxsize=None)
def _step_table(size: int) -> tuple[np.ndarray, tuple[float, ...], tuple[float, ...]]:
    """The step coefficients a_j = sqrt(2/(j+1)) (as an array and as floats)
    and b_j = sqrt(j/(j+1)) for j < size."""
    j = np.arange(size, dtype=float)
    a = np.sqrt(2.0 / (j + 1.0))
    a.setflags(write=False)
    return a, tuple(a.tolist()), tuple(np.sqrt(j / (j + 1.0)).tolist())


def _steps(count: int) -> tuple[np.ndarray, tuple[float, ...], tuple[float, ...]]:
    """_step_table for at least count steps, cached per power of two (from 64)."""
    return _step_table(max(64, 1 << max(count - 1, 0).bit_length()))


def phi_fill(rows, x: np.ndarray, seed=1.0) -> None:
    """Write seed phi_j(x) into rows[j] in place for j < len(rows).

    The one copy of the normalized recurrence
    phi_{j+1} = sqrt(2/(j+1)) x phi_j - sqrt(j/(j+1)) phi_{j-1}, which never
    forms H_n or n! and is overflow-free for all n; a seed that carries the
    Gaussian factor keeps the values of the basis functions in range at any
    x.  rows is either a table of shape (count, *x.shape), x at least 1-D,
    whose rows past the first take a_j x in one pass up front, or a list of
    arrays of x's shape, which may repeat an array three rows on (phi_at
    streams so).  The seed broadcasts to the rows.  Each step rounds as the
    expression above, in the order written, whatever holds the rows.
    """
    count = len(rows)
    a, a_list, b_list = _steps(count)
    mul, sub = np.multiply, np.subtract
    filled = isinstance(rows, np.ndarray)
    if filled:
        mul(a[:count - 1].reshape((-1,) + (1,) * x.ndim), x, rows[1:])
        rows = list(rows)
    rows[0][...] = seed
    tmp = np.empty(x.shape) if count > 2 else None
    for j in range(count - 1):
        nxt = rows[j + 1]
        if not filled:
            mul(x, a_list[j], nxt)
        mul(nxt, rows[j], nxt)
        if j:
            mul(rows[j - 1], b_list[j], tmp)
            sub(nxt, tmp, nxt)


def _scalar_rows(count: int, k: float) -> list[float]:
    """e^{-k^2/2} phi_j(k) / pi^{1/4} for j < count at one float k: the steps
    of phi_fill on floats, from the same coefficient table."""
    _, a, b = _steps(count)
    prev, cur = 0.0, math.exp(-0.5 * k * k) / _PI_QUARTER
    out = [cur]
    for j in range(count - 1):
        prev, cur = cur, a[j] * k * cur - b[j] * prev
        out.append(cur)
    return out


# i^n by n mod 4
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def xi(n: int, k: float) -> complex:
    """Scaled Hermite basis function xi_n(k) = i^n e^{-k^2/2} phi_n(k) / pi^{1/4}.

    The recurrence runs on the real factor e^{-k^2/2} phi_n(k) / pi^{1/4}
    and the i^n phase is applied last, so even orders are real and odd orders
    purely imaginary.
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    return _I_POW[n % 4] * _scalar_rows(n + 1, k)[n]


def xi_axis(n_max: int, k: float) -> np.ndarray:
    """All of xi_0(k) .. xi_{n_max}(k) as one complex vector, by the same
    recurrence as :func:`xi`; used by every mode sum in the package.
    """
    if n_max < 0:
        raise ValueError(f"order must be nonnegative, got {n_max}")
    count = n_max + 1
    vals = np.array(_scalar_rows(count, k))
    return vals * np.array(_I_POW)[np.arange(count) % 4]


def xi_delta_sharp(n: int, k: float) -> complex:
    """-i times the sharp difference applied to the order index of xi.

    Returns -i/sqrt(2) [sqrt(n+1) xi_{n+1}(k) - sqrt(n) xi_{n-1}(k)]; the
    lower term is absent at n = 0.  Equals k xi_n(k): the basis functions are
    eigenfunctions of the sharp difference operator with eigenvalue ik.
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    upper = math.sqrt(n + 1.0) * xi(n + 1, k)
    lower = math.sqrt(float(n)) * xi(n - 1, k) if n > 0 else 0j
    return -1j / math.sqrt(2.0) * (upper - lower)


def phi_row(n_max: int, x: np.ndarray) -> np.ndarray:
    """Real polynomial parts phi_n(x) = H_n(x)/(2^{n/2} sqrt(n!)) for n <= n_max.

    Shape (n_max+1, *x.shape), a scalar x as one point.  xi_n(k) = i^n
    e^{-k^2/2} phi_n(k) / pi^{1/4}, so tables of phi against Gauss-Hermite
    weights carry no exponentials at all.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rows = np.empty((n_max + 1,) + x.shape)
    phi_fill(rows, x)
    return rows


def phi(n: int, x: np.ndarray) -> np.ndarray:
    """phi_n(x) alone: row n of phi_row(n, x), without storing the rows below it."""
    return phi_at((n,), x)[n]


def phi_at(orders, x: np.ndarray, seed=None) -> dict[int, np.ndarray]:
    """phi_n(x) (times seed, if given: e^{-x^2/2} keeps them in range) for
    each n in orders, keyed by n, from one pass of the recurrence that
    keeps only the rows asked for (the same values as the rows of phi_row).
    The other rows stream through three buffers of x's shape, so memory
    stays at the rows kept plus four."""
    want = set(orders)
    if min(want) < 0:
        raise ValueError(f"order must be nonnegative, got {min(want)}")
    x = np.asarray(x, dtype=float)
    spare = [np.empty(x.shape) for _ in range(3)]
    rows = [np.empty(x.shape) if j in want else spare[j % 3] for j in range(max(want) + 1)]
    phi_fill(rows, x, 1.0 if seed is None else seed)
    return {j: rows[j] for j in want}
