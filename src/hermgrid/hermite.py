"""Scaled Hermite basis functions and their index-space difference calculus.

The basis function of order n is

    xi_n(k) = i^n e^{-k^2/2} H_n(k) / (pi^{1/4} 2^{n/2} sqrt(n!))

where H_n is the physicists' Hermite polynomial.  Everything in this package
that integrates over momentum expands in this basis, so the evaluation here
must stay accurate for orders in the hundreds.  Factorials and raw H_n values
overflow long before that, which is why all evaluation goes through one
normalized three-term recurrence, _phi_rows.
"""

from __future__ import annotations

import math
from itertools import islice

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


def _phi_rows(x, seed):
    """Yield seed phi_0(x), seed phi_1(x), ... without end.

    The one copy of the normalized recurrence
    phi_{j+1} = sqrt(2/(j+1)) x phi_j - sqrt(j/(j+1)) phi_{j-1}, which never
    forms H_n or n! and is overflow-free for all n.  x and seed may be
    floats or arrays; a seed that carries the Gaussian factor keeps the
    values of the basis functions in range at any k.
    """
    prev, cur = 0.0, seed
    j = 0
    while True:
        yield cur
        prev, cur = cur, math.sqrt(2.0 / (j + 1)) * x * cur - math.sqrt(j / (j + 1.0)) * prev
        j += 1


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
    val = next(islice(_phi_rows(k, math.exp(-0.5 * k * k) / _PI_QUARTER), n, None))
    return _I_POW[n % 4] * val


def xi_axis(n_max: int, k: float) -> np.ndarray:
    """All of xi_0(k) .. xi_{n_max}(k) as one complex vector, by the same
    recurrence as :func:`xi`; used by every mode sum in the package.
    """
    if n_max < 0:
        raise ValueError(f"order must be nonnegative, got {n_max}")
    count = n_max + 1
    vals = np.fromiter(_phi_rows(k, math.exp(-0.5 * k * k) / _PI_QUARTER), float, count)
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

    Shape (n_max+1, len(x)).  xi_n(k) = i^n e^{-k^2/2} phi_n(k) / pi^{1/4},
    so tables of phi against Gauss-Hermite weights carry no exponentials at all.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rows = np.empty((n_max + 1, x.size))
    for row, val in zip(rows, _phi_rows(x, 1.0)):
        row[...] = val
    return rows


def phi(n: int, x: np.ndarray) -> np.ndarray:
    """phi_n(x) alone: row n of phi_row(n, x), without storing the rows below it."""
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    x = np.asarray(x, dtype=float)
    return next(islice(_phi_rows(x, np.ones(x.shape)), n, None))
