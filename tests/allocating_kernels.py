"""The allocating forms of the package's recurrences and of the projector's
radius scan, kept as a reference for the in-place kernels.

phi_rows is the generator form of the normalized Hermite recurrence: each
order allocates its products afresh, and the step coefficients are square
roots taken at each step.  phi_row, phi_at and xi_axis build on it as the
package's functions did before they ran the recurrence in place;
legendre_pair allocates each Legendre order, scaled_table builds the
exchange element's table from all rows at once, and radius scans all 50
points of its t grid with 20 fixed-point steps each.  The in-place forms
must give the same floats, bit for bit.
"""

import math
from itertools import islice

import numpy as np

from hermgrid.dirac import _TAIL
from hermgrid.quadrature import hermite_half
from hermgrid.scattering import _chebyshev

_PI_QUARTER = math.pi ** 0.25
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def phi_rows(x, seed):
    """Yield seed phi_0(x), seed phi_1(x), ... without end."""
    prev, cur = 0.0, seed
    j = 0
    while True:
        yield cur
        prev, cur = cur, math.sqrt(2.0 / (j + 1)) * x * cur - math.sqrt(j / (j + 1.0)) * prev
        j += 1


def phi_row(n_max: int, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rows = np.empty((n_max + 1,) + x.shape)
    for row, val in zip(rows, phi_rows(x, 1.0)):
        row[...] = val
    return rows


def phi_at(orders, x, seed=None) -> dict:
    want = set(orders)
    x = np.asarray(x, dtype=float)
    rows = islice(phi_rows(x, np.ones(x.shape) if seed is None else seed), max(want) + 1)
    return {j: row for j, row in enumerate(rows) if j in want}


def xi_axis(n_max: int, k: float) -> np.ndarray:
    count = n_max + 1
    vals = np.fromiter(phi_rows(k, math.exp(-0.5 * k * k) / _PI_QUARTER), float, count)
    return vals * np.array(_I_POW)[np.arange(count) % 4]


def legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    prev, cur = np.ones_like(x), x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, prev


def scaled_table(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    y, weights, _ = hermite_half(n_max + 1)
    z = np.outer(np.sqrt(_chebyshev(n_max)), y)
    seed = np.sqrt(weights) * np.exp(-0.5 * y * y) / math.sqrt(math.pi)
    rows = phi_at(range(n_max + 1), z, np.broadcast_to(seed, z.shape))
    return tuple(np.stack([rows[n].ravel() * (-1.0) ** (n // 2)
                           for n in range(parity, n_max + 1, 2)])
                 for parity in (0, 1))


def radius(pair_degree: int) -> float:
    best = math.inf
    for t in np.linspace(0.01, 0.5, 50):
        b = (1.0 - t) / (1.0 + t)
        log_c = (math.log(4.0 / math.sqrt(math.pi) / _TAIL) - 0.5 * pair_degree * math.log(t)
                 - 1.5 * math.log1p(-t * t) - math.log(b))
        r = 1.0
        for _ in range(20):
            r = math.sqrt((log_c + math.log(r)) / b)
        best = min(best, r)
    return best
