"""The Green's values in closed form, on `math` alone: the axis table and
its continued fraction, the coincidence value, the massless axis values,
the continuum potential, and the value and configuration types they share.

Nothing here imports numpy, so `hermgrid yukawa` and `hermgrid coulomb`
run without it; greens re-exports every public name of this module next
to the routes that need numpy.

Write 1/(k.k + mu^2) as the proper-time integral int_0^inf e^{-t (k.k +
mu^2)} dt and set s = 1/(1+t), tau = 1 - s.  Along one axis the Gaussian
integral over k is a single power tau^j, and the integral over t of tau^j
is j! U(j+1, 1/2, mu^2), with U Tricomi's confluent hypergeometric
function (DLMF 13.4.4), so each axis value is one entry of a per-mass
table:

    G((2j,0,0), (0,0,0); mu) = (sqrt((2j)!) / 2^j) U(j+1, 1/2, mu^2)

j = 0 is the coincidence value mu e^{mu^2} Gamma(-1/2, mu^2) and mu = 0
gives coulomb_even.  The ratios U(n)/U(n+1) obey the three-term recurrence
in a (DLMF 13.3.7), whose backward loop (_gamma_cf_levels) is also
Legendre's continued fraction for Gamma(-1/2, x): one loop serves the
coincidence value and the axis table (axis_table), which runs the
recurrence forward instead where mu^2 j is small.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import mul, truediv
from typing import ClassVar

from .errors import DomainError, whole

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureConfig:
    """The tolerance tol, a finite positive real, of every gate.

    s_plus_green runs at its node counts and at double them, and the
    difference, its error estimate, is gated at tol (see
    quadrature.refined); g_proper_time and coulomb_quadrature gate their
    rounding bounds at 100 tol.  No node count is settable: s_plus_green
    alone reads gh_nodes, a class constant, as the floor of its radial
    rule, and the benchmark's Tracer.call (perfbench/tracing.py) as the key
    of a cold g_sharp span.
    """

    gh_nodes: ClassVar[int] = 64
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (isinstance(self.tol, numbers.Real) and 0 < self.tol < math.inf):
            raise ValueError(f"tol must be a finite positive real, got {self.tol!r}")


@dataclass(frozen=True, slots=True)
class GreensValue:
    """A Green's function sample plus the honest error bar: a stated
    rounding bound for every route, g_sharp, g_sharp_axis, g_proper_time and
    coulomb_quadrature, each of which evaluates an exact form or an exact
    rule once (0.0 for exact zeros only).  Frozen, so the axis tables'
    entries and the exact zeros are shared by every caller, never copied;
    slotted, so no entry carries an instance dict."""

    value: complex
    err_estimate: float


# phase * 0.0 by the phase exponent (sum n - sum nhat) % 4, signed zeros
# kept: the exact zero of a pair that violates parity (0j for an odd axis)
PARITY_ZEROS = tuple(GreensValue(complex(1j ** k * 0.0), 0.0) for k in range(4))


def clear_caches() -> None:
    """Drop the axis tables and their step factors."""
    axis_table.cache_clear()
    _table_steps.cache_clear()


# Entries of the default axis table, n1 = 0, 2, ..., 40; a higher order asks
# for a table of twice the size, as often as needed.  Every entry past 21
# would add a level to each backward build (4-8 us cold for mu in [1, 4] on
# a 2-core VM).
AXIS_TABLE = 21

# x * size up to which axis_table runs forward.  Forward, the seed's
# rounding grows by about e^{4 sqrt(x j)} by entry j, at most e^4 here;
# measured, the entries stay within (j + 1) ulps.
_FORWARD_MAX = 1.0


@lru_cache(maxsize=None)
def _table_steps(size: int) -> tuple[float, ...]:
    """sqrt(j (j - 1/2)) for j = 1..size-1, once per table size."""
    return tuple(math.sqrt(j * (j - 0.5)) for j in range(1, size))


@lru_cache(maxsize=128)
def axis_table(mu: float, size: int) -> tuple[GreensValue, ...]:
    """G((2j,0,0),(0,0,0); mu) for j < size, mu > 0, as finished values
    shared by every caller, with g_sharp_axis' bound on each
    g_j = (sqrt((2j)!) / 2^j) U(j+1, 1/2, mu^2), built as
    g_0 = yukawa_coincidence(mu) (the same float) and g_j = g_{j-1}
    sqrt(j (j - 1/2)) / d_j, so the prefactor never overflows.  The
    d_j = U(j)/U(j+1) come from _gamma_cf_levels once x = mu^2 times size
    passes _FORWARD_MAX, and otherwise from the recurrence run forward as
    e_j = (j + 1/2)(e_{j-1} - x) / (j + x - e_{j-1}), d_j = j + 1/2 + e_j,
    from e_0 = 1/g_0 - 1/2: d_j stays exact at x = 0, where the plain
    three-term step lost up to j^2/8 ulps by j = 100."""
    # a numpy float32 mass is the key of its float value too, so the table
    # is built in double precision whatever type the mass comes in
    mu = float(mu)
    x = mu * mu
    if x * size > _FORWARD_MAX:
        d = _gamma_cf_levels(x, size)
        # from mu = 1 on this is the float yukawa_coincidence returns
        g = 1.0 / d[0] if mu >= 1.0 else yukawa_coincidence(mu)
    else:
        g = yukawa_coincidence(mu)
        e = 1.0 / g - 0.5
        d = [0.5 + e]
        for j in range(1, size):
            e = (j + 0.5) * (e - x) / (j + x - e)
            d.append(j + 0.5 + e)
    values = accumulate(map(truediv, _table_steps(size), d[1:]), mul, initial=g)
    return tuple(GreensValue(complex(v), (4 * j + 64) * (2.0 ** -52 * v + 2.0 ** -1074))
                 for j, v in enumerate(values))


def axis_entries(mu: float, count: int) -> tuple[GreensValue, ...]:
    """The axis table at mu with at least count entries: the default size,
    doubled as often as needed."""
    size = AXIS_TABLE
    while size < count:
        size *= 2
    return axis_table(mu, size)


def g_sharp_axis(n1: int, mu: float, cfg: QuadratureConfig) -> GreensValue:
    """Green's function along one axis, G((n1,0,0),(0,0,0); mu), in closed
    form (module docstring): the exact zero 0j for odd n1, and for even
    n1 = 2j entry j of the per-mass table axis_table, shared and frozen.

    At n1 = 0 that is the float yukawa_coincidence(mu).  err_estimate is
    the rounding bound (4 j + 64)(2^-52 |value| + 2^-1074) at every even
    n1: four roundings per factor of the table's product and 64 for its
    seed, which covers the growth of the forward recurrence and the
    truncation of the backward one (the seed itself, the coincidence value,
    is up to about 1.2 ulps off); 1.0e-13 relative at n1 = 200, and
    measured against mpmath never reached.  Every finite mu > 0 answers.
    No quadrature runs, so cfg is not read; it keeps the routes' call shape.
    """
    if type(n1) is not int or n1 < 0:
        n1 = whole(n1, "order")
    if not 0 < mu < math.inf:
        raise DomainError(f"mu must be positive and finite, got {mu}")
    if n1 & 1:
        return PARITY_ZEROS[0]
    j = n1 >> 1
    if j < AXIS_TABLE:
        return axis_table(mu, AXIS_TABLE)[j]
    return axis_entries(mu, j + 1)[j]


# Margin c of the depth N = ceil((sqrt(count) + c / sqrt(x))^2) + 2 of
# _gamma_cf_levels: every level below count is within one ulp of a run twice
# as deep for c above 5.59 at 120 masses in [0.2, 1e4] and count 1 to 168
# (x count > 1), and above 6.24 at 5,000 masses (7.73 and 8.17 from the plain
# fixed point).  The two extra levels serve large x, where the square alone
# reaches less than one level past count.
_CF_MARGIN = 6.8

# level numbers as floats, enough for the default table at every mass where
# it runs backward (at most 1,280 levels)
_LEVEL_K = tuple(map(float, range(2048)))


def _gamma_cf_levels(x: float, count: int) -> list[float]:
    """d_n = U(n, 1/2, x) / U(n+1, 1/2, x) for n < count, x > 0.

    With d_n = n + 1/2 + e_n, the recurrence of U in a (DLMF 13.3.7) reads
    e_n = x + (n+1) e_{n+1} / d_{n+1}, every term positive.  U is its
    minimal solution, so the loop runs backward (Miller's algorithm) from
    depth N = ceil((sqrt(max(count, AXIS_TABLE)) + _CF_MARGIN / sqrt(x))^2)
    + 2, about 46/x for small x.  It starts from the step's fixed point
    corrected for the drift e_{N+1} - e_N of the tail (two rounds from the
    plain fixed points at N, N+1 and N+2), close enough for a margin of 6.8
    where the plain fixed point needs 8.5: a 21-entry table takes 1,013
    levels at mu = 1/4 (1,491 from the plain start), and about 11,500
    (16,100) over the 48 masses in [1/4, 4] of a benchmark round.  As
    U(0) = 1, 1/d_0 = U(1, 1/2, x) = x^{1/2} e^x Gamma(-1/2, x): the loop
    is Legendre's continued fraction for Gamma(-1/2, x) (DLMF 8.9.2)
    evaluated bottom-up, d_n its level-n denominator.  Every count up to
    AXIS_TABLE runs at one depth, so the coincidence value is the axis
    table's first entry to the bit.  From x = 2^80 on, every
    d_n = x + 2n + 1/2 - O(n^2/x) rounds to x.
    """
    if x >= 2.0 ** 80:
        return [x] * count
    depth = math.ceil((math.sqrt(max(count, AXIS_TABLE)) + _CF_MARGIN / math.sqrt(x)) ** 2) + 2
    ks = _LEVEL_K if depth < len(_LEVEL_K) else tuple(map(float, range(depth + 1)))
    # the step's fixed points at depth, depth + 1 and depth + 2, then twice
    # the root at level n if level n + 1 lies s above it:
    # e = h - s/2 + sqrt(r_n + s (n + 5/4 + x/2 + s/4)), r_n = h^2 + x (n + 3/2)
    h = 0.5 * (x - 0.5)
    r = h * h + x * (depth + 1.5)
    v = depth + 1.25 + 0.5 * x
    e0, e1, e2 = h + math.sqrt(r), h + math.sqrt(r + x), h + math.sqrt(r + 2.0 * x)
    s0, s1 = e1 - e0, e2 - e1
    e0 = h - 0.5 * s0 + math.sqrt(r + s0 * (v + 0.25 * s0))
    e1 = h - 0.5 * s1 + math.sqrt(r + x + s1 * (v + 1.0 + 0.25 * s1))
    s0 = e1 - e0
    e = h - 0.5 * s0 + math.sqrt(r + s0 * (v + 0.25 * s0))
    for k in ks[depth:count - 1:-1]:
        e = x + k * e / (k + 0.5 + e)
    out = []
    for k in ks[count - 1:0:-1]:
        d = k + 0.5 + e
        out.append(d)
        e = x + k * e / d
    out.append(0.5 + e)
    out.reverse()
    return out


def yukawa_coincidence(mu: float) -> float:
    """Closed coincidence value mu e^{mu^2} Gamma(-1/2, mu^2).

    Finite for every mu > 0 and -> 2 as mu -> 0+; the continuum kernel
    diverges at coincidence, this is the formalism's headline finite number.
    Below mu = 1 it is 2 (1 - sqrt(pi) mu e^{mu^2} erfc(mu)), within 16 ulps
    (12 near mu = 1, where it cancels); from mu = 1 on, 1/d_0 of the
    continued fraction (_gamma_cf_levels at x = mu^2), in which e^{mu^2}
    has cancelled, so nothing overflows at any finite mu.
    """
    if not 0 < mu < math.inf:
        raise DomainError(f"mu must be positive and finite, got {mu}")
    if mu >= 1.0:
        return 1.0 / _gamma_cf_levels(mu * mu, 1)[0]
    return 2.0 * (1.0 - _SQRT_PI * mu * math.exp(mu * mu) * math.erfc(mu))


def coulomb_even(n1: int) -> float:
    """Massless axis values at even grid index 2*n1, in closed form:
    2^(n1+1) n1! / ((2 n1 + 1) sqrt((2 n1)!)).

    n1 here is the half-index.  The square 4^(n1+1) / ((2 n1 + 1)^2
    C(2 n1, n1)) is an exact integer ratio, which Python's int true division
    rounds correctly; one square root follows, so every value is within one
    ulp (n1 = 0 returns exactly 2.0).  The integers grow with n1, and so
    does the cost (3 ms a value at n1 = 5000), so from n1 = 1000 on C(2n, n)
    comes from its asymptotic series 4^n / sqrt(pi n) (1 - 1/(8n) +
    1/(128n^2) + 5/(1024n^3) - 21/(32768n^4) + ...), whose next term is
    below 2e-18 there; it meets the exact ratio within one ulp.
    """
    n1 = whole(n1, "order")
    if n1 < 1000:
        return math.sqrt(4 ** (n1 + 1) / ((2 * n1 + 1) ** 2 * math.comb(2 * n1, n1)))
    u = 1.0 / n1
    series = 1.0 + u * (-1.0 / 8 + u * (1.0 / 128 + u * (5.0 / 1024 - u * 21.0 / 32768)))
    return 2.0 * (math.pi * n1) ** 0.25 / ((2.0 * n1 + 1.0) * math.sqrt(series))


def continuum_yukawa(r: float, mu: float, g: float) -> float:
    """The continuum potential -(g^2 / 4 pi) e^{-mu r} / r; singular at r = 0."""
    if not 0 < r < math.inf:
        raise DomainError(f"r must be positive and finite, got {r}")
    if not 0 <= mu < math.inf:
        raise DomainError(f"mu must be nonnegative and finite, got {mu}")
    val = -(g * g) / (4.0 * math.pi) * math.exp(-mu * r) / r
    if not math.isfinite(val):
        raise DomainError(f"potential at r={r}, mu={mu}, g={g} is not a finite double: {val}")
    return val
