"""g_sharp against mpmath: an axis pair reads one entry of the per-mass
axis table, every other pair is the proper-time sum (g_proper_time).

Two references that share no code with either route.  Both start from the integer coefficients of the Hermite polynomials: per axis,
the Gaussian integral of phi_n phi_nhat at y sqrt(s) is the polynomial
J(s) = sum_p h_{2p} (2p - 1)!! / 2^p s^p / sqrt(2^(n+nhat) n! nhat!),
h the coefficients of H_n H_nhat, and

    G = i^(sum n - sum nhat) integral_0^1 s^{-1/2} e^{-mu^2 (1-s)/s} prod_a J_a(s) ds.

The proper-time reference integrates that directly (mp.quad in u = sqrt(s)),
so it shares nothing with the tau expansion.  The Tricomi reference
re-expands the exact polynomial in tau = 1 - s and integrates each power
exactly, integral s^{-1/2} tau^l e^{-mu^2 tau/s} ds = l! U(l+1, 1/2, mu^2),
in 40-digit arithmetic: fast enough for a sweep, and exact where a float
sum over the same powers would cancel.
"""

import math
import random
import warnings
from fractions import Fraction
from functools import lru_cache

import pytest

from hermgrid import greens
from hermgrid.checks import _check_greens_cross_method
from hermgrid.errors import NonconvergenceError, OrderTooLargeError
from hermgrid.greens import g_proper_time, g_sharp, g_sharp_axis
from hermgrid.quadrature import QuadratureConfig

mp = pytest.importorskip("mpmath")

CFG = QuadratureConfig()


@lru_cache(maxsize=None)
def _hermite(n: int) -> tuple[int, ...]:
    """Integer coefficients of the physicists' H_n, lowest power first."""
    if n == 0:
        return (1,)
    if n == 1:
        return (0, 2)
    up, down = _hermite(n - 1), _hermite(n - 2)
    out = [0] * (n + 1)
    for k, c in enumerate(up):
        out[k + 1] += 2 * c
    for k, c in enumerate(down):
        out[k] -= 2 * (n - 1) * c
    return tuple(out)


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _s_polynomial(n, nhat):
    """(P, norm): prod_a J_a(s) = sum_p P[p] s^p / sqrt(norm), P exact."""
    poly, norm = [Fraction(1)], 1
    for a, b in zip(n, nhat):
        h = _convolve(_hermite(a), _hermite(b))
        j = [Fraction(h[2 * p] * math.prod(range(1, 2 * p, 2)), 2 ** p)
             for p in range(len(h) // 2 + 1)]
        poly = _convolve(poly, j)
        norm *= 2 ** (a + b) * math.factorial(a) * math.factorial(b)
    return poly, norm


def _phase(n, nhat) -> int:
    return (-1) ** ((sum(n) - sum(nhat)) // 2)


def proper_time_truth(n, nhat, mu: float):
    poly, norm = _s_polynomial(n, nhat)
    with mp.workdps(40):
        x = mp.mpf(mu) ** 2
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in poly]

        def integrand(u):
            if u == 0:
                return mp.mpf(0)
            s = u * u
            return 2 * mp.exp(-x * (1 - s) / s) * mp.polyval(coeffs[::-1], s)

        points = {mp.mpf(0), mp.mpf(1)}
        points |= {mp.mpf(mu) * f for f in (0.5, 1, 2, 8) if mu * f < 1}
        points |= {1 - mp.mpf(c) / x for c in (0.5, 4, 32) if c < x}
        return _phase(n, nhat) * mp.quad(integrand, sorted(points)) / mp.sqrt(norm)


@lru_cache(maxsize=None)
def _tricomi(l: int, mu: float):
    with mp.workdps(40):
        return math.factorial(l) * mp.hyperu(l + 1, 0.5, mp.mpf(mu) ** 2)


def tricomi_truth(n, nhat, mu: float):
    poly, norm = _s_polynomial(n, nhat)
    # s^p = (1 - tau)^p
    tau = [Fraction(0)] * len(poly)
    for p, c in enumerate(poly):
        for l in range(p + 1):
            tau[l] += c * math.comb(p, l) * (-1) ** l
    with mp.workdps(40):
        total = mp.fsum(mp.mpf(c.numerator) / c.denominator * _tricomi(l, mu)
                        for l, c in enumerate(tau) if c)
        return _phase(n, nhat) * total / mp.sqrt(norm)


def _allowed_pairs(rng: random.Random, count: int, top: int):
    pairs = []
    while len(pairs) < count:
        n = tuple(rng.randrange(top + 1) for _ in range(3))
        nhat = tuple(rng.randrange(top + 1) for _ in range(3))
        if all((a + b) % 2 == 0 for a, b in zip(n, nhat)):
            pairs.append((n, nhat))
    return pairs


def test_references_agree_with_the_axis_values():
    # both references meet mpmath's U along the axis, where G is one entry
    for mu in (0.01, 0.7, 3.0):
        for n1 in (0, 4, 8):
            with mp.workdps(40):
                want = (mp.sqrt(mp.factorial(n1)) / 2 ** (n1 // 2)
                        * mp.hyperu(n1 // 2 + 1, 0.5, mp.mpf(mu) ** 2))
                for truth in (proper_time_truth, tricomi_truth):
                    got = truth((n1, 0, 0), (0, 0, 0), mu)
                    assert abs(got - want) <= 1e-25 * abs(want), (truth.__name__, mu, n1)


def test_closed_sum_matches_the_proper_time_integral():
    pairs = [((0, 0, 0), (0, 0, 0)), ((2, 0, 0), (0, 0, 0)), ((1, 1, 0), (1, 1, 0)),
             ((2, 1, 0), (0, 1, 2)), ((3, 1, 2), (1, 1, 0)), ((2, 2, 0), (0, 0, 2)),
             ((4, 0, 2), (0, 2, 0)), ((1, 2, 1), (3, 0, 1)), ((3, 3, 3), (1, 1, 1)),
             ((4, 4, 2), (2, 0, 4))]
    worst = 0.0
    for mu in (1e-3, 0.3, 0.9, 3.1, 30.0):
        for n, nhat in pairs:
            got = g_sharp(n, nhat, mu, CFG)
            if sum(map(bool, n + nhat)) <= 1:
                assert got == g_sharp_axis(n[0], mu, CFG), (n, nhat, mu)
            else:
                assert got == g_proper_time(n, nhat, mu, CFG), (n, nhat, mu)
            truth = proper_time_truth(n, nhat, mu)
            gap = float(abs(got.value.real - truth))
            assert got.value.imag == 0.0
            if got.err_estimate == 0.0:
                # the coincidence value, whose closed form states no
                # rounding bound: 1.2 ulps off at mu = 3.1
                assert gap <= 2.0 * math.ulp(got.value.real), (n, nhat, mu, gap)
                continue
            assert gap <= got.err_estimate, (n, nhat, mu, gap, got.err_estimate)
            worst = max(worst, gap / got.err_estimate)
    assert worst < 0.5


def test_closed_sum_lies_within_its_bound():
    # 40 pairs with components <= 4 and four high-order pairs at eleven
    # masses over [1e-4, 1e3]: 484 points
    rng = random.Random(2026)
    pairs = _allowed_pairs(rng, 40, 4)
    pairs += [((8, 8, 8), (8, 8, 8)), ((10, 10, 10), (10, 10, 10)),
              ((12, 0, 0), (0, 6, 6)), ((7, 5, 3), (3, 5, 7))]
    worst = 0.0
    for mu in (1e-4, 1e-3, 0.01, 0.1, 0.3, 0.7, 1.0, 3.1, 10.0, 100.0, 1e3):
        for n, nhat in pairs:
            got = g_sharp(n, nhat, mu, CFG)
            truth = tricomi_truth(n, nhat, mu)
            gap = float(abs(got.value.real - truth))
            assert gap <= got.err_estimate, (n, nhat, mu, gap, got.err_estimate)
            worst = max(worst, gap / got.err_estimate)
    # order 300, where a sum over the powers of tau would carry
    # coefficients of 4e89, some of them below the smallest double
    for mu in (100.0, 1e3):
        got = g_sharp((300, 0, 0), (300, 0, 0), mu, CFG)
        truth = tricomi_truth((300, 0, 0), (300, 0, 0), mu)
        worst = max(worst, float(abs(got.value.real - truth)) / got.err_estimate)
    assert worst < 0.5


def test_axis_pairs_are_the_axis_values_to_the_bit():
    # the tensor route the proper-time sum replaced raised here (refinement
    # defects 5.0e-6, 1.4e-5 and 1.0e-6 against a gate of 1e-6)
    for n1, mu in ((4, 0.3), (6, 0.3), (6, 0.5)):
        axis = g_sharp_axis(n1, mu, CFG)
        assert g_sharp((n1, 0, 0), (0, 0, 0), mu, CFG).value == axis.value
        full = g_proper_time((n1, 0, 0), (0, 0, 0), mu, CFG)
        assert abs(full.value - axis.value) <= full.err_estimate + axis.err_estimate <= 1e-14
    # the 48 masses of the mass-scan benchmark at seed 1
    rng = random.Random(1)
    masses = [0.25 * 16.0 ** ((k + rng.random()) / 48) for k in range(48)]
    for mu in masses:
        for n1 in range(41):
            got = g_sharp((n1, 0, 0), (0, 0, 0), mu, CFG)
            assert got.value == g_sharp_axis(n1, mu, CFG).value, (mu, n1)


# (n1,0,0) against itself at mu = 1, from the exact rational coefficients
# of the sum over the powers of tau and mpmath's hyperu at 300 and 400
# digits (the two agree to every digit shown); at 40 digits tricomi_truth
# gives 5e41 for n1 = 200
HIGH_ORDER_AT_1 = {200: 0.0377607658372639369, 300: 0.0308675631045899395,
                   400: 0.0267477353984268350}


def test_ill_conditioned_sums_fall_back_to_the_proper_time_sum():
    # high orders, where the float sum over the powers of tau left the
    # double range and the tensor route raised
    for n1, want in HIGH_ORDER_AT_1.items():
        got = g_sharp((n1, 0, 0), (n1, 0, 0), 1.0, CFG)
        assert got.value.imag == 0.0
        assert abs(got.value.real - want) <= got.err_estimate <= 2e-13, n1
    # where the bound fails the gate, a typed error, not a value
    with pytest.raises(NonconvergenceError, match="exceeds the gate"):
        g_sharp((8, 8, 8), (8, 8, 8), 0.3, QuadratureConfig(tol=1e-16))
    # past 728 nodes of an axis' rule (n_a + nhat_a > 1454) the basis seed
    # e^{-y^2/2} leaves the normal range at the outer nodes: a typed error
    # without a warning, where NaN and RuntimeWarnings came out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OrderTooLargeError):
            g_sharp((1000, 0, 0), (1000, 0, 0), 1.0, CFG)
        full = g_proper_time((1454, 0, 0), (0, 0, 0), 1.0, CFG)
    axis = g_sharp_axis(1454, 1.0, CFG)
    assert abs(full.value - axis.value) <= full.err_estimate + axis.err_estimate


def test_proper_time_sum_lies_within_its_bound():
    # the 40 pairs of the g_sharp sweep, off-diagonal ones among them,
    # and five high-order pairs at eleven masses over [1e-4, 1e4]: at
    # mu >= 10 the per-axis values of an off-diagonal pair cancel
    rng = random.Random(2027)
    pairs = _allowed_pairs(rng, 40, 4)
    pairs += [((8, 8, 8), (8, 8, 8)), ((10, 10, 10), (10, 10, 10)), ((12, 12, 12), (12, 12, 12)),
              ((12, 0, 0), (0, 6, 6)), ((7, 5, 3), (3, 5, 7))]
    worst = 0.0
    for mu in (1e-4, 1e-3, 0.05, 0.2, 0.3, 1.0, 3.1, 10.0, 100.0, 1e3, 1e4):
        for n, nhat in pairs:
            got = g_proper_time(n, nhat, mu, CFG)
            truth = tricomi_truth(n, nhat, mu)
            gap = float(abs(got.value.real - truth))
            assert got.value.imag == 0.0
            assert gap <= got.err_estimate, (n, nhat, mu, gap, got.err_estimate)
            worst = max(worst, gap / got.err_estimate)
    assert worst < 0.5


def test_closed_sum_ignores_the_quadrature_config():
    for cfg in (QuadratureConfig(refine=False), QuadratureConfig(gh_nodes=16, tol=1e-12)):
        for n, nhat in (((0, 0, 0), (0, 0, 0)), ((2, 1, 0), (0, 1, 2)), ((3, 1, 2), (1, 1, 0))):
            assert g_sharp(n, nhat, 0.5, cfg) == g_sharp(n, nhat, 0.5, CFG)


def test_cross_method_check_compares_two_routes(monkeypatch):
    # g_sharp of the check's general pairs is their proper-time sum, so the
    # check must hold it against another route: off by 1e-9, it fails
    ok, _, obs, _ = _check_greens_cross_method()
    assert ok and obs <= 0.0
    exact = greens.g_proper_time

    def shifted(n, nhat, mu, cfg):
        got = exact(n, nhat, mu, cfg)
        if sum(map(bool, n + nhat)) <= 1:
            return got
        return greens.GreensValue(got.value + 1e-9, got.err_estimate)

    monkeypatch.setattr(greens, "g_proper_time", shifted)
    ok, tol, obs, _ = _check_greens_cross_method()
    assert not ok and obs > tol


def test_each_kind_of_pair_takes_its_one_route():
    # axis pairs on every axis and in both orders are the axis value and
    # its bound to the bit, the coincidence value among them
    for mu in (0.05, 0.3, 1.0, 3.1):
        for n1 in range(41):
            axis = g_sharp_axis(n1, mu, CFG)
            for k in range(3):
                index = tuple(n1 if a == k else 0 for a in range(3))
                assert g_sharp(index, (0, 0, 0), mu, CFG) == axis, (mu, n1, k)
                assert g_sharp((0, 0, 0), index, mu, CFG) == axis, (mu, n1, k)
    # every other pair is the proper-time sum, whose bound here is 2.3e-14
    # (4.6e-13 relative), where the closed sum over the axis table it
    # replaced stated 3.5e-8
    pair = ((8, 8, 8), (8, 8, 8))
    got = g_sharp(*pair, 1.0, CFG)
    assert got == g_proper_time(*pair, 1.0, CFG)
    assert got.err_estimate <= 1e-12 * abs(got.value)
    assert abs(got.value.real - tricomi_truth(*pair, 1.0)) <= got.err_estimate


def test_conjugate_pairs_keep_their_sign_where_q_underflows():
    # axis pairs at orders where the closed sum's exact coefficients lay
    # below the smallest double, and a general pair: with the index order
    # swapped the phase exponent is negative
    for n1 in (356, 360, 400):
        axis = g_sharp_axis(n1, 1.0, CFG)
        forward = g_sharp((n1, 0, 0), (0, 0, 0), 1.0, CFG)
        backward = g_sharp((0, 0, 0), (n1, 0, 0), 1.0, CFG)
        assert backward.value == forward.value == axis.value
        assert backward == forward
    pair = ((2, 0, 0), (0, 300, 0))
    assert g_sharp(*pair, 2.0, CFG) == g_sharp(*pair[::-1], 2.0, CFG)

