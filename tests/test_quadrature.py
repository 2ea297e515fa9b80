"""Quadrature rules against closed-form Gauss weights evaluated in mpmath.

Each Gauss weight has a closed form in the rule's orthogonal polynomials at
the node.  The oracle runs their three-term recurrence in 40-digit
arithmetic at the double node, moves the node by one Newton step onto the
true root, and evaluates the closed form there.  It shares no code with the
rules under test.  Weights carried only to absolute precision (squared
eigenvector components) show here as relative errors at the far nodes,
where the true weights are tiny.  The oracle of the Gauss-Legendre rule
takes two Newton steps, from the double node and from the first step.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from hermgrid import quadrature
from hermgrid.errors import OrderTooLargeError
from hermgrid.quadrature import (
    GH_RULE_MAX,
    QuadratureConfig,
    gauss_hermite,
    gauss_laguerre_half,
    gauss_legendre,
)

mp = pytest.importorskip("mpmath")


def _laguerre_half_weights(n, nodes):
    # P_k = k! L_k^{(1/2)}: P_{k+1} = (2k + 3/2 - x) P_k - k (k + 1/2) P_{k-1},
    # x P_k' = k P_k - k (k + 1/2) P_{k-1}, and the weight at a root of L_n is
    # Gamma(n + 3/2) x / (n! (n+1)^2 L_{n+1}(x)^2) = Gamma(n + 3/2) n! x / P_{n+1}^2
    half = mp.mpf(1) / 2
    a = [2 * k + 1 + half for k in range(n + 1)]
    d = [k * (k + half) for k in range(n + 2)]
    scale = mp.gamma(n + 1 + half) * mp.factorial(n)
    out = []
    for node in nodes:
        x = mp.mpf(float(node))
        prev, cur = mp.mpf(0), mp.mpf(1)
        for k in range(n):
            prev, cur = cur, (a[k] - x) * cur - d[k] * prev
        p_next = (a[n] - x) * cur - d[n] * prev
        step = -cur * x / (n * cur - d[n] * prev)
        p_next += step * ((n + 1) * p_next - d[n + 1] * cur) / x
        out.append(scale * (x + step) / p_next ** 2)
    return out


def _hermite_rule(n, nodes):
    # H_{k+1} = 2x H_k - 2k H_{k-1}, H_k' = 2k H_{k-1}, and the weight at a
    # root of H_n is 2^(n-1) n! sqrt(pi) / (n^2 H_{n-1}(x)^2); the root and
    # H_{n-1} there are one Newton step from the double node
    scale = mp.mpf(2) ** (n - 1) * mp.factorial(n) * mp.sqrt(mp.pi) / n ** 2
    roots, weights = [], []
    for node in nodes:
        x = mp.mpf(float(node))
        prev, cur = mp.mpf(0), mp.mpf(1)
        for k in range(n - 1):
            prev, cur = cur, 2 * x * cur - 2 * k * prev
        h_n = 2 * x * cur - 2 * (n - 1) * prev
        step = -h_n / (2 * n * cur)
        h_prev = cur + step * 2 * (n - 1) * prev
        roots.append(x + step)
        weights.append(scale / h_prev ** 2)
    return roots, weights


def _legendre_rule(n, nodes):
    # (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}, (1 - x^2) P_n' = n (P_{n-1} - x P_n),
    # and the weight at a root of P_n is 2 / ((1 - x^2) P_n'(x)^2)
    roots, weights = [], []
    for node in nodes:
        x = mp.mpf(float(node))
        for _ in range(2):
            prev, cur = mp.mpf(1), x
            for k in range(1, n):
                prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
            slope = n * (prev - x * cur) / (1 - x * x)
            x -= cur / slope
        roots.append(x)
        weights.append(2 / ((1 - x * x) * slope ** 2))
    return roots, weights


def _assert_relative(weights, exact, rtol):
    tiny = sys.float_info.min
    worst = 0.0
    for i, (w, ref) in enumerate(zip(weights, exact)):
        if ref >= tiny:
            worst = max(worst, float(abs(w - ref) / ref))
        else:
            assert w <= tiny, f"node {i}: weight {w!r} where the true weight is {ref}"
    assert worst <= rtol


@pytest.mark.parametrize("n", [400, 800])
def test_laguerre_half_weights_relative_accuracy(n):
    x, w = gauss_laguerre_half(n)
    with mp.workdps(40):
        exact = _laguerre_half_weights(n, x)
    _assert_relative(w, exact, 1e-10)


@pytest.mark.parametrize("n", [64, 128])
def test_hermite_weights_relative_accuracy(n):
    x, w = gauss_hermite(n)
    with mp.workdps(40):
        _, exact = _hermite_rule(n, x)
    _assert_relative(w, exact, 1e-10)


@pytest.mark.parametrize("n", [64, 128, 256])
def test_legendre_weights_relative_accuracy(n):
    # a few ulps, more only at the end nodes, where the recurrence rounds most
    y, w = gauss_legendre(n)
    with mp.workdps(40):
        _, exact = _legendre_rule(n, y)
    rel = [float(abs(a - b) / b) for a, b in zip(w, exact)]
    assert np.median(rel) <= 4e-15
    assert max(rel) <= 1e-12


@pytest.mark.parametrize("n", [1, 8, 9, 33, 128])
def test_legendre_rule_is_symmetric_to_the_bit(n):
    y, w = gauss_legendre(n)
    assert not y.flags.writeable and not w.flags.writeable
    assert np.all(np.diff(y) > 0)
    assert np.array_equal(y, -y[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert y[n // 2] == 0.0
    assert w.sum() == pytest.approx(2.0, rel=1e-15)


def _check_rule(x, w, rule, wtol_median, wtol_max):
    # nodes within 2 ulps of the true roots, normal weights within the
    # tolerances relative (a weight below the normal range must not be
    # above it), and the rule mirrored to the last bit; the nonnegative
    # half is compared, the other half being its mirror
    n = len(x)
    assert not x.flags.writeable and not w.flags.writeable
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0
    half = slice(n // 2, None)
    with mp.workdps(40):
        roots, exact = rule(n, x[half])
        ulps = [float(abs(r - mp.mpf(float(a)))) / math.ulp(a) for a, r in zip(x[half], roots)]
    assert max(ulps) <= 2.0
    tiny = sys.float_info.min
    rel = [float(abs(a - b) / b) for a, b in zip(w[half], exact) if b >= tiny]
    assert all(a <= tiny for a, b in zip(w[half], exact) if b < tiny)
    assert np.median(rel) <= wtol_median and max(rel) <= wtol_max


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 65, 128, 256, 512, 728])
def test_hermite_rule_against_mpmath(n):
    _check_rule(*gauss_hermite(n), _hermite_rule, 4e-15, 5e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 128, 512])
def test_legendre_rule_against_mpmath(n):
    _check_rule(*gauss_legendre(n), _legendre_rule, 4e-15, 1e-12)


def test_hermite_rule_past_its_cap_raises():
    # the basis seed e^{-x^2/2} of the Christoffel sum is subnormal at the
    # outer nodes past 728
    assert gauss_hermite(GH_RULE_MAX)[0].size == 728
    with pytest.raises(OrderTooLargeError):
        gauss_hermite(GH_RULE_MAX + 1)


def test_laguerre_half_rule_shape():
    x, w = gauss_laguerre_half(400)
    assert gauss_laguerre_half(400) is gauss_laguerre_half(400)
    assert not x.flags.writeable and not w.flags.writeable
    assert np.all(np.diff(x) > 0) and x[0] > 0
    assert np.all(w >= 0)
    # zeroth and first moments of sqrt(x) e^{-x}
    assert w.sum() == pytest.approx(math.gamma(1.5), rel=1e-14)
    assert w @ x == pytest.approx(math.gamma(2.5), rel=1e-14)


def test_config_holds_a_checked_tolerance_alone():
    # no node count to set: each route works its own out from its input,
    # and gh_nodes is a class constant, not a field
    assert [f.name for f in dataclasses.fields(QuadratureConfig)] == ["tol"]
    assert QuadratureConfig().gh_nodes == QuadratureConfig.gh_nodes == 64
    assert not hasattr(quadrature, "GH_NODES_MAX")
    with pytest.raises(TypeError):
        QuadratureConfig(gh_nodes=8)
    for bad in (0, -1, math.nan, math.inf, "1e-8"):
        with pytest.raises(ValueError, match="tol must be a finite positive real"):
            QuadratureConfig(tol=bad)
