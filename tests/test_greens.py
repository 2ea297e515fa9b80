import collections
import dataclasses
import itertools
import json
import warnings
import math
import pathlib
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import grid_route
from grid_route import _ball_exact, green_contract
from hermgrid import MollerKinematics, VertexTruncation, closed, greens, moller_reduced_element, quadrature
from hermgrid.dirac import s_plus_green
from hermgrid.errors import DomainError, NonconvergenceError, OrderTooLargeError
from hermgrid.closed import axis_table
from hermgrid.greens import (
    GreensValue,
    clear_caches,
    continuum_yukawa,
    continuum_yukawa_oracle,
    coulomb_even,
    coulomb_quadrature,
    difference_equation_residual,
    g_proper_time,
    g_sharp,
    g_sharp_axis,
    w_sharp,
    yukawa_coincidence,
)
from hermgrid.hermite import phi_at, phi_row
from hermgrid.quadrature import (
    PT_DEGREE_MAX,
    PT_ERROR,
    QuadratureConfig,
    gauss_hermite,
    gauss_legendre,
    hermite_half,
    pt_lattice,
    pt_tail,
    refined,
)

CFG = QuadratureConfig()

# mu e^{mu^2} Gamma(-1/2, mu^2) at mu = 1, pinned against the erfc identity
# and an independent adaptive quadrature
COINCIDENCE_AT_1 = 0.4842556877173759


def test_greens_value_is_frozen():
    v = GreensValue(1 + 0j, 0.0)
    with pytest.raises(AttributeError):
        v.value = 2.0


def test_index_validation():
    with pytest.raises(ValueError):
        g_sharp((0, 0), (0, 0, 0), 1.0, CFG)
    with pytest.raises(ValueError):
        g_sharp((0, 0, -1), (0, 0, 0), 1.0, CFG)
    with pytest.raises(ValueError):
        g_sharp((0.5, 0, 0), (0, 0, 0), 1.0, CFG)


def test_coincidence_value_three_routes():
    closed = yukawa_coincidence(1.0)
    assert closed == pytest.approx(COINCIDENCE_AT_1, rel=1e-15)
    proper_time = g_proper_time((0, 0, 0), (0, 0, 0), 1.0, CFG)
    axis = g_sharp_axis(0, 1.0, CFG)
    assert abs(proper_time.value - COINCIDENCE_AT_1) <= proper_time.err_estimate
    assert proper_time.value.imag == 0.0
    assert axis.value.real == pytest.approx(closed, abs=1e-12)


def test_tensor_parity_zero_and_small_mass_example():
    odd = g_sharp((1, 0, 0), (0, 0, 0), 1.0, CFG)
    assert odd.value == 0 and odd.err_estimate == 0.0
    small = g_proper_time((2, 0, 0), (0, 0, 0), 1e-3, CFG)
    # near the massless limit the value sits an O(mu) step from the
    # massless closed form
    assert small.value.real == pytest.approx(0.942809, abs=5e-3)
    axis = g_sharp_axis(2, 1e-3, CFG)
    assert abs(small.value - axis.value) <= small.err_estimate + axis.err_estimate


def test_tensor_conjugation_symmetry():
    a = g_sharp((2, 1, 0), (0, 1, 2), 0.8, CFG)
    b = g_sharp((0, 1, 2), (2, 1, 0), 0.8, CFG)
    assert a.value == pytest.approx(np.conj(b.value), rel=1e-10, abs=1e-12)


def test_tensor_nonconvergence_gate():
    # the proper-time sum's rounding bound, 1.4e-15 here, is gated at
    # 100 * tol, and g_sharp of a general pair is that sum
    pair = ((4, 0, 0), (2, 0, 0))
    assert g_proper_time(*pair, 0.5, QuadratureConfig(tol=1e-16)).err_estimate <= 1e-14
    for route in (g_proper_time, g_sharp):
        with pytest.raises(NonconvergenceError, match="exceeds the gate"):
            route(*pair, 0.5, QuadratureConfig(tol=1e-18))


def test_green_values_read_no_node_count():
    # the Green's values run no quadrature: the same value and estimate
    # whatever the config holds (its tolerance only gates them)
    loose = QuadratureConfig(tol=1e-3)
    for n, nhat in (((0, 0, 0), (0, 0, 0)), ((8, 8, 8), (8, 8, 8))):
        assert g_proper_time(n, nhat, 0.3, loose) == g_proper_time(n, nhat, 0.3, CFG)
    # a parity zero is exact
    assert g_proper_time((0, 1, 0), (0, 0, 0), 1.0, CFG).err_estimate == 0.0
    assert g_sharp((0, 1, 0), (0, 0, 0), 1.0, CFG).err_estimate == 0.0
    # the axis values are closed forms: the same estimate
    for n1 in (0, 4):
        assert g_sharp_axis(n1, 1.0, loose) == g_sharp_axis(n1, 1.0, CFG)
    # the coincidence value carries the table's rounding bound, and lies
    # within it of e Gamma(-1/2, 1)
    mp = pytest.importorskip("mpmath")
    got = g_sharp_axis(0, 1.0, CFG)
    with mp.workdps(40):
        want = mp.e * mp.gammainc(-0.5, 1)
    assert 0.0 < got.err_estimate <= 1e-13
    assert float(abs(got.value.real - want)) <= got.err_estimate


def test_axis_odd_orders_are_exact_zeros():
    v = g_sharp_axis(7, 1.0, CFG)
    assert v.value == 0j
    assert v.err_estimate == 0.0


def test_axis_domain_checks():
    with pytest.raises(DomainError):
        g_sharp_axis(0, 0.0, CFG)
    with pytest.raises(ValueError):
        g_sharp_axis(-2, 1.0, CFG)
    with pytest.raises(DomainError):
        g_sharp((0, 0, 0), (0, 0, 0), 0.0, CFG)


def test_fractional_orders_are_rejected():
    # they used to be truncated to the order below, as g_sharp never did
    with pytest.raises(ValueError):
        g_sharp_axis(2.5, 1.0, CFG)
    with pytest.raises(ValueError):
        w_sharp(2.7, 1.0, CFG)
    with pytest.raises(ValueError):
        coulomb_even(1.5)
    with pytest.raises(ValueError):
        coulomb_quadrature(2.9, CFG)
    # integral floats and numpy integers stay orders
    assert g_sharp_axis(4.0, 1.0, CFG) == g_sharp_axis(np.int64(4), 1.0, CFG)
    assert coulomb_even(2.0) == coulomb_even(2)


def test_axis_high_order_large_mass_regression():
    # a pole-subtracting quadrature lost six digits to cancellation here
    # and tripped its refinement gate; the closed form is 1.874e-14
    v = g_sharp_axis(40, 4.0, CFG)
    assert abs(v.value.real) <= 1e-13
    assert v.err_estimate <= 1e-12


def test_axis_agrees_with_tensor_above_branch():
    for mu in (1.5, 4.0):
        t = g_proper_time((4, 0, 0), (0, 0, 0), mu, CFG)
        a = g_sharp_axis(4, mu, CFG)
        assert abs(t.value - a.value) <= t.err_estimate + a.err_estimate


def test_yukawa_coincidence_matches_mpmath():
    # past mu = 27 the old closed form overflowed in e^{mu^2}
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(40):
        for mu in np.logspace(-6, 4, 241):
            x = mp.mpf(float(mu)) ** 2
            want = mp.mpf(float(mu)) * mp.exp(x) * mp.gammainc(-0.5, x)
            got = yukawa_coincidence(float(mu))
            worst = max(worst, float(abs(got - want) / want))
    assert worst <= 1e-14


def test_yukawa_coincidence_below_mass_one_in_ulps():
    # 2 (1 - sqrt(pi) mu e^{mu^2} erfc(mu)): the product carries up to about
    # 3 ulps of exp, erfc and its own rounding, and near mu = 1 the
    # subtraction and the smaller value's ulp magnify that fourfold.  The
    # two last masses are the worst of 50,000 drawn on [0, 1) and [0.85, 1)
    # (12.2 and 10.6 ulps); scipy's erfcx form reached 21.8 there.
    mp = pytest.importorskip("mpmath")
    mus = [*np.logspace(-6, 0, 400, endpoint=False), *np.linspace(0.5, 1.0, 2000, endpoint=False),
           0.9838961103762334, 0.9751452710466864]
    ulps = []
    with mp.workdps(40):
        for mu in map(float, mus):
            got = yukawa_coincidence(mu)
            want = 2 * (1 - mp.sqrt(mp.pi) * mu * mp.exp(mp.mpf(mu) ** 2) * mp.erfc(mu))
            ulps.append(float(abs(got - want)) / math.ulp(got))
    assert max(ulps) <= 16.0


def test_coincidence_monotone_decreasing_in_mass():
    mus = np.linspace(0.1, 4.0, 14)
    vals = [yukawa_coincidence(float(m)) for m in mus]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_coulomb_even_closed_values():
    assert coulomb_even(0) == 2.0
    assert coulomb_even(1) == pytest.approx(4.0 / (3.0 * math.sqrt(2.0)), rel=1e-15)
    assert coulomb_even(2) == pytest.approx(16.0 / (5.0 * math.sqrt(24.0)), rel=1e-15)
    with pytest.raises(ValueError):
        coulomb_even(-1)


def test_coulomb_even_log_branch_joins_smoothly():
    vals = [coulomb_even(n) for n in range(994, 1006)]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # ratio of successive ratios stays near 1 across the 999/1000 switch
    # from the exact integer ratio to the asymptotic series
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    second = [abs(r2 / r1 - 1.0) for r1, r2 in zip(ratios, ratios[1:])]
    assert max(second) < 1e-2


def test_coulomb_quadrature_examples():
    assert abs(coulomb_quadrature(0, CFG).value - 2.0) <= 1e-6
    assert abs(coulomb_quadrature(3, CFG).value) <= 1e-10
    assert coulomb_quadrature(2, CFG).value.real == pytest.approx(
        coulomb_even(1), rel=1e-6)


def test_coulomb_quadrature_derives_its_node_count(monkeypatch):
    # one half Gauss-Hermite rule of nodes + nodes % 2 points, nodes =
    # n1 // 2 + 1, exact for the closed angle integral of degree n1 and free
    # of a node at k = 0, evaluated once; an odd order builds no rule
    asked = []
    monkeypatch.setattr(greens, "hermite_half", lambda n, rule=hermite_half: asked.append(n) or rule(n))
    for n1 in (0, 2, 3, 126, 200, 400):
        asked.clear()
        got = coulomb_quadrature(n1, CFG)
        if n1 % 2:
            assert asked == [] and got == GreensValue(0j, 0.0), n1
            continue
        nodes = n1 // 2 + 1
        assert asked == [nodes + nodes % 2], n1
        assert 0.0 < got.err_estimate <= 1e-13 and abs(got.value - coulomb_even(n1 // 2)) <= got.err_estimate, n1


def test_coulomb_quadrature_refuses_an_order_past_the_cap():
    # a rule past 728 nodes is refused before any rule is built
    caches = (gauss_hermite, hermite_half, gauss_legendre)
    before = [c.cache_info().currsize for c in caches]
    for n1 in (1456, 1457, 10 ** 6):
        with pytest.raises(OrderTooLargeError, match=f"index {n1} needs"):
            coulomb_quadrature(n1, CFG)
    assert [c.cache_info().currsize for c in caches] == before


def test_coulomb_quadrature_values_lie_within_their_estimates():
    # against the exact integer ratio 4^(h+1) / ((2h+1)^2 C(2h, h)) under a
    # 40-digit square root (zero at odd orders), every value lies within
    # its err_estimate; the two-level form put 60 of 305 outside theirs and
    # refused every order from 728 on
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(40):
        for n1 in [*range(301), 726, 1000, 1452, 1454, 1455]:
            got = coulomb_quadrature(n1, CFG)
            h = n1 // 2
            want = 0 if n1 % 2 else mp.sqrt(mp.mpf(4 ** (h + 1)) / ((2 * h + 1) ** 2 * math.comb(2 * h, h)))
            gap = float(abs(mp.mpc(got.value.real, got.value.imag) - want))
            assert gap <= got.err_estimate, n1
            worst = max(worst, gap / got.err_estimate if gap else 0.0)
    assert worst <= 0.5


def test_euler_beta():
    # the paper's claim: the divergence-free Coulomb value between two
    # fermions is an Euler beta value, B(n+1, 1/2) sqrt((2n-1)!!/(2n)!!).
    # coulomb_even rounds an exact integer ratio once and takes one square
    # root, so every order gets the same bound
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for n in range(200):
            want = mp.beta(n + 1, mp.mpf(1) / 2) * mp.sqrt(mp.fac2(2 * n - 1) / mp.fac2(2 * n))
            assert abs(coulomb_even(n) - want) <= 1e-14 * want, n


def test_coulomb_even_is_within_one_ulp_below_1000():
    # the exact integer ratio, rounded once, then one square root; the float
    # factorials it replaced printed 0.9428090415820632 at n = 1, where the
    # value rounds to ...634
    mp = pytest.importorskip("mpmath")
    assert coulomb_even(1) == 0.9428090415820634
    with mp.workdps(50):
        for n in range(1000):
            m = mp.mpf(n)
            want = mp.sqrt(4 ** (m + 1) / ((2 * m + 1) ** 2 * mp.binomial(2 * m, m)))
            got = coulomb_even(n)
            assert abs(got - want) <= math.ulp(got), n


def test_coulomb_even_large_orders_match_mpmath():
    # the exact integer ratio up to 999, its asymptotic series from 1000 on
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for n in (400, 999, 1000, 1001, 4321, 10 ** 5, 10 ** 7, 10 ** 12):
            m = mp.mpf(n)
            want = mp.sqrt(4 ** (m + 1) / ((2 * m + 1) ** 2 * mp.binomial(2 * m, m)))
            assert abs(coulomb_even(n) - want) <= 1e-15 * want, n


def test_continuum_potential_values():
    assert continuum_yukawa(1.0, 0.0, math.sqrt(4.0 * math.pi)) == pytest.approx(-1.0, rel=1e-15)
    assert continuum_yukawa(2.0, 1.0, 1.0) == pytest.approx(
        -math.exp(-2.0) / (8.0 * math.pi), rel=1e-14)
    with pytest.raises(DomainError):
        continuum_yukawa(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        continuum_yukawa_oracle(1.0, 0.0)


def test_continuum_oracle_agrees_with_closed_form():
    for r, mu in ((0.5, 1.0), (2.0, 0.25)):
        want = continuum_yukawa(r, mu, 1.0)
        assert continuum_yukawa_oracle(r, mu) == pytest.approx(want, rel=1e-9)


def test_difference_equation_residual_examples():
    assert difference_equation_residual((0, 0, 0), (0, 0, 0), 1.0, CFG) <= 1e-6
    assert difference_equation_residual((1, 1, 0), (0, 0, 0), 1.0, CFG) <= 1e-6
    assert difference_equation_residual((2, 0, 0), (2, 0, 0), 0.5, CFG) <= 1e-6


def test_residual_at_default_nodes_vanishes_at_small_mass():
    # the mu = 0.5 border case needed the wider rule while g_sharp was a
    # tensor quadrature; the axis table and the proper-time sums leave
    # rounding only
    assert difference_equation_residual((2, 0, 0), (2, 0, 0), 0.5, CFG) <= 1e-12


def test_w_sharp_examples_and_coupling():
    assert w_sharp(0, 0.0, CFG) == 2.0
    assert w_sharp(2, 0.0, CFG) == pytest.approx(coulomb_even(1), rel=1e-15)
    assert w_sharp(1, 0.0, CFG) == 0.0
    assert w_sharp(0, 1.0, CFG) == pytest.approx(COINCIDENCE_AT_1, abs=1e-12)
    with pytest.raises(DomainError):
        w_sharp(2, math.nan, CFG)


def test_clear_caches_is_idempotent_and_preserves_values():
    before = g_sharp((2, 1, 0), (0, 1, 0), 1.3, CFG).value
    clear_caches()
    clear_caches()
    after = g_sharp((2, 1, 0), (0, 1, 0), 1.3, CFG).value
    assert before == after


def test_coulomb_quadrature_matches_the_full_grid_sum():
    # the half-rule sum with the Gaussian split into its factors is the
    # full radius-angle grid sum of w_i wy_j phi_{n1}(x_i y_j) / sqrt(pi)
    for n1 in (0, 6, 20, 21):
        nodes = n1 // 2 + 1
        x, w = gauss_hermite(nodes)
        y, wy = gauss_legendre(nodes)
        grid = phi_row(n1, np.outer(x, y).ravel())[n1].reshape(nodes, nodes) * np.outer(w, wy)
        want = 1j ** (n1 % 4) * math.fsum(grid.ravel()) / math.sqrt(math.pi)
        scale = math.fsum(np.abs(grid).ravel()) / math.sqrt(math.pi)
        assert abs(coulomb_quadrature(n1, CFG).value - want) <= 1e-13 * scale, n1


def test_refinement_gate_trips_on_nan_defect():
    gate = 100.0 * CFG.tol
    with pytest.raises(NonconvergenceError, match="defect nan"):
        refined(lambda k: (1.0, math.nan)[k - 1], gate, "probe")
    with pytest.raises(NonconvergenceError):
        refined(lambda k: math.nan, gate, "probe")
    assert refined(lambda k: 1.0, gate, "probe") == (1.0, 0.0)


def test_refinement_gate_takes_the_largest_entry_defect():
    # a matrix value is gated on max |fine - coarse|; the estimate is that
    # maximum, and a NaN entry trips the gate like a NaN number
    coarse = np.array([[1.0, 2.0], [3.0, 4.0]])
    fine = coarse + np.array([[1e-9, -3e-9], [0.0, 2e-9]])
    value, err = refined(lambda k: (coarse, fine)[k - 1], 4e-9, "probe")
    assert value is fine and err == float(np.max(np.abs(fine - coarse)))
    with pytest.raises(NonconvergenceError):
        refined(lambda k: (coarse, fine)[k - 1], 2e-9, "probe")
    fine[0, 0] = math.nan
    with pytest.raises(NonconvergenceError, match="defect nan"):
        refined(lambda k: (coarse, fine)[k - 1], 1.0, "probe")


def test_coulomb_quadrature_keeps_one_row_in_memory():
    # the sum needs only phi_{n1 + 1} on the rule; a table of all rows of
    # the old 101 x 201 radius-angle grid would be 65 MB
    hermite_half(202)
    tracemalloc.start()
    try:
        coulomb_quadrature(400, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_cold_axis_factor_at_the_least_mass_works_in_blocks():
    # 3,117 lattice terms on 201 nodes: whole arrays of that shape peaked at
    # 21.7 MiB, blocks of lattice terms at under 3
    mu = 1e-300
    quadrature.pt_tail(mu, quadrature.PT_DEGREE_MAX)
    hermite_half(201)
    greens.clear_caches()
    tracemalloc.start()
    try:
        g_proper_time((400, 0, 0), (0, 0, 0), mu, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def _resting(mu):
    zero = (0.0, 0.0, 0.0)
    return MollerKinematics(zero, zero, zero, zero, m=1.0, mu=mu, g=1.0)


def test_overflowing_mass_square_is_a_domain_error():
    with pytest.raises(DomainError):
        g_sharp((0, 0, 0), (0, 0, 0), 1e300, CFG)
    with pytest.raises(DomainError):
        moller_reduced_element(_resting(1e300), VertexTruncation(8), CFG)
    with pytest.raises(DomainError):
        g_sharp((2, 0, 0), (0, 0, 0), math.inf, CFG)
    # the axis route stays finite there: the value underflows to 0, and
    # its bound to the underflow term 64 * 2^-1074
    assert g_sharp_axis(0, 1e300, CFG) == GreensValue(0j, 64 * 2.0 ** -1074)
    # just below the overflow of mu^2 the continued fraction is 1/mu^2
    mu = 1.3e154
    assert g_sharp_axis(0, mu, CFG).value.real == yukawa_coincidence(mu) == 1.0 / (mu * mu)
    assert g_sharp_axis(2, mu, CFG).value == 0.0


def test_numpy_scalar_mass_whose_square_overflows_raises_without_a_warning():
    # mu * mu of a numpy scalar warns where a float overflows silently
    mu = np.float64(1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: g_sharp((0, 0, 0), (0, 0, 0), mu, CFG),
                     lambda: g_proper_time((2, 0, 0), (0, 0, 0), mu, CFG),
                     lambda: moller_reduced_element(_resting(mu), VertexTruncation(8), CFG)):
            with pytest.raises(DomainError, match="finite"):
                call()


def test_continuum_rejects_non_finite_results_and_underflowing_mass():
    with pytest.raises(DomainError):
        continuum_yukawa(1.0, 1.0, 1e300)
    with pytest.raises(DomainError):
        continuum_yukawa(1e-320, 0.0, 1.0)
    assert math.isfinite(continuum_yukawa(1.0, 1.0, 1e150))
    for mu in (1e-300, -1.0, math.nan):
        with pytest.raises(DomainError):
            continuum_yukawa_oracle(1.0, mu)
    assert continuum_yukawa_oracle(1.0, 1e-100) == pytest.approx(
        continuum_yukawa(1.0, 0.0, 1.0), rel=1e-9)


def test_continuum_oracle_over_a_grid():
    # the double-exponential Fourier rule against -e^{-mu r}/(4 pi r): where
    # e^{-mu r} is tiny only an absolute bound is meaningful, the integral
    # being a sum of terms of order 1/(mu r)^2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in np.geomspace(1e-3, 50.0, 17):
            for mu in (1e-100, 1e-30, 1e-8, *np.geomspace(1e-4, 10.0, 21)):
                got = continuum_yukawa_oracle(float(r), float(mu))
                want = -math.exp(-mu * r) / (4.0 * math.pi * r)
                if mu * r <= 5.0:
                    assert abs(got - want) <= 1e-12 * abs(want), (r, mu)
                else:
                    assert abs(got - want) <= 1e-15, (r, mu)


def test_axis_values_match_mpmath_hyperu():
    # G((2j,0,0),(0,0,0); mu) = (sqrt((2j)!) / 2^j) U(j+1, 1/2, mu^2) for
    # even n1 = 2j <= 200 at 31 masses over [1e-6, 1e3], on both sides of
    # the forward/backward switch, wherever the value is a normal double;
    # the 30-digit references come from mpmath's hyperu (hyperu_pins.py)
    pins = json.loads(pathlib.Path(__file__).with_name("hyperu_pins.json").read_text("utf-8"))
    assert pins["digits"] == 30
    assert [mu for mu, _ in pins["pins"]] == [float(mu) for mu in np.logspace(-6, 3, 31)]
    worst_low = worst_ratio = worst_bound = 0.0
    for mu, column in pins["pins"]:
        assert len(column) == 101
        for j, text in enumerate(column):
            want = Fraction(text)
            got = g_sharp_axis(2 * j, mu, CFG)
            assert got.value.imag == 0.0
            if j == 0:
                assert got.value.real == yukawa_coincidence(mu)
            if want < sys.float_info.min:
                continue
            gap = float(abs(Fraction(got.value.real) - want))
            if j <= 20:
                worst_low = max(worst_low, gap / float(want))
            # the coincidence value (j = 0) too lies within its bound
            worst_ratio = max(worst_ratio, gap / got.err_estimate)
            worst_bound = max(worst_bound, got.err_estimate / got.value.real)
    assert worst_low <= 2e-14
    assert worst_ratio <= 1.0
    assert worst_bound <= 1e-12


def test_axis_tables_grow_by_doubling_and_agree():
    # an order past the default table asks for a table twice as large; its
    # entries agree with the smaller table's to rounding
    clear_caches()
    size = closed.AXIS_TABLE
    small = [g_sharp_axis(2 * j, 0.8, CFG) for j in range(size)]
    assert axis_table.cache_info().currsize == 1
    big = g_sharp_axis(2 * size, 0.8, CFG)
    assert axis_table.cache_info().currsize == 2 and big.err_estimate > 0.0
    for j, v in enumerate(small):
        again = axis_table(0.8, 2 * size)[j].value.real
        assert abs(again - v.value.real) <= v.err_estimate + 1e-15 * abs(again), j
    clear_caches()


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("axis_first", [True, False], ids=["axis-first", "origin-first"])
def test_axis_pairs_read_the_shared_table_entries(axis, axis_first):
    # n1 = 42 and 44 pass the default table, so a table of twice the size is
    # built; once both are, no call at that mass builds another
    clear_caches()
    mu = 0.6
    for rounds in range(2):
        for n1 in range(45):
            index = tuple(n1 if a == axis else 0 for a in range(3))
            pair = (index, (0, 0, 0)) if axis_first else ((0, 0, 0), index)
            want = g_sharp_axis(n1, mu, CFG)
            got = g_sharp(*pair, mu, CFG)
            assert (got.value, got.err_estimate) == (want.value, want.err_estimate), n1
            if n1 % 2 == 0:
                assert got is want, n1
        if rounds == 0:
            misses = axis_table.cache_info().misses
    assert axis_table.cache_info().misses == misses == 2
    clear_caches()


@pytest.mark.parametrize("axis", range(3))
def test_orders_in_the_default_table_skip_the_doubling(monkeypatch, axis):
    # n1 < 42 reads entry n1 / 2 of the default table straight: on every
    # axis route, in either order of the pair, with no other table built
    clear_caches()
    mu = 0.6
    table = axis_table(mu, closed.AXIS_TABLE)
    calls = axis_table.cache_info()
    for module in (closed, greens):
        monkeypatch.setattr(module, "axis_entries", None)
    for n1 in range(2 * closed.AXIS_TABLE):
        index = tuple(n1 if a == axis else 0 for a in range(3))
        routes = (g_sharp_axis(n1, mu, CFG), g_sharp(index, (0, 0, 0), mu, CFG),
                  g_sharp((0, 0, 0), index, mu, CFG))
        # an odd order is the exact zero, of its phase on g_sharp
        zeros = closed.PARITY_ZEROS
        wants = (zeros[0], zeros[n1 % 4], zeros[-n1 % 4]) if n1 % 2 else (table[n1 // 2],) * 3
        for got, want in zip(routes, wants):
            assert got is want, n1
        assert w_sharp(n1, mu, CFG) == routes[0].value.real
    after = axis_table.cache_info()
    assert after.currsize == calls.currsize == 1 and after.misses == calls.misses
    clear_caches()


@pytest.mark.parametrize("order, want", [(True, 1), (np.int64(4), 4), (2.0, 2), (2.5, None), (-1, None)],
                         ids=["bool", "numpy-int", "whole-float", "fraction", "negative"])
def test_axis_orders_of_other_types_take_the_full_check(order, want):
    # anything but a plain nonnegative int goes through errors.whole: the
    # value of the int it stands for, or its ValueError
    if want is None:
        message = f"order must be an integer >= 0, got {order!r}"
        for route in (g_sharp_axis, w_sharp):
            with pytest.raises(ValueError) as caught:
                route(order, 0.6, CFG)
            assert str(caught.value) == message
        return
    got = g_sharp_axis(order, 0.6, CFG)
    assert got is g_sharp_axis(want, 0.6, CFG)
    assert w_sharp(order, 0.6, CFG) == got.value.real


def _levels_twice_as_deep(x, count):
    # Miller's loop from the plain start e = x at twice the depth the
    # module picks for count, written out here as an independent reference
    size = max(count, closed.AXIS_TABLE)
    depth = 2 * (math.ceil((math.sqrt(size) + closed._CF_MARGIN / math.sqrt(x)) ** 2) + 2)
    e, out = x, []
    for k in range(depth, 0, -1):
        if k < count:
            out.append(k + 0.5 + e)
        e = x + k * e / (k + 0.5 + e)
    out.append(0.5 + e)
    return out[::-1]


@pytest.mark.parametrize("count", [1, 21, 42, 84, 168])
def test_miller_levels_hold_at_the_stated_margin(count):
    # the protocol behind _CF_MARGIN: from the drift-corrected start, every
    # level below count is within one ulp of a run twice as deep
    for mu in np.geomspace(0.2, 1e4, 20):
        x = float(mu) ** 2
        if x * count <= 1.0:
            continue
        got, want = closed._gamma_cf_levels(x, count), _levels_twice_as_deep(x, count)
        assert len(got) == len(want) == count
        for n, (a, b) in enumerate(zip(got, want)):
            assert abs(a - b) <= math.ulp(b), (float(mu), n)


def test_shared_values_are_frozen():
    # every caller at a mass gets the same instance, which is safe only
    # because no caller can change it
    value = g_sharp_axis(4, 0.6, CFG)
    assert g_sharp_axis(4, 0.6, CFG) is value
    for shared in (value, g_sharp_axis(3, 0.6, CFG), g_sharp((1, 0, 0), (0, 0, 0), 0.6, CFG)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.value = 1j
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.err_estimate = 1.0
    assert g_sharp_axis(4, 0.6, CFG) == value and g_sharp_axis(3, 0.6, CFG) == GreensValue(0j, 0.0)


def test_parity_zero_builds_nothing():
    clear_caches()
    asked = hermite_half.cache_info()
    for route in (g_sharp, g_proper_time):
        v = route((1, 2, 0), (0, 0, 3), 0.123456789, CFG)
        assert v == GreensValue(complex(1j * 0.0), 0.0)
    # no rule is asked for, not even a cached one
    assert hermite_half.cache_info()[:2] == asked[:2]
    assert axis_table.cache_info().currsize == 0
    clear_caches()


def test_parity_zero_checks_the_mass_first():
    for route in (g_sharp, g_proper_time):
        with pytest.raises(DomainError):
            route((1, 0, 0), (0, 0, 0), 1e300, CFG)
        with pytest.raises(DomainError):
            route((1, 0, 0), (0, 0, 0), 0.0, CFG)
        with pytest.raises(ValueError):
            route((1, 0), (0, 0, 0), 1e300, CFG)


def test_ball_constants_match_mpmath():
    # b0 = pi^1.5 mu e^{mu^2} Gamma(-1/2, mu^2) and b2 = (pi^1.5 - mu^2 b0)/3;
    # the subtraction in b2 cancels to about 1.5/mu^2 of pi^1.5, which the
    # 60-digit reference absorbs and the float form, read off the axis
    # table at every mass, must not meet
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(60):
        for mu in np.logspace(-3, 5, 65):
            m = mp.mpf(float(mu))
            b0 = mp.pi ** 1.5 * m * mp.exp(m * m) * mp.gammainc(-0.5, m * m)
            b2 = (mp.pi ** 1.5 - m * m * b0) / 3
            got0, got2 = _ball_exact(float(mu))
            worst = max(worst, float(abs(got0 - b0) / b0), float(abs(got2 - b2) / b2))
    assert worst <= 1e-15


def test_tensor_agrees_with_axis_at_large_mass():
    # the 3D proper-time sum against the axis route, where the pole
    # constants of the tensor route it replaced were 4.4e-15 off
    for mu in (3.1, 30.0, 100.0):
        for n1 in (0, 2, 4, 6):
            t = g_proper_time((n1, 0, 0), (0, 0, 0), mu, CFG)
            a = g_sharp_axis(n1, mu, CFG)
            floor = 8 * 2.0 ** -52 * abs(a.value)
            assert abs(t.value - a.value) <= t.err_estimate + a.err_estimate + floor, (mu, n1)


def test_tensor_values_lie_within_their_estimates():
    # axis pairs n1 <= 40 at 25 masses in [1e-3, 1e4] and six past them,
    # against mpmath's hyperu: every 3D proper-time value lies within its
    # err_estimate, and within one ulp-sized step of the axis value
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    masses = [float(mu) for mu in np.logspace(-3, 4, 25)] + [1e-300, 1e-30, 1e10, 1e30, 1e100, 1e150]
    with mp.workdps(30):
        for mu in masses:
            x = mp.mpf(mu) ** 2
            for n1 in range(0, 41, 2):
                j = n1 // 2
                want = mp.sqrt(mp.factorial(n1)) / 2 ** j * mp.hyperu(j + 1, 0.5, x)
                t = g_proper_time((n1, 0, 0), (0, 0, 0), mu, CFG)
                gap = float(abs(t.value.real - want))
                assert t.value.imag == 0.0 and gap <= t.err_estimate, (mu, n1)
                worst = max(worst, gap / t.err_estimate)
                a = g_sharp_axis(n1, mu, CFG)
                assert abs(t.value - a.value) <= t.err_estimate + a.err_estimate + math.ulp(a.value.real)
    assert worst <= 0.5


def test_clear_caches_empties_every_cache():
    g_proper_time((2, 0, 0), (0, 0, 0), 0.9, CFG)
    g_sharp((2, 1, 0), (0, 1, 2), 0.9, CFG)
    g_sharp_axis(4, 0.5, CFG)
    coulomb_quadrature(2, CFG)
    continuum_yukawa_oracle(1.0, 1.0)
    # the caches of the module and of the closed forms; the quadrature
    # rules it reads stay
    caches = [f for module in (closed, greens) for f in vars(module).values()
              if hasattr(f, "cache_info") and f.__module__ == module.__name__]
    assert axis_table in caches and greens._fourier_rule in caches and hermite_half not in caches
    assert greens._axis_laplace in caches and quadrature._pt_mass not in caches
    assert len(caches) >= 4
    assert all(f.cache_info().currsize > 0 for f in caches)
    rules, lattices = hermite_half.cache_info().currsize, quadrature._pt_mass.cache_info().currsize
    clear_caches()
    assert [f.cache_info().currsize for f in caches] == [0] * len(caches)
    assert hermite_half.cache_info().currsize == rules > 0
    assert quadrature._pt_mass.cache_info().currsize == lattices > 0


def _bits(v):
    # a GreensValue to the bit, signed zeros and the bound's type included
    return v.value.real.hex(), v.value.imag.hex(), float(v.err_estimate).hex(), type(v.err_estimate)


def test_g_sharp_does_not_depend_on_what_ran_before():
    # the proper-time lattice and its per-axis factors depend on the mass
    # and the axis' pair alone, so a value computed first in a clean
    # process equals, bit for bit, the value computed after other pairs ran
    # at this mass and at another, and after the pairs with each axis'
    # orders swapped filled the factor cache
    mu = 1.37
    pairs = (((2, 1, 0), (0, 1, 2)), ((8, 8, 8), (8, 8, 8)), ((40, 0, 0), (0, 20, 20)))
    clear_caches()
    first = [(_bits(g_sharp(*pair, mu, CFG)), _bits(g_proper_time(*pair, mu, CFG))) for pair in pairs]
    clear_caches()
    for other_mu in (0.77, mu):
        for other in (((0, 0, 0), (0, 0, 0)), ((6, 0, 0), (0, 0, 0)), ((4, 2, 2), (2, 0, 2)),
                      ((10, 8, 8), (8, 8, 6)), ((0, 1, 2), (2, 1, 0)), ((0, 20, 20), (40, 0, 0))):
            g_sharp(*other, other_mu, CFG)
            g_proper_time(*other, other_mu, CFG)
    assert [(_bits(g_sharp(*pair, mu, CFG)), _bits(g_proper_time(*pair, mu, CFG))) for pair in pairs] == first
    clear_caches()


def test_axis_tables_are_double_precision_whatever_the_mass_type():
    # a numpy float32 mass is the cache key of its float value too; the
    # table is built from float(mu), so whichever type comes first, every
    # caller at that mass gets the double-precision entries and bounds
    single = np.float32(0.77)
    clear_caches()
    want = [_bits(g_sharp_axis(n1, float(single), CFG)) for n1 in range(0, 41, 2)]
    clear_caches()
    for mu in (single, float(single), np.float64(single)):
        assert [_bits(g_sharp_axis(n1, mu, CFG)) for n1 in range(0, 41, 2)] == want, type(mu)
        assert _bits(g_sharp((0, 4, 0), (0, 0, 0), mu, CFG)) == want[2]
    clear_caches()


def _own_lattice_sum(n, nhat, mu):
    # the proper-time sum on the pair's own lattice, y in [mu^2, mu^2 + 2D
    # + 16], each axis' factor built for the pair: the route before the
    # per-mass caches, which hold the same floats at every node
    y_max = mu * mu + 2.0 * (sum(n) + sum(nhat)) + 16.0
    t, w = pt_lattice(mu, mu * mu, y_max)
    s = 1.0 / (1.0 + t)
    rows = []
    for p, q in zip(n, nhat):
        y, weights, _ = hermite_half((p + q) // 2 + 1)
        damped = np.exp(-np.outer(t * s, y * y)) * weights
        z = np.outer(np.sqrt(s), y)
        psi = phi_at((p, q), z, np.exp(-0.5 * z * z))
        rows.append((np.sqrt(s) * np.sum(psi[p] * psi[q] * damped, axis=1), np.sqrt(s) * np.sum(damped, axis=1)))
    value, ones = (w @ (rows[0][k] * rows[1][k] * rows[2][k]) for k in (0, 1))
    big_log = max(-math.log(max(mu * mu, 2.0 ** -1000)), math.log(y_max))
    err = float((2.0 ** -52 * (max(n + nhat) + 4 + 0.5 * big_log) + PT_ERROR) * ones)
    return GreensValue(complex(1j ** ((sum(n) - sum(nhat)) % 4) * value), err)


def test_proper_time_sums_on_the_pairs_own_lattice_bit_for_bit():
    # the per-mass lattice is cut for the largest order; a pair sums on its
    # own tail of it, so the cached factors change no bit of any value or
    # bound, on the call that builds them or on a later one, in either
    # order of the pair (which swaps each axis' orders)
    pairs = (((2, 1, 0), (0, 1, 2)), ((8, 8, 8), (8, 8, 8)), ((40, 0, 0), (0, 20, 20)),
             ((12, 0, 0), (0, 6, 6)), ((3, 1, 2), (1, 1, 0)), ((4, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 0, 0)))
    clear_caches()
    for mu in (1e-300, 1e-6, 1e-3, 0.5, 0.77, 1.0, 3.1, 30.0, 1e3, 1e150):
        for n, nhat in pairs:
            for pair in ((n, nhat), (nhat, n)):
                want = _bits(_own_lattice_sum(*pair, mu))
                assert [_bits(g_proper_time(*pair, mu, CFG)) for _ in range(2)] == [want] * 2, (pair, mu)
    clear_caches()


def test_a_warm_general_pair_builds_nothing():
    # after one pair at a mass, the pair and every pair made of the same
    # axis pairs, in either order, are three lookups: no miss in any cache
    clear_caches()
    quadrature._pt_mass.cache_clear()
    mu = 0.77
    g_sharp((2, 1, 0), (0, 1, 2), mu, CFG)
    caches = (quadrature._pt_mass, greens._axis_laplace, hermite_half, axis_table)
    misses = [c.cache_info().misses for c in caches]
    for pair in (((2, 1, 0), (0, 1, 2)), ((0, 1, 2), (2, 1, 0)), ((0, 1, 0), (2, 1, 2)), ((2, 1, 2), (0, 1, 0))):
        g_sharp(*pair, mu, CFG)
        g_proper_time(*pair, mu, CFG)
    assert [c.cache_info().misses for c in caches] == misses
    assert greens._axis_laplace.cache_info().currsize == 2 and quadrature._pt_mass.cache_info().currsize == 1
    clear_caches()


def test_cached_lattices_and_factors_are_read_only():
    clear_caches()
    g_proper_time((2, 1, 0), (0, 1, 2), 0.77, CFG)
    lattice = pt_tail(0.77, PT_DEGREE_MAX)
    tail = pt_tail(0.77, 6)
    arrays = [*lattice[:3], *tail[:3], greens._axis_laplace(0.77, 0, 2), greens._axis_laplace(0.77, 1, 1)]
    assert isinstance(lattice[3], float)
    # a tail is a view of the whole lattice, from the node its degree needs
    assert 0 < tail[0].size < lattice[0].size
    assert all(np.shares_memory(t, a) and np.array_equal(t, a[-t.size:]) for t, a in zip(tail[:3], lattice))
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    # the factors hold J and its ones row on the whole lattice
    assert all(a.shape == (2, lattice[0].size) for a in arrays[6:])
    clear_caches()


def _pair_routes():
    # each pair route with the messages of its two mass checks
    greens_mass = ("mu must be positive here (massless goes through coulomb paths), got {}",
                   "mu^2 must be finite for the proper-time sum, got mu = {}")
    spinor_mass = ("mass must be positive with a finite square, got {}",) * 2
    return {
        "g_sharp": (lambda n, nhat, mu: g_sharp(n, nhat, mu, CFG), greens_mass),
        "g_proper_time": (lambda n, nhat, mu: g_proper_time(n, nhat, mu, CFG), greens_mass),
        "s_plus_green": (lambda n, nhat, m: s_plus_green(n, nhat, 0.4, m, CFG), spinor_mass),
        "difference_equation_residual": (lambda n, nhat, mu: difference_equation_residual(n, nhat, mu, CFG),
                                         greens_mass),
    }


def _outcome_bits(result):
    if isinstance(result, GreensValue):
        return _bits(result)
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    # the residual is a numpy float where mu is one, as it always was
    return float(result).hex()


@pytest.mark.parametrize("route", ["g_sharp", "g_proper_time", "s_plus_green", "difference_equation_residual"])
def test_the_one_pass_check_changes_no_value(route):
    # indices given as lists, numpy ints, bools or whole floats, and masses
    # given as numpy floats, ints or a bool, take the full checks; each
    # gives the value of its plain form bit for bit, on the axis branch too
    call, _ = _pair_routes()[route]
    i64 = np.int64
    forms = {
        ((2, 1, 0), (0, 1, 2)): ([[2, 1, 0], (0, 1, 2)], [(2, 1, 0), [0, 1, 2]], [(2.0, 1, 0), (0, 1.0, 2)],
                                 [(i64(2), i64(1), i64(0)), (0, i64(1), 2)], [(2, True, 0), (0, 1, 2)]),
        ((2, 0, 0), (0, 0, 0)): ([[2, 0, 0], (0, 0, 0)], [(i64(2), 0, 0), (0, 0, 0)], [(2.0, 0, 0), (False, 0, 0)]),
        ((0, 0, 0), (0, 0, 2)): ([(0, 0, 0), [0, 0, 2]], [(0, 0, 0), (0, 0, i64(2))]),
        ((1, 0, 0), (1, 0, 0)): ([(True, 0, 0), (1, 0, 0)], [(1, 0, 0), (True, False, False)]),
    }
    for plain, odd in forms.items():
        for mu, plain_mu in ((0.77, 0.77), (np.float64(0.77), 0.77), (1, 1.0), (True, 1.0)):
            want = _outcome_bits(call(*plain, plain_mu))
            assert _outcome_bits(call(*plain, mu)) == want, (plain, mu)
            for n, nhat in odd:
                assert _outcome_bits(call(n, nhat, mu)) == want, (n, nhat, mu)


@pytest.mark.parametrize("route", ["g_sharp", "g_proper_time", "s_plus_green", "difference_equation_residual"])
def test_the_one_pass_check_changes_no_error(route):
    # a bad index raises before a bad mass, with the type and message of
    # the full checks (quadrature.index3, errors.whole), in either place of
    # the pair; a good pair at a bad mass raises the route's mass error
    call, (not_positive, not_finite) = _pair_routes()[route]
    component = "a grid index component must be an integer >= 0, got {}"
    length = "grid index needs three components, got {}"
    bad_indices = (
        ((2.5, 1, 0), ValueError, component.format(2.5)),
        ((-1, 1, 0), ValueError, component.format(-1)),
        ([2, -1, 0], ValueError, component.format(-1)),
        ((2, 1, None), ValueError, component.format(None)),
        ((2, 1), ValueError, length.format((2, 1))),
        ((2, 1, 0, 0), ValueError, length.format((2, 1, 0, 0))),
        ([2, 1], ValueError, length.format([2, 1])),
        (None, TypeError, "'NoneType' object is not iterable"),
    )
    bad_masses = ((0, not_positive.format(0)), (-1, not_positive.format(-1)), (-1.0, not_positive.format(-1.0)),
                  (math.nan, not_positive.format(math.nan)), (math.inf, not_finite.format(math.inf)),
                  (1e200, not_finite.format(1e200)), (np.float64(1e200), not_finite.format(np.float64(1e200))))
    good = (0, 1, 2)
    for index, kind, message in bad_indices:
        for mu in (0.77, 0, math.nan, math.inf, 1e200):
            for pair in ((index, good), (good, index)):
                with pytest.raises(kind) as info:
                    call(*pair, mu)
                assert type(info.value) is kind and str(info.value) == message, (pair, mu)
    for mu, message in bad_masses:
        for pair in ((good, (2, 1, 0)), ((2, 0, 0), (0, 0, 0)), ((1, 0, 0), (0, 0, 0)), ([2, 1, 0], good)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError) as info:
                    call(*pair, mu)
            assert str(info.value) == message, (pair, mu)


# every pair with components in 0..4, and one axis pair past the default table
_ROUTE_PAIRS = [(n[:3], n[3:]) for n in itertools.product(range(5), repeat=6)] + [((84, 0, 0), (0, 0, 0))]


def test_each_route_of_g_sharp_returns_what_it_always_did():
    # a parity zero is the shared PARITY_ZEROS entry of its phase, an axis
    # pair the shared axis-table entry, in the plain form and through the
    # full checks alike; a general pair is g_proper_time's value and bound
    # to the bit
    kinds = collections.Counter()
    for mu in (1e-3, 0.77, 1.0, 7.5, 1e3):
        for n, nhat in _ROUTE_PAIRS:
            got = g_sharp(n, nhat, mu, CFG)
            if any((a + b) % 2 for a, b in zip(n, nhat)):
                kinds["zero"] += 1
                want = closed.PARITY_ZEROS[(sum(n) - sum(nhat)) % 4]
            elif sum(map(bool, n + nhat)) <= 1:
                kinds["axis"] += 1
                j = (sum(n) + sum(nhat)) // 2
                want = closed.axis_entries(mu, j + 1)[j]
            else:
                kinds["general"] += 1
                assert _bits(got) == _bits(g_proper_time(n, nhat, mu, CFG)), (n, nhat, mu)
                assert _bits(g_sharp(list(n), nhat, mu, CFG)) == _bits(got), (n, nhat, mu)
                continue
            assert got is want, (n, nhat, mu)
            assert g_sharp(list(n), nhat, mu, CFG) is want, (n, nhat, mu)
    assert kinds == {"zero": 5 * 13428, "axis": 5 * 14, "general": 5 * 2184}


def test_a_general_pair_is_checked_once(monkeypatch):
    # the plain form passes g_sharp's own one-pass test and goes straight to
    # the sum; any other form takes _checked_pair's full checks, once
    calls = []
    checked = greens._checked_pair
    monkeypatch.setattr(greens, "_checked_pair", lambda *args: calls.append(args) or checked(*args))
    want = _bits(g_proper_time((2, 1, 0), (0, 1, 2), 0.77, CFG))
    assert len(calls) == 1
    assert _bits(g_sharp((2, 1, 0), (0, 1, 2), 0.77, CFG)) == want and len(calls) == 1
    assert _bits(g_sharp([2, 1, 0], (0, 1, 2), 0.77, CFG)) == want and len(calls) == 2
    assert _bits(g_sharp((2, 1, 0), (0, 1, 2), np.float64(0.77), CFG)) == want and len(calls) == 3


def test_proper_time_order_past_the_cap_names_the_pair():
    # an axis whose n_a + nhat_a needs a rule past 728 nodes is refused
    # before any lattice or rule is built, through either route
    caches = (hermite_half, quadrature._pt_mass, greens._axis_laplace)
    clear_caches()
    quadrature._pt_mass.cache_clear()
    before = [c.cache_info().currsize for c in caches]
    for n, nhat in (((1456, 0, 0), (0, 0, 0)), ((2, 0, 0), (0, 1500, 0)), ((1, 0, 1455), (1, 0, 1))):
        widest = max(a + b for a, b in zip(n, nhat))
        message = (f"Green's function at n={n}, nhat={nhat}: an axis of order {widest} needs "
                   f"{widest // 2 + 1} Gauss-Hermite nodes, at most 728")
        # g_sharp reads an axis pair from its table at any order
        for route in (g_sharp, g_proper_time)[sum(map(bool, n + nhat)) <= 1:]:
            with pytest.raises(OrderTooLargeError) as info:
                route(n, nhat, 1.0, CFG)
            assert str(info.value) == message
    assert [c.cache_info().currsize for c in caches] == before


def test_origin_rows_are_the_taylor_data_of_the_basis():
    # the columns phi_n(0), phi_n'(0) and phi_n''(0), from which the pole
    # models of the grid route's green_contract take their Taylor data,
    # against central differences of phi_n
    h = 1e-3
    grid_route.origin_rows.cache_clear()
    rows = grid_route.origin_rows(16)
    assert rows.shape == (17, 3) and not rows.flags.writeable
    around = phi_row(16, np.array([-h, 0.0, h]))
    assert np.array_equal(rows[:, 0], around[:, 1])
    assert np.allclose(rows[:, 1], (around[:, 2] - around[:, 0]) / (2.0 * h), rtol=1e-5, atol=1e-12)
    second = (around[:, 2] - 2.0 * around[:, 1] + around[:, 0]) / (h * h)
    assert np.allclose(rows[:, 2], second, rtol=1e-5, atol=1e-9)
    assert grid_route.origin_rows.cache_info().currsize == 1
    grid_route.origin_rows.cache_clear()
    assert grid_route.origin_rows.cache_info().currsize == 0


@pytest.mark.parametrize("axis", (0, 1, 2))
@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_green_contract_shows_a_non_finite_far_node(axis, bad):
    # the far node, where e^{-t x^2} underflows to 0 for most rule terms
    _, w = gauss_hermite(128)
    vectors = [w.copy(), w.copy(), w.copy()]
    vectors[axis][-1] = bad
    with np.errstate(invalid="ignore"):
        got = green_contract(*vectors, 1.0, 0.0, 0.7, 128)
    assert not np.isfinite(got[0])
