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
from hermgrid import MollerKinematics, VertexTruncation, greens, moller_reduced_element
from hermgrid.dirac import s_plus_green
from hermgrid.errors import DomainError, NonconvergenceError, OrderTooLargeError
from hermgrid.greens import (
    GreensValue,
    _axis_table,
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
from hermgrid.hermite import phi_row
from hermgrid.quadrature import (
    QuadratureConfig,
    gauss_hermite,
    gauss_legendre,
    hermite_half,
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
    # one product rule of n1 // 2 + 1 nodes on each axis, exact for the
    # degree-n1 integrand, evaluated once: no second level and no floor of
    # 64 nodes (with 64 and 128 the old two-level form failed at order 200)
    asked = []
    for name in ("hermite_half", "gauss_legendre"):
        rule = getattr(greens, name)
        monkeypatch.setattr(greens, name, lambda n, rule=rule, name=name: asked.append((name, n)) or rule(n))
    for n1 in (0, 3, 126, 200, 400):
        asked.clear()
        got = coulomb_quadrature(n1, CFG)
        assert asked == [("hermite_half", n1 // 2 + 1), ("gauss_legendre", n1 // 2 + 1)], n1
        want = coulomb_even(n1 // 2) if n1 % 2 == 0 else 0.0
        assert 0.0 < got.err_estimate <= 1e-13 and abs(got.value - want) <= got.err_estimate, n1


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
        for n1 in [*range(301), 726, 1454]:
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
    # the sum needs only phi_{n1} over the grid; a table of all n1 + 1 rows
    # at its 101 x 201 points would be 65 MB
    hermite_half(201)
    gauss_legendre(201)
    tracemalloc.start()
    try:
        coulomb_quadrature(400, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


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
    size = greens._AXIS_TABLE
    small = [g_sharp_axis(2 * j, 0.8, CFG) for j in range(size)]
    assert _axis_table.cache_info().currsize == 1
    big = g_sharp_axis(2 * size, 0.8, CFG)
    assert _axis_table.cache_info().currsize == 2 and big.err_estimate > 0.0
    for j, v in enumerate(small):
        again = _axis_table(0.8, 2 * size)[j]
        assert abs(again - v.value.real) <= v.err_estimate + 1e-15 * abs(again), j
    clear_caches()


def test_parity_zero_builds_nothing():
    clear_caches()
    asked = hermite_half.cache_info()
    for route in (g_sharp, g_proper_time):
        v = route((1, 2, 0), (0, 0, 3), 0.123456789, CFG)
        assert v == GreensValue(complex(1j * 0.0), 0.0)
    # no rule is asked for, not even a cached one
    assert hermite_half.cache_info()[:2] == asked[:2]
    assert _axis_table.cache_info().currsize == 0
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
    # the module's own caches; the quadrature rules it reads stay
    caches = [f for f in vars(greens).values()
              if hasattr(f, "cache_info") and f.__module__ == greens.__name__]
    assert _axis_table in caches and greens._fourier_rule in caches and hermite_half not in caches
    assert len(caches) >= 3
    assert all(f.cache_info().currsize > 0 for f in caches)
    rules = hermite_half.cache_info().currsize
    clear_caches()
    assert [f.cache_info().currsize for f in caches] == [0] * len(caches)
    assert hermite_half.cache_info().currsize == rules > 0


def test_g_sharp_does_not_depend_on_what_ran_before():
    # the proper-time lattice depends on the mass and the pair alone, so a
    # value computed first in a clean process equals the value computed
    # after other pairs at the same mass have run
    mu = 1.37
    pairs = (((2, 1, 0), (0, 1, 2)), ((8, 8, 8), (8, 8, 8)))
    clear_caches()
    first = [(g_sharp(*pair, mu, CFG), g_proper_time(*pair, mu, CFG)) for pair in pairs]
    clear_caches()
    for other in (((0, 0, 0), (0, 0, 0)), ((6, 0, 0), (0, 0, 0)), ((4, 2, 2), (2, 0, 2)),
                  ((10, 8, 8), (8, 8, 6))):
        g_sharp(*other, mu, CFG)
        g_proper_time(*other, mu, CFG)
    assert [(g_sharp(*pair, mu, CFG), g_proper_time(*pair, mu, CFG)) for pair in pairs] == first
    clear_caches()


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
