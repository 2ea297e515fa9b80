import math

import numpy as np
import pytest

from hermgrid.errors import OrderTooLargeError
from hermgrid.hermite import (
    hermite_poly,
    phi,
    phi_row,
    xi,
    xi_axis,
    xi_delta_sharp,
)

PI4 = math.pi ** 0.25


def test_hermite_poly_small_orders_exact():
    assert hermite_poly(0, 0.7) == 1.0
    assert hermite_poly(1, 0.7) == 1.4
    assert hermite_poly(2, 1.0) == 2.0


def test_hermite_poly_order_cap():
    hermite_poly(30, 0.3)
    with pytest.raises(OrderTooLargeError):
        hermite_poly(31, 0.3)
    with pytest.raises(ValueError):
        hermite_poly(-1, 0.3)


def test_xi_origin_and_first_order():
    assert xi(0, 0.0) == pytest.approx(1.0 / PI4, rel=1e-15)
    v = xi(1, 1.0)
    assert v.real == 0.0
    assert v.imag == pytest.approx(math.sqrt(2.0) * math.exp(-0.5) / PI4, rel=1e-14)


def test_xi_matches_direct_polynomial_form():
    # recurrence route against i^n e^{-k^2/2} H_n(k) / (pi^{1/4} 2^{n/2} sqrt(n!))
    for n in range(0, 12):
        for k in (-2.3, -0.4, 0.0, 0.9, 3.1):
            direct = (1j ** n) * math.exp(-0.5 * k * k) * hermite_poly(n, k) \
                / (PI4 * 2.0 ** (n / 2.0) * math.sqrt(math.factorial(n)))
            assert xi(n, k) == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_xi_axis_consistent_with_scalar():
    k = 0.37
    row = xi_axis(12, k)
    assert row.shape == (13,)
    for n in range(13):
        assert row[n] == pytest.approx(xi(n, k), rel=1e-13, abs=1e-15)


def test_xi_reflection_is_conjugation():
    for n in range(9):
        for k in (0.2, 1.7, 4.0):
            assert xi(n, -k) == pytest.approx(np.conj(xi(n, k)), rel=1e-13, abs=1e-15)


def test_xi_delta_sharp_eigen_relation():
    # -i times the weighted index difference collapses to k xi_n(k)
    for n in (0, 1, 5, 12, 40):
        for k in (-3.0, 0.0, 0.25, 2.2):
            assert xi_delta_sharp(n, k) == pytest.approx(k * xi(n, k),
                                                         rel=1e-12, abs=1e-14)


def test_phi_at_zero_values_and_recurrence():
    # the pole models read phi_n(0) off phi_row; at 0 the recurrence is
    # phi_{j+1}(0) = -sqrt(j/(j+1)) phi_{j-1}(0), zero at odd orders
    z = phi_row(16, np.array([0.0]))[:, 0]
    assert z[0] == 1.0
    assert z[1] == 0.0
    assert z[2] == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)
    val = 1.0
    for n in range(2, 17, 2):
        val *= -math.sqrt((n - 1) / float(n))
        assert z[n] == pytest.approx(val, rel=1e-13, abs=1e-15)
        assert z[n - 1] == 0.0


def test_phi_is_the_last_row_of_phi_row():
    x = np.linspace(-6.0, 6.0, 35).reshape(5, 7)
    for n in (0, 1, 2, 17, 60):
        got = phi(n, x)
        assert got.shape == x.shape
        assert np.array_equal(got, phi_row(n, x.ravel())[n].reshape(x.shape))


def test_phi_row_matches_polynomial_normalization():
    x = np.array([-1.4, 0.0, 0.6, 2.0])
    row = phi_row(10, x)
    for n in range(11):
        scale = 2.0 ** (n / 2.0) * math.sqrt(math.factorial(n))
        for j, xv in enumerate(x):
            assert row[n, j] == pytest.approx(hermite_poly(n, float(xv)) / scale,
                                              rel=1e-12, abs=1e-14)


def test_xi_amplitude_bound():
    # normalized oscillator amplitudes never exceed the ground-state peak scale
    ks = np.linspace(-50.0, 50.0, 401)
    for n in (0, 1, 7, 33, 60, 200):
        vals = np.exp(-0.5 * ks * ks) * phi_row(n, ks)[n] / PI4
        assert np.max(np.abs(vals)) <= 1.0


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        xi(-1, 0.0)
    with pytest.raises(ValueError):
        phi(-2, 0.0)
