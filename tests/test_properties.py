"""Property-based sweeps over the algebraic identities.

Fixed-point values live in the per-module files; these tests let the search
engine pick the inputs.  derandomize keeps runs reproducible, and every
property is an exact identity or a bound with headroom, so there is nothing
for shrinking to get confused about.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from hermgrid import dirac
from hermgrid.greens import continuum_yukawa
from hermgrid.hermite import xi, xi_delta_sharp

settings.register_profile("pkg", derandomize=True, max_examples=200, deadline=None)
settings.load_profile("pkg")

finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.integers(0, 60), st.floats(-8.0, 8.0))
def test_xi_parity(n, k):
    assert abs(xi(n, -k) - (-1.0) ** n * xi(n, k)) <= 1e-14


@given(st.integers(0, 150), st.floats(-20.0, 20.0))
def test_xi_amplitude_bound(n, k):
    assert abs(xi(n, k)) <= 1.0 + 1e-12


@given(st.integers(0, 80), st.floats(-8.0, 8.0))
def test_xi_weighted_difference_eigen_relation(n, k):
    assert abs(xi_delta_sharp(n, k) - k * xi(n, k)) / (1.0 + abs(k)) <= 1e-12


@given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.floats(0.1, 10.0))
def test_dirac_energy_floor_and_orthonormality(px, py, pz, m):
    p = (px, py, pz)
    assert dirac.energy(p, m) >= m
    assert dirac.orthonormality_check(p, m) <= 1e-10


@given(st.floats(0.05, 10.0), st.floats(0.0, 5.0), st.floats(-10.0, 10.0))
def test_continuum_yukawa_coupling_is_quadratic(r, mu, g):
    # rounding order differs between the two spellings, so ulp-level slack
    base = continuum_yukawa(r, mu, 1.0)
    assert math.isclose(continuum_yukawa(r, mu, g), g * g * base, rel_tol=1e-14)


@given(st.floats(0.05, 8.0), st.floats(0.0, 4.0))
def test_continuum_yukawa_is_negative_and_mass_damped(r, mu):
    massless = continuum_yukawa(r, 0.0, 1.0)
    massive = continuum_yukawa(r, mu, 1.0)
    assert massive < 0.0
    assert massless <= massive
    assert massive == massless or mu > 0.0


@given(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
def test_np_xi_matches_scalar(na, k):
    # float inputs through the array front end agree with the scalar path
    n = int(abs(na)) % 7
    arr = np.array([k])
    assert xi(n, float(arr[0])) == xi(n, k)
