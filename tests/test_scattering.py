"""Vertex sums and the reduced exchange element.

The element values themselves are pinned against the independent
sum-vertices-first oracle in test_checks.py and the acceptance suite; here
the focus is the algebraic structure: completeness of the truncated sums
under smearing, symmetry and scaling laws, and the truncation diagnostics.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hermgrid.checks import moller_oracle_element
from hermgrid import greens, quadrature, scattering
from hermgrid.errors import DomainError, OrderTooLargeError, TruncationWarning
from hermgrid.hermite import xi
from hermgrid.quadrature import QuadratureConfig, gauss_hermite
from hermgrid.scattering import (
    MollerKinematics,
    VertexTruncation,
    _chebyshev,
    _profiles,
    continuum_moller_reduced,
    moller_element_and_shift,
    moller_reduced_element,
    vertex_axis_sum,
)

CFG = QuadratureConfig(tol=1e6)

KIN = MollerKinematics(
    (0.15, 0.05, -0.1), (-0.12, 0.08, 0.06),
    (0.1, 0.1, -0.08), (-0.07, 0.03, 0.04),
    m=1.0, mu=0.5, g=1.0,
)


def test_vertex_truncation_validation():
    assert VertexTruncation(1).n_max == 1
    assert VertexTruncation(7.0).n_max == 7
    with pytest.raises(ValueError):
        VertexTruncation(0)
    with pytest.raises(ValueError):
        VertexTruncation(1.5)


def test_vertex_axis_sum_sign_validation():
    tr = VertexTruncation(4)
    with pytest.raises(ValueError):
        vertex_axis_sum(0.1, 0.2, 0.3, 0, 1, tr)
    with pytest.raises(ValueError):
        vertex_axis_sum(0.1, 0.2, 0.3, 1, 2, tr)


def test_vertex_axis_sum_rejects_a_nan_momentum():
    # each of its three momenta; an infinite one contributes exact zeros
    tr = VertexTruncation(4)
    for args in ((math.nan, 0.2, 0.3), (0.1, math.nan, 0.3), (0.1, 0.2, math.nan)):
        with pytest.raises(DomainError, match="NaN"):
            vertex_axis_sum(*args, -1, 1, tr)
    assert vertex_axis_sum(math.inf, 0.2, 0.3, 1, 1, tr) == 0
    assert vertex_axis_sum(0.1, -math.inf, 0.3, 1, -1, tr) == 0


def test_vertex_sums_leave_their_truncation_alone():
    # the truncation is frozen: the vertex sum, the oracle built on it and
    # the exchange element read it, and the element's shift comes back by
    # return
    tr = VertexTruncation(5)
    vertex_axis_sum(0.4, 0.2, -0.3, -1, 1, tr)
    moller_oracle_element(KIN, tr)
    moller_element_and_shift(KIN, tr, CFG)
    assert tr == VertexTruncation(5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tr.n_max = 6


def test_vertex_sum_smeared_completeness():
    # smearing the truncated sum against a low-order basis combination
    # projects out exactly that combination once n_max covers it; the
    # Gauss-Hermite rule integrates the polynomial-times-Gaussian product
    # exactly, so only rounding remains
    p, c0, c2 = 0.3, 0.7, -0.4
    tr = VertexTruncation(8)
    x, w = gauss_hermite(32)
    vals = np.array([vertex_axis_sum(p, p, float(k), -1, -1, tr) for k in x])
    f = (c0 * np.array([xi(0, float(k)) for k in x])
         + c2 * np.array([xi(2, float(k)) for k in x]))
    smeared = complex(np.sum(w * np.exp(x * x) * vals * f))
    target = c0 * abs(xi(0, p)) ** 2 + c2 * abs(xi(2, p)) ** 2
    assert abs(smeared - target) <= 1e-15


def test_vertex_sum_partial_sums_grow():
    # the untruncated sum is distributional: pointwise the partial sums
    # grow like a small power of the cutoff instead of settling
    mags = {}
    for n in (256, 512, 1024):
        tr = VertexTruncation(n)
        mags[n] = abs(vertex_axis_sum(0.0, 0.0, 0.0, 1, 1, tr))
    r1 = math.log2(mags[512] / mags[256])
    r2 = math.log2(mags[1024] / mags[512])
    assert 0.24 <= r1 <= 0.31
    assert 0.24 <= r2 <= 0.31


def test_kinematics_validation():
    with pytest.raises(ValueError):
        MollerKinematics((1, 2), KIN.p2, KIN.p1_out, KIN.p2_out, m=1.0, mu=0.5, g=1.0)
    with pytest.raises(ValueError):
        MollerKinematics(KIN.p1, KIN.p2, KIN.p1_out, KIN.p2_out, m=0.0, mu=0.5, g=1.0)
    with pytest.raises(ValueError):
        MollerKinematics(KIN.p1, KIN.p2, KIN.p1_out, KIN.p2_out, m=1.0, mu=-0.1, g=1.0)
    with pytest.raises(ValueError):
        MollerKinematics(KIN.p1, KIN.p2, KIN.p1_out, KIN.p2_out, m=1.0, mu=0.5, g=1.0, r1=3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kinematics_reject_non_finite_fields(bad):
    fields = dict(p1=KIN.p1, p2=KIN.p2, p1_out=KIN.p1_out, p2_out=KIN.p2_out, m=1.0, mu=0.5, g=1.0)
    for name in ("p1", "p2", "p1_out", "p2_out"):
        with pytest.raises(ValueError):
            MollerKinematics(**{**fields, name: (0.1, bad, 0.0)})
    for name in ("m", "mu", "g"):
        with pytest.raises(ValueError):
            MollerKinematics(**{**fields, name: bad})


def test_kinematics_properties():
    kin = MollerKinematics((0.3, 0, 0), (0, 0.4, 0), (0, 0, 0), (0.3, 0.4, 0),
                           m=1.0, mu=1.0, g=2.0)
    e1, e2, e1o, e2o = kin.energies
    assert e1 == pytest.approx(math.sqrt(1.09), rel=1e-15)
    assert e2 == pytest.approx(math.sqrt(1.16), rel=1e-15)
    assert e1o == 1.0
    assert e2o == pytest.approx(math.sqrt(1.25), rel=1e-15)
    assert kin.conservation_defect == pytest.approx(abs(e1o + e2o - e1 - e2), rel=1e-15)
    assert kin.momentum_defect == 0.0
    assert not kin.low_momentum_ok
    assert KIN.low_momentum_ok
    # |p| = 1e200 is far below m / 5 at m = 1e300, though p.p overflows
    far = (1e200, 0.0, 0.0)
    assert MollerKinematics(far, far, far, far, m=1e300, mu=1.0, g=1.0).low_momentum_ok
    assert kin.prefactor == pytest.approx(
        (4.0 / (4.0 * math.pi)) / math.sqrt(e1 * e2 * e1o * e2o), rel=1e-15)


def test_element_zero_on_spin_mismatch():
    kin = MollerKinematics(KIN.p1, KIN.p2, KIN.p1_out, KIN.p2_out,
                           m=1.0, mu=0.5, g=1.0, r1=1, r1_out=2)
    assert moller_reduced_element(kin, VertexTruncation(16), CFG) == 0j


def test_element_needs_positive_mu():
    kin = MollerKinematics(KIN.p1, KIN.p2, KIN.p1_out, KIN.p2_out,
                           m=1.0, mu=0.0, g=1.0)
    with pytest.raises(DomainError):
        moller_reduced_element(kin, VertexTruncation(16), CFG)


def test_element_coupling_scaling():
    kin2 = MollerKinematics(KIN.p1, KIN.p2, KIN.p1_out, KIN.p2_out,
                            m=1.0, mu=0.5, g=2.0)
    e1 = moller_reduced_element(KIN, VertexTruncation(16), CFG)
    e2 = moller_reduced_element(kin2, VertexTruncation(16), CFG)
    assert e2 == pytest.approx(4.0 * e1, rel=1e-14)


def test_element_exchange_symmetry():
    # swapping the two fermion lines swaps the two coefficient families
    # around a symmetric kernel
    kin_x = MollerKinematics(KIN.p2, KIN.p1, KIN.p2_out, KIN.p1_out,
                             m=1.0, mu=0.5, g=1.0)
    e = moller_reduced_element(KIN, VertexTruncation(16), CFG)
    ex = moller_reduced_element(kin_x, VertexTruncation(16), CFG)
    assert abs(ex - e) <= 1e-16


def test_truncation_warning_and_report():
    tr = VertexTruncation(4)
    with pytest.warns(TruncationWarning) as record:
        value = moller_reduced_element(KIN, tr, QuadratureConfig())
    # the warning points at the direct caller of either public function
    assert record[0].filename == __file__
    with pytest.warns(TruncationWarning) as record:
        element, shift = moller_element_and_shift(KIN, tr, QuadratureConfig())
    assert record[0].filename == __file__
    assert element == value
    assert shift == pytest.approx(4.046e-3, rel=1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moller_reduced_element(KIN, VertexTruncation(4), CFG)


def test_continuum_element():
    kz = MollerKinematics((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
                          m=1.0, mu=1.0, g=1.0)
    # zero transfer at mu = 1: the propagator factor is 1 and the value is
    # the bare prefactor, 1 / 4 pi
    assert continuum_moller_reduced(kz) == kz.prefactor
    assert kz.prefactor == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)
    kz0 = MollerKinematics((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
                           m=1.0, mu=0.0, g=1.0)
    with pytest.raises(DomainError):
        continuum_moller_reduced(kz0)


def test_continuum_element_at_large_momenta():
    # E1 = E1' = 1e200 at zero transfer: the prefactor (1 / 4 pi) m^2 /
    # sqrt(E1 E1') is 1e-200 / 4 pi, not 0; no energy or product overflows
    far = (1e200, 0.0, 0.0)
    kin = MollerKinematics(far, (0, 0, 0), far, (0, 0, 0), m=1.0, mu=1.0, g=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kin.energies == (1e200, 1.0, 1e200, 1.0)
        value = continuum_moller_reduced(kin)
    assert value.real == pytest.approx(1e-200 / (4.0 * math.pi), rel=1e-15) and value.imag == 0.0


def test_element_at_rest_is_the_same_at_a_huge_fermion_mass():
    # at rest every E is m, so the prefactor is g^2 / 4 pi whatever m is,
    # and no m^2 forms on the way: m = 1e300 gives m = 1's bits
    zero = (0.0, 0.0, 0.0)
    light, heavy = (MollerKinematics(zero, zero, zero, zero, m=m, mu=0.5, g=1.5) for m in (1.0, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert light.prefactor == heavy.prefactor == 1.5 * 1.5 / (4.0 * math.pi)
        want = moller_reduced_element(light, VertexTruncation(8), CFG)
        got = moller_reduced_element(heavy, VertexTruncation(8), CFG)
    assert got.real.hex() == want.real.hex() and got.imag.hex() == want.imag.hex()


def _element(kin, n_max, cfg=CFG):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return moller_element_and_shift(kin, VertexTruncation(n_max), cfg)


def _at(kin, **changes):
    fields = dict(p1=kin.p1, p2=kin.p2, p1_out=kin.p1_out, p2_out=kin.p2_out,
                  m=kin.m, mu=kin.mu, g=kin.g)
    return MollerKinematics(**{**fields, **changes})


@pytest.mark.parametrize("n_max", [32, 64])
def test_element_from_cached_profiles_is_bit_identical(n_max):
    # the second mass reads the profiles the first one built; a fresh build
    # at that mass must give the same bits, truncation shift included
    cfg = QuadratureConfig()
    _profiles.cache_clear()
    _element(KIN, n_max, cfg)
    hits = _profiles.cache_info().hits
    cached = _element(_at(KIN, mu=2.0), n_max, cfg)
    assert _profiles.cache_info().hits == hits + 1
    _profiles.cache_clear()
    fresh = _element(_at(KIN, mu=2.0), n_max, cfg)
    assert _profiles.cache_info().misses == 1
    assert cached == fresh
    assert cached[0].real.hex() == fresh[0].real.hex()
    assert cached[1].hex() == fresh[1].hex()


def test_profiles_ignore_mass_coupling_fermion_mass_and_spins():
    _profiles.cache_clear()
    _element(KIN, 8)
    for kin in (_at(KIN, mu=1.7), _at(KIN, g=0.3), _at(KIN, m=2.0),
                MollerKinematics(KIN.p1, KIN.p2, KIN.p1_out, KIN.p2_out, m=1.0, mu=0.5, g=1.0,
                                 r1=2, r2=2, r1_out=2, r2_out=2)):
        _element(kin, 8)
    info = _profiles.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 4, 1)
    # a different cutoff or momentum is another entry; the config is not
    # part of the key
    _element(KIN, 9)
    _element(KIN, 8, QuadratureConfig(tol=1e-3))
    _element(_at(KIN, p1=(0.15, 0.05, -0.11)), 8)
    assert _profiles.cache_info().misses == 3


def test_spin_mismatch_and_massless_boson_build_no_profiles():
    _profiles.cache_clear()
    mismatch = MollerKinematics(KIN.p1, KIN.p2, KIN.p1_out, KIN.p2_out,
                                m=1.0, mu=0.5, g=1.0, r2=2, r2_out=1)
    assert moller_reduced_element(mismatch, VertexTruncation(16), CFG) == 0j
    with pytest.raises(DomainError):
        moller_reduced_element(_at(KIN, mu=0.0), VertexTruncation(16), CFG)
    info = _profiles.cache_info()
    assert (info.misses, info.hits, info.currsize) == (0, 0, 0)


def test_cached_profiles_are_read_only_and_bounded():
    _profiles.cache_clear()
    q = _profiles(KIN.p1 + KIN.p2 + KIN.p1_out + KIN.p2_out, 8)
    assert q.shape == (6, 9)
    assert not q.flags.writeable
    with pytest.raises(ValueError):
        q[...] = 0.0
    bound = _profiles.cache_info().maxsize
    for i in range(bound + 10):
        _profiles((0.001 * i,) + (0.0,) * 11, 1)
    assert _profiles.cache_info().currsize == bound
    # at the largest cutoff the element accepts a full cache holds under 1 MB
    assert bound * q.nbytes // 9 * (scattering._ELEMENT_N_MAX + 1) <= 1e6
    _profiles.cache_clear()


# momenta large enough that every order n <= 3 weighs in
LOW = MollerKinematics((0.3, -0.2, 0.35), (-0.25, 0.1, 0.4),
                       (0.45, 0.05, -0.2), (-0.1, -0.4, 0.3), m=1.0, mu=1.0, g=1.0)


def test_profiles_are_the_vertex_sum_products():
    # per axis, Re(L R)(x) is Re(v1 v2) e^{x^2} sqrt(pi) with v1, v2 the
    # truncated vertex sums of the two lines at k = x; row a of the
    # profiles holds pi^{-1/2} integral Re(L R)(y sqrt(s)) e^{-y^2} dy at
    # each Chebyshev point s, row 3 + a the same with the top shell
    # dropped, here by a 24-node rule (exact to degree 47)
    kin = LOW
    x, w = gauss_hermite(24)

    def product(a, n_max, k):
        tr = VertexTruncation(n_max)
        v1 = vertex_axis_sum(kin.p1[a], kin.p1_out[a], k, -1, 1, tr)
        v2 = vertex_axis_sum(kin.p2[a], kin.p2_out[a], k, -1, -1, tr)
        return (v1 * v2).real * math.exp(k * k) * math.sqrt(math.pi)

    for n_max in (1, 2, 3):
        q = _profiles(kin.p1 + kin.p2 + kin.p1_out + kin.p2_out, n_max)
        # the dropped-shell profile of n_max = 1 would be VertexTruncation(0)
        for t, cut in enumerate((n_max, n_max - 1) if n_max > 1 else (n_max,)):
            for a in range(3):
                want = np.array([w @ [product(a, cut, float(k * math.sqrt(s))) for k in x]
                                 for s in _chebyshev(n_max)]) / math.sqrt(math.pi)
                assert np.allclose(q[3 * t + a], want, rtol=1e-13, atol=1e-15 * abs(want).max())


@pytest.mark.parametrize("mu", [1.0, 2.0])
def test_element_matches_the_oracle_at_low_cutoffs(mu):
    # n_max = 1, 2, 3 reach every phase class i^n, n mod 4, and drop a top
    # shell that is odd (n_max = 3) and one that is even (n_max = 2); the
    # oracle sums the vertices first and shares no profile code
    cfg = QuadratureConfig()
    kin = _at(LOW, mu=mu)
    oracle = {n: moller_oracle_element(kin, VertexTruncation(n)) for n in (1, 2, 3)}
    for n_max in (1, 2, 3):
        value, shift = _element(kin, n_max, cfg)
        assert value.imag == 0.0
        assert abs(value - oracle[n_max]) <= 1e-9 * abs(oracle[n_max])
        if n_max > 1:
            want = abs(oracle[n_max] - oracle[n_max - 1])
            assert want > 1e-3 * abs(oracle[n_max])
            assert abs(shift - want) <= 1e-9 * abs(oracle[n_max])


def _hermite_coefficients(n_max):
    """Integer power coefficients of H_0 .. H_n_max, lowest power first."""
    rows = [[1], [0, 2]]
    for n in range(1, n_max):
        row = [0] + [2 * c for c in rows[n]]
        for i, c in enumerate(rows[n - 1]):
            row[i] -= 2 * n * c
        rows.append(row)
    return rows[:n_max + 1]


def _mpmath_element(kin, n_max, dps=90):
    """The element and its truncation shift from the proper-time integral
    prefactor * int_0^inf dt e^{-t mu^2} prod_a int (v1 v2)_a(k) e^{-t k^2} dk
    at dps digits, with v1, v2 the truncated vertex sums: exact Hermite
    coefficients, Gaussian moments Gamma(j + 1/2) s^{j + 1/2}, s = 1/(1+t),
    and int_0^inf e^{-t mu^2} s^{j + 3/2} dt = U(1, 1/2 - j, mu^2)."""
    mp = pytest.importorskip("mpmath")
    coefs = _hermite_coefficients(n_max)
    with mp.workdps(dps):
        norm = [1 / (mp.pi ** mp.mpf(0.25) * mp.sqrt(mp.mpf(2) ** n * mp.factorial(n)))
                for n in range(n_max + 1)]

        def xi_value(n, k):
            k = mp.mpf(k)
            return 1j ** n * mp.exp(-k * k / 2) * mp.polyval(coefs[n][::-1], k) * norm[n]

        def axis_moments(a, cut):
            # v1 v2 e^{k^2} as powers of k, then its even part's moments
            v1, v2 = [mp.mpc(0)] * (cut + 1), [mp.mpc(0)] * (cut + 1)
            for n in range(cut + 1):
                c1 = xi_value(n, kin.p1[a]) * mp.conj(xi_value(n, kin.p1_out[a])) * 1j ** n * norm[n]
                c2 = xi_value(n, kin.p2[a]) * mp.conj(xi_value(n, kin.p2_out[a])) * (-1j) ** n * norm[n]
                for i, h in enumerate(coefs[n]):
                    v1[i] += c1 * h
                    v2[i] += c2 * h
            return [mp.re(mp.fsum(v1[i] * v2[2 * j - i] for i in range(max(0, 2 * j - cut), min(2 * j, cut) + 1)))
                    * mp.gamma(j + mp.mpf(0.5)) for j in range(cut + 1)]

        def total(cut):
            poly = [mp.mpf(1)]
            for a in range(3):
                moments = axis_moments(a, cut)
                product = [mp.mpf(0)] * (len(poly) + cut)
                for i, p in enumerate(poly):
                    for j, q in enumerate(moments):
                        product[i + j] += p * q
                poly = product
            return mp.fsum(c * mp.hyperu(1, mp.mpf(0.5) - j, mp.mpf(kin.mu) ** 2) for j, c in enumerate(poly))

        full, dropped = total(n_max), total(n_max - 1)
        return float(kin.prefactor * full), float(kin.prefactor * abs(full - dropped))


@pytest.mark.parametrize("n_max", [4, 8])
@pytest.mark.parametrize("mu", [1e-6, 1e-3, 0.2, 1.0, 30.0, 1e3])
def test_element_and_shift_match_mpmath(n_max, mu):
    # the lattice sum of exact per-axis factors against the proper-time
    # integral in closed form, from tiny to large boson masses
    value, shift = _element(_at(KIN, mu=mu), n_max)
    want, want_shift = _mpmath_element(_at(KIN, mu=mu), n_max)
    assert value.imag == 0.0
    assert abs(value.real - want) <= 1e-13 * want
    assert abs(shift - want_shift) <= 1e-13 * want_shift


def test_cutoff_past_the_cap_raises_before_any_table():
    # the basis table grows as n_max^3 / 2 doubles, so a cutoff past the
    # cap is refused before anything is built or cached
    tracemalloc = pytest.importorskip("tracemalloc")
    caches = (_profiles, scattering._scaled_table, scattering._lattice_map, quadrature._pt_mass)
    for cache in caches:
        cache.cache_clear()
    cap = scattering._ELEMENT_N_MAX
    tracemalloc.start()
    try:
        with pytest.raises(OrderTooLargeError, match=f"at most {cap}"):
            moller_reduced_element(KIN, VertexTruncation(cap + 1), CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert all(cache.cache_info().currsize == 0 for cache in caches)
    # the cap itself is accepted
    assert math.isfinite(_element(KIN, cap)[0].real)


def test_element_and_green_values_share_one_lattice_per_mass(monkeypatch):
    # the element sums on a tail of the lattice the Green's values read, so
    # at a mass where either has run, the other builds no lattice; the
    # masses are fresh, so each first call builds one
    built = []

    def counted(*args, build=quadrature.pt_lattice):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(quadrature, "pt_lattice", counted)
    pair = ((2, 1, 0), (0, 1, 2))
    counts = []
    greens.g_proper_time(*pair, 0.6180339887, CFG)
    counts.append(len(built))
    _element(_at(KIN, mu=0.6180339887), 16)
    counts.append(len(built))
    _element(_at(KIN, mu=1.6180339887), 16)
    counts.append(len(built))
    greens.g_proper_time(*pair, 1.6180339887, CFG)
    counts.append(len(built))
    assert counts == [1, 1, 2, 2]


def test_overflowing_coefficients_raise_domain_error():
    # phi_n(1e150) overflows where e^{-p^2/2} underflows: the coefficient is
    # inf * 0, refused without a numpy warning and without caching anything
    _profiles.cache_clear()
    kin = _at(KIN, p1=(1e150, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite"):
            moller_reduced_element(kin, VertexTruncation(8), CFG)
    assert _profiles.cache_info().currsize == 0
