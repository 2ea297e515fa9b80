"""The in-place recurrences give the floats of their allocating forms.

allocating_kernels holds the generator form of the Hermite recurrence, the
allocating Legendre recurrence, the all-rows exchange table and the full
50-point radius scan.  Every value here must match it bit for bit: the
in-place kernels round each step as the allocating ones did, in the same
order.  The Gauss rules are rebuilt on the allocating kernels by patching
them into the quadrature module.  The exchange table's cold build must
also stay near the size of what it keeps, and the barycentric maps' cache
within its stated bound.
"""

import tracemalloc

import numpy as np
import pytest

import allocating_kernels as ref
from hermgrid import dirac, quadrature, scattering
from hermgrid.hermite import phi, phi_at, phi_row, xi, xi_axis

RNG = np.random.default_rng(20261020)
SHAPES = [(), (7,), (3, 5), (2, 3, 4)]


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", SHAPES)
def test_phi_row_matches_the_generator(shape):
    x = RNG.uniform(-6.0, 6.0, shape)
    for n_max in (0, 1, 2, 3, 40, 200):
        want = ref.phi_row(n_max, x)
        if not shape:
            want = want.reshape(n_max + 1, 1)
        assert _same(phi_row(n_max, x), want), n_max


@pytest.mark.parametrize("shape", SHAPES)
def test_phi_at_matches_the_generator_with_and_without_a_seed(shape):
    x = RNG.uniform(-40.0, 40.0, shape)
    seed = np.exp(-0.5 * x * x)
    small = RNG.uniform(-3.0, 3.0, shape)
    for orders in ((0,), (1,), (0, 2), (5,), (3, 4, 5), (0, 1, 2, 3), (98, 99, 100), (17, 400),
                   (1452, 1453, 1454), tuple(range(0, 60, 7))):
        got, want = phi_at(orders, x, seed), ref.phi_at(orders, x, seed)
        assert sorted(got) == sorted(want)
        assert all(_same(got[j], want[j]) for j in want), orders
        if max(orders) <= 100:
            got, want = phi_at(orders, small), ref.phi_at(orders, small)
            assert all(_same(got[j], want[j]) for j in want), orders
    assert _same(phi(9, small), ref.phi_at((9,), small)[9])


def test_xi_axis_and_xi_match_the_generator():
    for k in (0.0, -0.0, 1e-300, 0.3, -1.7, 5.0, 12.5, -30.0, 38.0):
        for n_max in (0, 1, 2, 3, 64, 128, 727, 1454):
            want = ref.xi_axis(n_max, k)
            assert _same(xi_axis(n_max, k), want), (k, n_max)
            assert xi(n_max, k) == want[n_max]


def test_sequence_of_kernel_calls_does_not_depend_on_their_order():
    # the step table is cached by size; a long run first and a short one
    # after, and the reverse, read the same coefficients
    x = RNG.uniform(-2.0, 2.0, 9)
    short = phi_row(10, x)
    long = phi_row(1000, x)
    assert _same(short, long[:11])
    assert _same(short, ref.phi_row(10, x))


@pytest.mark.parametrize("n_max", [1, 2, 3, 8, 32, 64, 65, 128])
def test_scaled_table_matches_the_all_rows_build(n_max):
    got = scattering._scaled_table(n_max)
    want = ref.scaled_table(n_max)
    assert len(got) == 2
    assert all(_same(g, w) for g, w in zip(got, want))
    assert not any(g.flags.writeable for g in got)


def test_scaled_table_touches_its_memory_once():
    # the cold build writes the rows straight into the two parity tables,
    # so its peak stays near what it keeps (the all-rows build reached 2.5x)
    scattering._scaled_table(64)
    scattering._scaled_table.cache_clear()
    tracemalloc.start()
    try:
        tables = scattering._scaled_table(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(t.nbytes for t in tables)
    assert kept > 1_000_000
    assert peak <= 1.25 * kept


@pytest.mark.parametrize("n_nodes", list(range(1, 65)) + [128, 256, 512, 728])
def test_hermite_half_matches_the_generator(monkeypatch, n_nodes):
    got = quadrature.hermite_half(n_nodes)
    monkeypatch.setattr(quadrature, "phi_at", ref.phi_at)
    want = quadrature.hermite_half.__wrapped__(n_nodes)
    assert all(_same(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n_nodes", list(range(1, 65)) + [128, 256, 512])
def test_gauss_legendre_matches_the_allocating_recurrence(monkeypatch, n_nodes):
    got = quadrature.gauss_legendre(n_nodes)
    monkeypatch.setattr(quadrature, "_legendre_pair", ref.legendre_pair)
    want = quadrature.gauss_legendre.__wrapped__(n_nodes)
    assert all(_same(g, w) for g, w in zip(got, want))


def test_weighted_phi_table_matches_the_generator():
    for n_max, n_nodes in ((0, 8), (3, 9), (40, 200), (200, 512)):
        x, w = quadrature.gauss_hermite(n_nodes)
        assert _same(quadrature.weighted_phi_table(n_max, n_nodes), ref.phi_row(n_max, x) * np.sqrt(w))


def test_radius_search_matches_the_full_scan():
    got = [dirac._radius.__wrapped__(d) for d in range(3001)]
    want = [ref.radius(d) for d in range(3001)]
    assert got == want


def test_projector_budget_refuses_the_largest_one_axis_pairs():
    # the radius search is checked up to degree 3,000; the largest degree
    # the work budget admits is a pair on one axis, split evenly
    dirac._check_work((1259, 0, 0), (1259, 0, 0), 2518)
    with pytest.raises(dirac.OrderTooLargeError):
        dirac._check_work((1260, 0, 0), (1260, 0, 0), 2520)
    with pytest.raises(dirac.OrderTooLargeError):
        dirac._check_work((2001, 0, 0), (0, 0, 0), 2001)


def test_lattice_map_cache_stays_within_its_bound():
    # four entries at most, each at most 129 x 3,110 doubles (3.2 MB) at
    # the largest cutoff and the smallest masses
    cache = scattering._lattice_map
    assert cache.cache_info().maxsize == 4
    cache.cache_clear()
    worst = sum(a.nbytes for a in cache(1e-160, scattering._ELEMENT_N_MAX))
    assert worst <= (scattering._ELEMENT_N_MAX + 2) * 3110 * 8
    assert 4 * worst <= 13.5e6
    for mu in (1e-3, 0.5, 1.0, 2.0, 7.0, 30.0):
        cache(mu, 8)
    assert cache.cache_info().currsize == 4
    cache.cache_clear()
