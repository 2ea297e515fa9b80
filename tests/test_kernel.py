"""The 3D grid route of the exchange element against explicit sums, and
the element against that route.

grid_route._separable_sum sums vectors on a mirror-symmetric Gauss-Hermite grid
against 1/(x_i^2 + x_j^2 + x_k^2 + mu^2), written as an exponential sum in
proper time, so that no denominator tensor is formed.  The rows are folded
onto the x >= 0 half grid first, so every contraction is an even one.  The
rule is screened: cut to the proper times whose terms reach 2^-60 of 1/y.
The references here are a plain einsum and a math.fsum of every full-grid
term against the exact kernel, and mpmath for single kernel values.  Odd
node counts exercise the centre node, which the fold must count once and
which puts a denominator at y = mu^2.  Odd vectors give exact zeros,
non-finite entries stay visible through the screen, and the cached E
tables hold their bound.  At 512 nodes the grid route resolves the element
to about 3e-11 for mu >= 0.5 and n_max <= 64, which checks the element's
proper-time sum at cutoffs where the mpmath reference is slow.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

import grid_route
from grid_route import _proper_time_rule, _separable_sum, fold_even, green_contract, grid_element
from hermgrid import MollerKinematics, VertexTruncation
from hermgrid.scattering import moller_element_and_shift
from hermgrid.errors import NonconvergenceError
from hermgrid.quadrature import (
    QuadratureConfig,
    gauss_hermite,
    refined,
    weighted_phi_table,
)

NODE_COUNTS = (8, 9, 33, 64)

EPS = 2.0 ** -52


@pytest.mark.parametrize("n", NODE_COUNTS)
def test_gauss_hermite_rule_is_mirror_symmetric(n):
    x, w = gauss_hermite(n)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])


def _full_kernel(n, mu):
    x, _ = gauss_hermite(n)
    x2 = x * x
    return 1.0 / ((x2[:, None, None] + x2[None, :, None]) + x2[None, None, :] + mu * mu)


def _tailed_stack(n, rows, complex_):
    # basis pair products phi_j phi_k w, which decay like Gaussians past
    # their turning points, plus one parity-zero row (odd times even order)
    table = weighted_phi_table(6, n)
    pairs = [(0, 0), (2, 0), (1, 1), (4, 2), (6, 6), (3, 1)][:rows - 1] + [(1, 2)]
    out = np.stack([table[j] * table[k] for j, k in pairs])
    if complex_:
        out = out * (1.0 - 0.5j)
    return out


def _fsum(terms):
    return complex(math.fsum(terms.real.ravel()), math.fsum(terms.imag.ravel()))


@pytest.mark.parametrize("n", NODE_COUNTS)
@pytest.mark.parametrize("batch", (1, 4))
@pytest.mark.parametrize("complex_vectors", (False, True))
@pytest.mark.parametrize("pole_model", (False, True))
def test_contract_even_matches_full_grid_einsum(n, batch, complex_vectors, pole_model):
    # random vectors against a plain einsum over the whole grid; with the
    # pole model, green_contract against the same einsum plus the model's
    # closed-form constants less their own full-grid quadrature
    rng = np.random.default_rng(1000 * n + 10 * batch + 2 * complex_vectors + pole_model)
    x, w = gauss_hermite(n)
    a, b, c = (rng.standard_normal((batch, n)) * (1.0 + 0.3j if complex_vectors else 1.0)
               for _ in range(3))
    c0, c2 = rng.standard_normal((2, batch))
    for mu in (1e-3, 0.7, 30.0):
        full = _full_kernel(n, mu)
        want = np.einsum("bi,bj,bk,ijk->b", a, b, c, full)
        scale = np.einsum("bi,bj,bk,ijk->b", abs(a), abs(b), abs(c), full)
        if pole_model:
            models = np.einsum("bi,j,k,ijk->b", np.stack([w, x * x * w]), w, w, full)
            exact = np.array(grid_route._ball_exact(mu))
            want = (want + np.stack([c0, c2], 1) @ (exact - models)) * math.pi ** -1.5
            scale = (scale + np.abs(np.stack([c0, c2], 1)) @ (exact + models)) * math.pi ** -1.5
            got = green_contract(a, b, c, c0, c2, mu, n)
        else:
            got = _separable_sum(a, b, c, mu, n)
        assert got.shape == (batch,)
        assert np.all(np.abs(got - want) <= 1e-14 * scale), (mu, np.abs(got - want) / scale)


@pytest.mark.parametrize("n", NODE_COUNTS)
@pytest.mark.parametrize("rows", (2, 5))
@pytest.mark.parametrize("complex_vectors", (False, True))
@pytest.mark.parametrize("random_vectors", (False, True))
def test_screened_sum_meets_full_grid_fsum_within_its_bound(n, rows, complex_vectors, random_vectors):
    # Gaussian-tailed stacks with a parity-zero row, or random vectors that
    # reach the last node, at masses from small to large
    h = (n + 1) // 2
    if random_vectors:
        rng = np.random.default_rng(100 * n + 10 * rows + complex_vectors)
        a, b, c = (rng.standard_normal((rows, n)) * (1.0 + 0.3j if complex_vectors else 1.0)
                   for _ in range(3))
    else:
        a = _tailed_stack(n, rows, complex_vectors)
        b = _tailed_stack(n, rows, False)[::-1].copy()
        c = _tailed_stack(n, rows, complex_vectors)[np.arange(rows) % 2 - 1]
    for mu in (1e-3, 0.7, 30.0):
        full = _full_kernel(n, mu)
        bound_ulps = 4 + 3 * h + _proper_time_rule(mu, n).shape[1]
        got = _separable_sum(a, b, c, mu, n)
        assert got.shape == (rows,)
        for r in range(rows):
            terms = a[r][:, None, None] * b[r][None, :, None] * c[r][None, None, :] * full
            want = _fsum(terms)
            assert abs(got[r] - want) <= bound_ulps * EPS * np.abs(terms).sum(), (mu, r)
            if np.all(fold_even(a[r]) == 0):
                assert got[r] == 0


def test_contract_even_takes_single_vectors():
    rng = np.random.default_rng(7)
    a, b, c = (rng.standard_normal(9) for _ in range(3))
    got = _separable_sum(a, b, c, 0.7, 9)
    want = _separable_sum(a[None], b[None], c[None], 0.7, 9)
    assert got.shape == (1,)
    assert np.array_equal(got, want)
    # a stack of one row broadcasts against a stack of two (whose matrix
    # product may round differently)
    both = _separable_sum(np.stack([a, 2.0 * a]), b, c, 0.7, 9)
    assert both.shape == (2,)
    assert both == pytest.approx([got[0], 2.0 * got[0]], rel=4 * EPS)


@pytest.mark.parametrize("n", (9, 128, 512))
@pytest.mark.parametrize("mu", (1e-3, 0.2, 1.0, 2.0, 10.0, 100.0))
def test_kernel_values_are_within_four_ulps_of_mpmath(n, mu):
    # one-hot vectors at nonnegative nodes fold to one-hot half-grid rows,
    # so each value of the sum is one kernel value sum_m w_m E_im E_jm E_km
    mp = pytest.importorskip("mpmath")
    x, _ = gauss_hermite(n)
    h = (n + 1) // 2
    if h ** 3 <= 200:
        triples = list(itertools.product(range(h), repeat=3))
    else:
        rng = np.random.default_rng(n)
        triples = [tuple(t) for t in rng.integers(0, h, (300, 3))]
        triples += [(i, i, i) for i in range(0, h, 8)] + [(0, 0, 0), (h - 1,) * 3,
                                                         (0, 0, h - 1), (0, h - 1, h - 1)]
    rows = np.zeros((3, len(triples), n))
    for r, t in enumerate(triples):
        for axis, i in enumerate(t):
            rows[axis, r, n // 2 + i] = 1.0
    got = _separable_sum(*rows, mu, n)
    worst = 0.0
    with mp.workdps(30):
        for value, t in zip(got, triples):
            want = 1 / (sum(mp.mpf(float(x[n // 2 + i])) ** 2 for i in t) + mp.mpf(mu) ** 2)
            worst = max(worst, float(abs(value - want) / want))
    assert worst <= 4 * EPS
    # the rule's length (odd counts add terms for the node at y = mu^2)
    terms = _proper_time_rule(mu, n).shape[1]
    assert 185 <= terms <= (265 if n % 2 else 250)


@pytest.mark.parametrize("n", NODE_COUNTS)
def test_odd_vectors_give_exact_zeros(n):
    # a pair that is odd in one axis sums to exactly zero, pole model and all
    x, w = gauss_hermite(n)
    table = weighted_phi_table(5, n)
    even = table[2] * table[0]
    for odd in (x * w, table[1] * table[2], table[3] * table[0]):
        for mu in (1e-3, 1.0, 50.0):
            assert _separable_sum(odd, even, even, mu, n)[0] == 0.0
            assert _separable_sum(even, even, odd, mu, n)[0] == 0.0
            assert green_contract(even, odd, even, 0.0, 0.0, mu, n)[0] == 0.0
    assert _separable_sum(even, even, even, 1.0, n)[0] != 0.0


@pytest.mark.parametrize("n", NODE_COUNTS)
def test_fold_of_odd_vector_is_exact_zero(n):
    x, w = gauss_hermite(n)
    assert not np.any(fold_even(x * np.exp(-x * x)))
    table = weighted_phi_table(5, n)
    # odd order times even order, as in a parity-forbidden Green's pair
    assert not np.any(fold_even(table[1] * table[2]))
    assert not np.any(fold_even(np.stack([table[3] * table[0], x * w])))
    assert np.all(fold_even(table[2] * table[0]) != 0)


@pytest.mark.parametrize("n", (8, 9))
def test_fold_counts_centre_once(n):
    v = np.arange(1.0, n + 1.0)
    folded = fold_even(v)
    h = n // 2
    assert folded.shape == ((n + 1) // 2,)
    if n % 2:
        assert folded[0] == v[h]
    assert folded.sum() == v.sum()


def test_full_grid_build_is_not_symmetric_to_the_bit():
    # a kernel of x_i^2 + x_j^2 + x_k^2 built by summing the squares in axis
    # order rounds differently under some permutation of the axes
    m = 0.7
    x, _ = gauss_hermite(128)
    x2 = x[64:] ** 2
    old = np.sqrt((np.add.outer(x2, x2) + m * m)[None, :, :] + x2[:, None, None])
    assert any(not np.array_equal(old.transpose(perm), old)
               for perm in itertools.permutations(range(3)))


@pytest.mark.parametrize("axis", (0, 1, 2))
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("n", (9, 64))
def test_screen_keeps_non_finite_entries_visible(axis, bad, n):
    vectors = [_tailed_stack(n, 2, False) for _ in range(3)]
    # the last node, where e^{-t x^2} underflows to 0 for most terms of the
    # screened rule: the NaN or inf still shows
    vectors[axis][0, -1] = bad
    with np.errstate(invalid="ignore"):
        got = _separable_sum(*vectors, 0.7, n)
    assert not np.isfinite(got[0])
    assert np.isfinite(got[1])


def test_weighted_phi_tables_stay_within_their_budget():
    # a sweep over orders and node counts, as a high-order table of the
    # tensor route makes, keeps at most 16 tables; orders 0-6 at 64 and 128
    # nodes fit together
    weighted_phi_table.cache_clear()
    for n_max in range(0, 201, 10):
        for n_nodes in (256, 512):
            table = weighted_phi_table(n_max, n_nodes)
            assert table.shape == (n_max + 1, n_nodes) and not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
            assert weighted_phi_table.cache_info().currsize <= 16
    assert weighted_phi_table(200, 512) is table
    weighted_phi_table.cache_clear()
    setup = [weighted_phi_table(k, n) for n in (64, 128) for k in range(7)]
    assert weighted_phi_table.cache_info().currsize == len(setup) == 14
    assert all(weighted_phi_table(k, n) is t
               for t, (n, k) in zip(setup, itertools.product((64, 128), range(7))))
    weighted_phi_table.cache_clear()


def test_tiny_mass_on_an_odd_grid_raises_without_a_warning():
    # an odd grid puts a node at y = mu^2; where mu^2 is subnormal or 0 the
    # rule stops at y_min = 2^-1000, so the coarse level of the refined
    # contraction is large but finite and the gate refuses the value (a
    # denominator cube overflowed here)
    def contract(mu, n_nodes):
        table = weighted_phi_table(2, n_nodes)
        return green_contract(table[2] * table[0], table[0] ** 2, table[0] ** 2, 0.0, 0.0, mu, n_nodes)

    cfg = QuadratureConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu in (1e-160, 1e-200):
            assert np.all(np.isfinite(_proper_time_rule(mu, 9)))
            assert np.all(np.isfinite(contract(mu, 9)))
            with pytest.raises(NonconvergenceError):
                refined(lambda k: contract(mu, 9 * k), 100.0 * cfg.tol, "probe")
    _proper_time_rule.cache_clear()


def test_exponential_tables_share_one_budget():
    # the tables of a mass sweep at the largest node counts stay within the
    # cache's bound, and cache_clear() empties it
    _proper_time_rule.cache_clear()
    bound = _proper_time_rule.cache_info().maxsize
    for mu in np.logspace(-3, 2, 12):
        for n in (256, 512):
            table = _proper_time_rule(float(mu), n)
            assert table.shape[0] == n // 2 + 1 and not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
            assert _proper_time_rule.cache_info().currsize <= bound
    assert _proper_time_rule(float(mu), 512) is table
    # E rows, then the weights: at the first node x_0 >= 0 the kernel value
    # sum_m w_m E_0m^3 is 1/(3 x_0^2 + mu^2); at most 245 terms (0.5 MB)
    x0 = gauss_hermite(512)[0][256]
    assert (table[0] ** 3) @ table[-1] == pytest.approx(1.0 / (3.0 * x0 * x0 + mu * mu), rel=4 * EPS)
    assert table.shape[1] <= 245 and table.nbytes < 2 ** 19
    _proper_time_rule.cache_clear()
    assert _proper_time_rule.cache_info().currsize == 0


KINEMATICS = {
    "readme": ((0.1, 0, 0), (-0.1, 0, 0), (0.08, 0.06, 0), (-0.08, -0.06, 0)),
    "skew": ((0.15, 0.05, -0.1), (-0.12, 0.08, 0.06), (0.1, 0.1, -0.08), (-0.07, 0.03, 0.04)),
}


@pytest.mark.parametrize("name", sorted(KINEMATICS))
@pytest.mark.parametrize("mu", (0.5, 1.0, 2.0))
def test_element_meets_the_512_node_grid_route(name, mu):
    # the element and its truncation shift against the grid route at 512
    # nodes, whose own error at these masses is below 3e-11 (measured
    # against 256 nodes and the mpmath pins of test_frozen_values)
    cfg = QuadratureConfig(tol=1.0)
    for n_max in (16, 64):
        kin = MollerKinematics(*KINEMATICS[name], m=1.0, mu=mu, g=1.0)
        value, shift = moller_element_and_shift(kin, VertexTruncation(n_max), cfg)
        want, want_shift = grid_element(kin, n_max, 512)
        assert abs(value.real - want) <= 1e-10 * want, n_max
        assert abs(shift - want_shift) <= 1e-10 * want, n_max
