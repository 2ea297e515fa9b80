"""The parity-folded mode-product kernel against explicit full-grid sums.

contract_even sums vectors against a kernel that is even in each axis,
given on the x >= 0 half of a mirror-symmetric grid.  The reference here
expands that half tensor to the whole grid and contracts it with a plain
einsum, or sums every term with math.fsum.  Odd node counts exercise the
centre node, which the fold must count once.  The screen, which cuts the
half grid to the cube the folded vectors reach, is checked against the
full-grid sum within its stated bound, with non-finite entries, and for a
cube size that depends on the vectors alone.  The denominator cubes that
green_contract hands the screen are checked for their shared cache budget
and for the rounding of their per-axis build.
"""

import itertools
import math

import numpy as np
import pytest

from hermgrid.greens import _inv_denominators
from hermgrid.quadrature import (
    GH_NODES_MAX,
    contract_even,
    fold_even,
    gauss_hermite,
    sized_cache,
    weighted_phi_table,
)

NODE_COUNTS = (8, 9, 33, 64)


def _mirror_index(n):
    # position on the half grid of each full-grid node and of its mirror
    h = n // 2
    i = np.arange(n)
    return np.where(i >= h, i - h, n - 1 - i - h)


def _random(rng, shape, complex_):
    v = rng.standard_normal(shape)
    if complex_:
        v = v + 1j * rng.standard_normal(shape)
    return v


@pytest.mark.parametrize("n", NODE_COUNTS)
def test_gauss_hermite_rule_is_mirror_symmetric(n):
    x, w = gauss_hermite(n)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])


@pytest.mark.parametrize("n", NODE_COUNTS)
@pytest.mark.parametrize("batch", (1, 4))
@pytest.mark.parametrize("complex_vectors", (False, True))
@pytest.mark.parametrize("complex_kernel", (False, True))
def test_contract_even_matches_full_grid_einsum(n, batch, complex_vectors, complex_kernel):
    rng = np.random.default_rng(1000 * n + 10 * batch + 2 * complex_vectors + complex_kernel)
    h = (n + 1) // 2
    half = _random(rng, (h, h, h), complex_kernel)
    idx = _mirror_index(n)
    full = half[np.ix_(idx, idx, idx)]
    a, b, c = (_random(rng, (batch, n), complex_vectors) for _ in range(3))
    want = np.einsum("bi,bj,bk,ijk->b", a, b, c, full)
    got = contract_even(a, b, c, lambda h: half[:h, :h, :h])
    assert got.shape == (batch,)
    scale = np.einsum("bi,bj,bk,ijk->b", abs(a), abs(b), abs(c), abs(full))
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_contract_even_takes_single_vectors():
    rng = np.random.default_rng(7)
    half = rng.standard_normal((5, 5, 5))
    a, b, c = (rng.standard_normal(9) for _ in range(3))
    got = contract_even(a, b, c, lambda h: half[:h, :h, :h])
    want = contract_even(a[None], b[None], c[None], lambda h: half[:h, :h, :h])
    assert got.shape == (1,)
    assert np.array_equal(got, want)


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
    # order rounds differently under some permutation of the axes; the
    # denominator cubes of green_contract are built so, and are not
    # symmetric to the bit either
    m = 0.7
    x, _ = gauss_hermite(128)
    x2 = x[64:] ** 2
    old = np.sqrt((np.add.outer(x2, x2) + m * m)[None, :, :] + x2[:, None, None])
    assert any(not np.array_equal(old.transpose(perm), old)
               for perm in itertools.permutations(range(3)))
    cube = _inv_denominators(m, 128, 64)
    assert any(not np.array_equal(cube.transpose(perm), cube)
               for perm in itertools.permutations(range(3)))


def _even_kernel(n, complex_):
    # an even kernel of x_i^2 + x_j^2 + x_k^2 on the full grid and its half
    x, _ = gauss_hermite(n)
    x2 = x * x
    r2 = (x2[:, None, None] + x2[None, :, None]) + x2[None, None, :]
    full = np.exp(-0.3j * np.sqrt(r2 + 1.0)) / (r2 + 0.7) if complex_ else 1.0 / (r2 + 0.7)
    h = n // 2
    return full, full[h:, h:, h:]


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


@pytest.mark.parametrize("n", (9, 33, 64))
@pytest.mark.parametrize("rows", (2, 5))
@pytest.mark.parametrize("complex_vectors", (False, True))
@pytest.mark.parametrize("complex_kernel", (False, True))
def test_screened_sum_meets_full_grid_fsum_within_its_bound(n, rows, complex_vectors, complex_kernel):
    full, half = _even_kernel(n, complex_kernel)
    a = _tailed_stack(n, rows, complex_vectors)
    b = _tailed_stack(n, rows, False)[::-1].copy()
    c = _tailed_stack(n, rows, complex_vectors)[np.arange(rows) % 2 - 1]
    asked = []

    def kernel(h):
        asked.append(h)
        return np.ascontiguousarray(half[:h, :h, :h])

    got = contract_even(a, b, c, kernel)
    assert got.shape == (rows,)
    (h,) = asked
    assert h == half.shape[0] or h % 8 == 0
    if n > 9 and rows == 2:
        # order 0 reaches about x = 7, short of the last nodes
        assert h < half.shape[0]
    eps = 2.0 ** -52
    for r in range(rows):
        terms = a[r][:, None, None] * b[r][None, :, None] * c[r][None, None, :] * full
        want = _fsum(terms)
        fa, fb, fc = (np.abs(fold_even(v[r])).sum() for v in (a, b, c))
        screen = 3 * 2.0 ** -64 * np.max(np.abs(half)) * fa * fb * fc
        # the screened sum still rounds like any sum of its h^3 terms
        rounding = 4 * h * h * eps * np.abs(terms).sum()
        assert abs(got[r] - want) <= screen + rounding, (n, r, abs(got[r] - want))
        if np.all(fold_even(a[r]) == 0):
            assert got[r] == 0 and want == 0


def test_screen_cuts_where_the_vectors_stop():
    # a vector that is exactly zero past half-grid node 12 keeps 16 nodes,
    # one entry of 2^-70 of its sum beyond that changes nothing, and one of
    # 2^-60 moves the cube out to cover it
    n = 64
    x, _ = gauss_hermite(n)
    base = np.zeros(n)
    base[n // 2:n // 2 + 12] = 1.0
    asked = []
    ones = np.ones((32, 32, 32))

    def kernel(h):
        asked.append(h)
        return ones[:h, :h, :h]

    contract_even(base, base, base, kernel)
    tiny = base.copy()
    tiny[n // 2 + 30] = 12 * 2.0 ** -70
    contract_even(base, tiny, base, kernel)
    small = base.copy()
    small[n // 2 + 20] = 12 * 2.0 ** -60
    contract_even(base, base, small, kernel)
    assert asked == [16, 16, 24]


@pytest.mark.parametrize("axis", (0, 1, 2))
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("n", (9, 64))
def test_screen_keeps_non_finite_entries_visible(axis, bad, n):
    _, half = _even_kernel(n, False)
    vectors = [_tailed_stack(n, 2, False) for _ in range(3)]
    # the last node, far past where the screen would cut
    vectors[axis][0, -1] = bad
    asked = []

    def kernel(h):
        asked.append(h)
        return half[:h, :h, :h]

    with np.errstate(invalid="ignore"):
        got = contract_even(*vectors, kernel)
    assert asked == [half.shape[0]]
    assert not np.isfinite(got[0])


def test_screen_keeps_an_overflowing_sum_whole():
    # |v|_1 overflows, so no threshold exists and no node is dropped
    n = 64
    v = np.zeros(n)
    v[n // 2] = v[n // 2 + 1] = 1e308
    v[-1] = 1.0
    asked = []
    with np.errstate(over="ignore"):
        contract_even(v, v, v, lambda h: asked.append(h) or np.ones((h, h, h)))
    assert asked == [32]


def test_screen_depends_on_the_vectors_alone():
    n = 128
    _, half = _even_kernel(n, False)
    a = _tailed_stack(n, 3, False)
    asked = []

    def kernel(h):
        asked.append(h)
        return np.ascontiguousarray(half[:h, :h, :h])

    first = contract_even(a, a, a, kernel)
    # other vectors, which ask for other cubes, run in between
    wide = np.ones(n)
    contract_even(wide, wide, wide, kernel)
    contract_even(a[:1], a[:1], a[:1], kernel)
    again = contract_even(a, a, a, kernel)
    assert asked[0] == asked[3] and asked[1] == 64 and asked[2] <= asked[0]
    # low orders reach about x = 7 of the rule's 15.3
    assert asked[0] <= 40
    assert np.array_equal(first, again)


def test_weighted_phi_tables_stay_within_their_budget():
    # a sweep over orders and node counts, as a high-order table of the
    # tensor route makes, keeps at most 2^18 entries in all; the benchmark's
    # set-up tables (orders 0-6 at 64 and 128 nodes) fit together
    weighted_phi_table.cache_clear()
    for n_max in range(0, 201, 10):
        for n_nodes in (256, 512):
            table = weighted_phi_table(n_max, n_nodes)
            assert table.shape == (n_max + 1, n_nodes) and not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
            assert weighted_phi_table.cache_info().entries <= 2 ** 18
    assert weighted_phi_table(200, 512) is table
    weighted_phi_table.cache_clear()
    setup = [weighted_phi_table(k, n) for n in (64, 128) for k in range(7)]
    assert weighted_phi_table.cache_info().currsize == len(setup) == 14
    assert all(weighted_phi_table(k, n) is t
               for t, (n, k) in zip(setup, itertools.product((64, 128), range(7))))
    weighted_phi_table.cache_clear()


def test_sized_cache_holds_its_budget():
    built = []

    @sized_cache(100)
    def make(k):
        built.append(k)
        out = np.zeros(k)
        out.setflags(write=False)
        return out

    assert make(40) is make(40)
    make(50)
    make(40)  # now the most recent, so 50 goes first
    make(30)
    assert make.cache_info().entries <= 100
    assert make.cache_info().currsize == 2
    assert make(40) is not None and built == [40, 50, 30]
    make(50)
    assert built == [40, 50, 30, 50]
    # a value over the budget is still kept, alone
    big = make(500)
    assert make.cache_info().currsize == 1 and make(500) is big
    make.cache_clear()
    assert make.cache_info().currsize == 0 and make.cache_info().entries == 0


def test_denominator_cubes_share_one_budget():
    # the cubes the screen asks green_contract for, one per cube size, share
    # one budget of two full half-grid tensors at 128 nodes
    _inv_denominators.cache_clear()
    for h in range(8, 57, 8):
        _inv_denominators(0.7, 128, h)
    info = _inv_denominators.cache_info()
    assert info.currsize == 7
    assert info.entries == sum(h ** 3 for h in range(8, 57, 8)) <= 2 * 64 ** 3 < GH_NODES_MAX ** 3
    # the cube for a size is the leading block of every larger cube
    assert np.array_equal(_inv_denominators(0.7, 128, 64)[:24, :24, :24],
                          _inv_denominators(0.7, 128, 24))
    assert _inv_denominators.cache_info().entries <= 2 * 64 ** 3
    _inv_denominators.cache_clear()
    assert _inv_denominators.cache_info().currsize == 0
