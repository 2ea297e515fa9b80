"""The parity-folded mode-product kernel against explicit full-grid sums.

contract_even sums vectors against a kernel that is even in each axis,
given on the x >= 0 half of a mirror-symmetric grid.  The reference here
expands that half tensor to the whole grid and contracts it with a plain
einsum.  Odd node counts exercise the centre node, which the fold must
count once.  The sorted-triple tables, from which kernels of x_i^2 + x_j^2 +
x_k^2 are gathered, are checked against the half-grid tensors they replace.
"""

import itertools

import numpy as np
import pytest

from hermgrid.quadrature import (
    contract_even,
    fold_even,
    gauss_hermite,
    triple_rank,
    triple_sums,
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
    got = contract_even(a, b, c, half)
    assert got.shape == (batch,)
    scale = np.einsum("bi,bj,bk,ijk->b", abs(a), abs(b), abs(c), abs(full))
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_contract_even_takes_single_vectors():
    rng = np.random.default_rng(7)
    half = rng.standard_normal((5, 5, 5))
    a, b, c = (rng.standard_normal(9) for _ in range(3))
    got = contract_even(a, b, c, half)
    want = contract_even(a[None], b[None], c[None], half)
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


TRIPLE_NODE_COUNTS = (8, 9, 33, 64, 128)


def _half_squares(n):
    x, _ = gauss_hermite(n)
    return x[n // 2:] ** 2


@pytest.mark.parametrize("n", TRIPLE_NODE_COUNTS)
def test_triple_rank_is_a_bijection_onto_sorted_triples(n):
    h = n - n // 2
    rank = triple_rank(h)
    assert rank.shape == (h, h, h)
    assert rank.dtype == np.intp
    assert not rank.flags.writeable
    assert triple_rank(h) is rank
    # the sorted triples i <= j <= k take each rank 0..T-1 exactly once
    i, j, k = np.indices((h, h, h))
    on_sorted = rank[(i <= j) & (j <= k)]
    assert np.array_equal(np.sort(on_sorted), np.arange(h * (h + 1) * (h + 2) // 6))
    # and every other triple takes the rank of its sorted permutation
    lo, mid, hi = np.sort(np.stack([i, j, k]), axis=0)
    assert np.array_equal(rank, rank[lo, mid, hi])


@pytest.mark.parametrize("n", TRIPLE_NODE_COUNTS)
def test_triple_sums_match_full_half_grid_build(n):
    sums = triple_sums(n)
    h = n - n // 2
    assert sums.shape == (h * (h + 1) * (h + 2) // 6,)
    assert not sums.flags.writeable
    x2 = _half_squares(n)
    full = (x2[:, None, None] + x2[None, :, None]) + x2[None, None, :]
    gathered = sums[triple_rank(h)]
    # the centre node of an odd rule is exactly 0, so only the all-centre
    # triple sums to 0; both builds give exactly 0 there
    nonzero = full > 0
    assert np.count_nonzero(~nonzero) == n % 2
    assert np.all(gathered[~nonzero] == 0)
    rel = np.abs(gathered[nonzero] - full[nonzero]) / full[nonzero]
    assert np.max(rel) <= 1e-15


@pytest.mark.parametrize("n", TRIPLE_NODE_COUNTS)
def test_gathered_kernel_is_exactly_symmetric_under_axis_permutations(n):
    m = 0.7
    kernel = np.sqrt(triple_sums(n) + m * m)[triple_rank(n - n // 2)]
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(kernel.transpose(perm), kernel)


def test_full_grid_build_is_not_symmetric_to_the_bit():
    # what the gathered kernel gains: a build that sums the squares in axis
    # order rounds differently under some permutation
    m = 0.7
    x2 = _half_squares(128)
    old = np.sqrt((np.add.outer(x2, x2) + m * m)[None, :, :] + x2[:, None, None])
    assert any(not np.array_equal(old.transpose(perm), old)
               for perm in itertools.permutations(range(3)))
