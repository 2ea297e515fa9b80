import math

import numpy as np
import pytest

from hermgrid.errors import BoxTooSmallError, DomainError
from hermgrid.grid import (
    GridBox,
    GridFunction,
    delta_bwd,
    delta_circle,
    delta_fwd,
    delta_sharp,
    kg_mode_residual,
    laplacian_sharp,
    mode_function,
    restrict,
)


def _random_function(extents, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(extents) + 1j * rng.standard_normal(extents)
    return GridFunction(GridBox(extents), vals)


def test_box_validation():
    with pytest.raises(ValueError):
        GridBox((1, 3, 3))
    with pytest.raises(ValueError):
        GridBox((3, 3))


def test_function_shape_validation():
    box = GridBox((3, 3, 3))
    with pytest.raises(ValueError):
        GridFunction(box, np.zeros((2, 3, 3), complex))
    with pytest.raises(ValueError):
        GridFunction(box, np.zeros((3, 3, 3), complex), origin=(0, 0, 5))


def test_forward_backward_difference_semantics():
    f = _random_function((4, 3, 3))
    fwd = delta_fwd(f, 1)
    assert fwd.box.extents == (3, 3, 3)
    assert fwd.origin == (0, 0, 0)
    assert np.allclose(fwd.values, f.values[1:] - f.values[:-1])
    bwd = delta_bwd(f, 1)
    assert bwd.box.extents == (4, 3, 3)
    assert bwd.origin == (1, 0, 0)
    assert np.allclose(bwd.values, f.values[1:] - f.values[:-1])


def test_difference_operators_are_linear():
    f = _random_function((5, 4, 3), seed=1)
    g = _random_function((5, 4, 3), seed=2)
    a, b = 1.7 - 0.3j, -0.8 + 2.1j
    combo = GridFunction(f.box, a * f.values + b * g.values)
    for op in (delta_fwd, delta_bwd, delta_sharp, delta_circle):
        lhs = op(combo, 2)
        rhs = a * op(f, 2).values + b * op(g, 2).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-14 * max(1.0, np.max(np.abs(rhs)))


def test_sharp_stencil_explicit_small_case():
    # delta_sharp on axis 1: (sqrt(n+1) f(n+1) - sqrt(n) f(n-1)) / sqrt(2)
    f = _random_function((4, 2, 2), seed=3)
    out = delta_sharp(f, 1)
    v = f.values
    for n in (0, 1, 2):
        lower = math.sqrt(n) * v[n - 1] if n > 0 else 0.0
        want = (math.sqrt(n + 1.0) * v[n + 1] - lower) / math.sqrt(2.0)
        assert np.allclose(out.values[n], want)


def test_box_floor_raises():
    f = _random_function((2, 3, 3))
    with pytest.raises(BoxTooSmallError):
        delta_fwd(f, 1)
    with pytest.raises(BoxTooSmallError):
        delta_sharp(f, 1)
    # delta_bwd keeps the box and may leave a single slab; only the second
    # application runs out of indices
    single = delta_bwd(_random_function((2, 3, 3)), 1)
    assert single.origin == (1, 0, 0)
    with pytest.raises(BoxTooSmallError):
        delta_bwd(single, 1)


def test_axis_argument_validated():
    f = _random_function((3, 3, 3))
    with pytest.raises(ValueError):
        delta_fwd(f, 0)
    with pytest.raises(ValueError):
        delta_sharp(f, 4)


def test_origin_row_is_not_poisoned_by_clamped_read():
    # the n = 0 stencil has no lower neighbor; a NaN planted at the origin
    # must not leak into the n = 0 output row through the dummy read
    f = _random_function((4, 3, 3), seed=4)
    vals = f.values.copy()
    vals[0, :, :] = np.nan
    g = delta_sharp(GridFunction(f.box, vals), 1)
    assert np.all(np.isfinite(g.values[0]))
    assert np.all(np.isnan(g.values[1]))


def test_restrict_crops_and_validates():
    f = _random_function((5, 5, 5), seed=5)
    r = restrict(f, (1, 0, 2), (4, 3, 5))
    assert r.values.shape == (3, 3, 3)
    assert np.allclose(r.values, f.values[1:4, 0:3, 2:5])
    with pytest.raises(ValueError):
        restrict(f, (0, 0, 0), (6, 5, 5))


def test_laplacian_matches_axiswise_composition():
    f = _random_function((6, 6, 6), seed=6)
    lap = laplacian_sharp(f)
    acc = np.zeros(lap.values.shape, complex)
    for ax in (1, 2, 3):
        t = delta_sharp(delta_sharp(f, ax), ax)
        acc += restrict(t, lap.origin, lap.box.extents).values
    assert np.max(np.abs(lap.values - acc)) == 0.0


def test_mode_function_is_sharp_eigenfunction():
    box = GridBox((8, 8, 8))
    k = (0.6, -1.1, 0.3)
    f = mode_function(box, k)
    for ax in (1, 2, 3):
        d = delta_sharp(f, ax)
        core = restrict(f, d.origin, d.box.extents)
        defect = np.max(np.abs(d.values - 1j * k[ax - 1] * core.values))
        assert defect <= 1e-10


def test_kg_mode_residual_vanishes_on_shell():
    box = GridBox((5, 5, 5))
    assert kg_mode_residual((0.4, 0.0, -0.9), 1.0, box) <= 1e-12
    assert kg_mode_residual((0.0, 0.0, 0.0), 0.5, box) <= 1e-12


def test_kg_mode_residual_detects_wrong_frequency():
    # the residual laplacian_sharp f + (omega^2 - mu^2) f at omega = mu/2,
    # which misses the dispersion relation by 0.75 mu^2, peaks at the origin
    # where the mode value is pi^{-3/4}; on shell it vanishes
    box = GridBox((4, 4, 4))
    f = mode_function(box, (0.0, 0.0, 0.0))
    lap = laplacian_sharp(f)
    core = restrict(f, lap.origin, lap.box.extents)
    res = np.max(np.abs(lap.values + (0.5 * 0.5 - 1.0) * core.values))
    assert res == pytest.approx(0.75 * math.pi ** -0.75, rel=1e-12)
    assert kg_mode_residual((0.0, 0.0, 0.0), 1.0, box) <= 1e-12


def test_kg_mode_residual_domain():
    with pytest.raises(DomainError):
        kg_mode_residual((0.0, 0.0, 0.0), 0.0, GridBox((4, 4, 4)))
