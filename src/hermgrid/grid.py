"""Partial difference operators on functions over a finite box of N^3.

The discrete space has no boundary data: an operator that needs a neighbor
outside the sampled box simply produces a smaller valid region.  A
GridFunction therefore carries both its box (exclusive upper extents) and an
origin marking where its values begin, so composed operators keep track of
exactly which indices are still trustworthy.

The sharp and circle operators act with index-dependent weights,

    (sharp f)(n)  = 1/sqrt(2) [sqrt(n+1) f(n+1) - sqrt(n) f(n-1)]
    (circle f)(n) = 1/sqrt(2) [sqrt(n+1) f(n+1) + sqrt(n) f(n-1)]

per axis.  At n = 0 the sqrt(n) coefficient vanishes identically, so the
lower neighbor is never read there and the valid region keeps its bottom edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxTooSmallError, DomainError, momentum, whole
from .hermite import xi_axis
from .quadrature import index3

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GridBox:
    """Exclusive upper index bounds per axis."""

    extents: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.extents) != 3:
            raise ValueError("a box has exactly three extents")
        extents = tuple(whole(e, "a box extent", 2) for e in self.extents)
        object.__setattr__(self, "extents", extents)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples over the valid region origin <= n < box.extents."""

    box: GridBox
    values: np.ndarray
    origin: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self) -> None:
        if not isinstance(self.values, np.ndarray):
            raise ValueError(f"values must be a numpy array, got {type(self.values).__name__}")
        object.__setattr__(self, "origin", index3(self.origin))
        spans = tuple(e - o for e, o in zip(self.box.extents, self.origin))
        if any(s < 1 for s in spans):
            raise ValueError(f"origin {self.origin} incompatible with box {self.box.extents}")
        if self.values.shape != spans:
            raise ValueError(f"values shape {self.values.shape} != valid spans {spans}")


def _axis0(axis: int) -> int:
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    return axis - 1


def _coeff_shape(vec: np.ndarray, ndim: int) -> np.ndarray:
    return vec.reshape((vec.size,) + (1,) * (ndim - 1))


def delta_fwd(f: GridFunction, axis: int) -> GridFunction:
    """Forward difference f(n+1) - f(n); the valid region loses its top index."""
    ax = _axis0(axis)
    o, e = f.origin[ax], f.box.extents[ax]
    # e - 1 < 2 guards the representational floor: boxes are >= 2 per axis
    if e - 1 < 2 or e - 1 - o < 1:
        raise BoxTooSmallError(f"forward difference on axis {axis} leaves no valid indices")
    v = np.moveaxis(f.values, ax, 0)
    out = np.moveaxis(v[1:] - v[:-1], 0, ax)
    extents = list(f.box.extents)
    extents[ax] = e - 1
    return GridFunction(GridBox(tuple(extents)), out, f.origin)


def delta_bwd(f: GridFunction, axis: int) -> GridFunction:
    """Backward difference f(n) - f(n-1); undefined at the bottom index."""
    ax = _axis0(axis)
    o, e = f.origin[ax], f.box.extents[ax]
    if e - (o + 1) < 1:
        raise BoxTooSmallError(f"backward difference on axis {axis} leaves no valid indices")
    v = np.moveaxis(f.values, ax, 0)
    out = np.moveaxis(v[1:] - v[:-1], 0, ax)
    origin = list(f.origin)
    origin[ax] = o + 1
    return GridFunction(f.box, out, tuple(origin))


def _weighted_stencil(f: GridFunction, axis: int, sign: float) -> GridFunction:
    ax = _axis0(axis)
    o, e = f.origin[ax], f.box.extents[ax]
    lo = o if o == 0 else o + 1
    hi = e - 2
    if e - 1 < 2 or hi < lo:
        raise BoxTooSmallError(f"weighted difference on axis {axis} leaves no valid indices")
    v = np.moveaxis(f.values, ax, 0)
    ns = np.arange(lo, hi + 1, dtype=float)
    upper = v[np.arange(lo + 1, hi + 2) - o]
    # at n = 0 the lower coefficient is exactly zero; clamp the index so the
    # harmless dummy read stays inside the array instead of wrapping
    lower_idx = np.maximum(np.arange(lo - 1, hi), o) - o
    lower = v[lower_idx]
    c_up = _coeff_shape(np.sqrt(ns + 1.0) / _SQRT2, v.ndim)
    c_lo = _coeff_shape(np.sqrt(ns) / _SQRT2, v.ndim)
    lower_term = c_lo * lower
    if lo == 0:
        # the n = 0 stencil has no lower neighbor at all; overwrite rather
        # than rely on 0 * value, which would propagate a NaN or inf
        lower_term[0] = 0.0
    out = np.moveaxis(c_up * upper + sign * lower_term, 0, ax)
    origin = list(f.origin)
    origin[ax] = lo
    extents = list(f.box.extents)
    extents[ax] = e - 1
    return GridFunction(GridBox(tuple(extents)), out, tuple(origin))


def delta_sharp(f: GridFunction, axis: int) -> GridFunction:
    """The weighted difference whose eigenfunctions are the scaled Hermite basis."""
    return _weighted_stencil(f, axis, -1.0)


def delta_circle(f: GridFunction, axis: int) -> GridFunction:
    """Same stencil as delta_sharp with the plus sign."""
    return _weighted_stencil(f, axis, +1.0)


def restrict(f: GridFunction, origin: tuple[int, int, int], extents: tuple[int, int, int]) -> GridFunction:
    """Crop to a sub-region (must lie inside f's valid region)."""
    origin, extents = index3(origin), GridBox(extents).extents
    slicer = []
    for ax in range(3):
        if origin[ax] < f.origin[ax] or extents[ax] > f.box.extents[ax] or extents[ax] - origin[ax] < 1:
            raise ValueError(f"target region outside valid region on axis {ax + 1}")
        start = origin[ax] - f.origin[ax]
        slicer.append(slice(start, start + extents[ax] - origin[ax]))
    return GridFunction(GridBox(extents), f.values[tuple(slicer)], origin)


def laplacian_sharp(f: GridFunction) -> GridFunction:
    """Sum over axes of the twice-applied sharp difference.

    The result's box shrinks by two at the top of every axis; the bottom
    edge survives on axes whose origin is zero.
    """
    terms = [delta_sharp(delta_sharp(f, axis), axis) for axis in (1, 2, 3)]
    origin = tuple(max(t.origin[ax] for t in terms) for ax in range(3))
    extents = tuple(min(t.box.extents[ax] for t in terms) for ax in range(3))
    cropped = [restrict(t, origin, extents) for t in terms]
    total = cropped[0].values + cropped[1].values + cropped[2].values
    return GridFunction(GridBox(extents), total, origin)


def mode_function(box: GridBox, k: tuple[float, float, float]) -> GridFunction:
    """The spatial mode factor prod_j xi_{n_j}(k_j) sampled over the box."""
    k = momentum(k)
    axes = [xi_axis(box.extents[ax] - 1, k[ax]) for ax in range(3)]
    vals = np.einsum("a,b,c->abc", axes[0], axes[1], axes[2])
    return GridFunction(box, vals)


def kg_mode_residual(k: tuple[float, float, float], mu: float, box: GridBox) -> float:
    """Max-norm residual of the scalar-field difference equation on a plane-wave mode.

    The mode prod_j xi_{n_j}(k_j) e^{-i omega t} with omega^2 = k.k + mu^2
    solves  laplacian_sharp f - (d/dt)^2 f - mu^2 f = 0  exactly; the time
    derivative contributes -omega^2 analytically, so the residual reduces to
    laplacian_sharp f + (omega^2 - mu^2) f on the interior.  A mode that
    underflows to zero (past |k_a| = 38.6, before k.k can overflow) solves
    it exactly.  DomainError for mu not positive with a finite square.
    """
    if not (mu > 0 and math.isfinite(float(mu) * float(mu))):
        raise DomainError(f"mu must be positive with a finite square, got {mu}")
    f = mode_function(box, k)
    lap = laplacian_sharp(f)
    if not f.values.any():
        return 0.0
    omega = math.sqrt(k[0] * k[0] + k[1] * k[1] + k[2] * k[2] + mu * mu)
    core = restrict(f, lap.origin, lap.box.extents)
    residual = lap.values + (omega * omega - mu * mu) * core.values
    return float(np.max(np.abs(residual)))
