"""Named invariant checks backing `hermgrid check` and the test suite.

Each check exercises one documented property of a module at its documented
tolerance and reports a CheckResult.  The fast suite covers everything that
runs in a few seconds; the full suite adds the difference-equation residual
box and the exchange-element oracle comparison, which dominate runtime.

This module also hosts the independent evaluation route for the exchange
element (sum the vertices at each quadrature node first, then integrate),
kept deliberately separate from the production route in scattering: a
tensor Gauss-Hermite rule over k, not a proper-time sum of per-axis
polynomials, with no shared tables.  Their agreement is the defining
correctness check for the scattering module at the cutoffs it runs at.
"""

from __future__ import annotations

import contextlib
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import dirac
from .errors import TruncationWarning
from .grid import (
    GridBox,
    GridFunction,
    delta_bwd,
    delta_circle,
    delta_fwd,
    delta_sharp,
    kg_mode_residual,
    laplacian_sharp,
    mode_function,
)
from .greens import (
    coulomb_even,
    coulomb_quadrature,
    difference_equation_residual,
    g_sharp,
    g_proper_time,
    g_sharp_axis,
    w_sharp,
    yukawa_coincidence,
)
from .hermite import hermite_poly, xi, xi_delta_sharp
from .quadrature import QuadratureConfig, gauss_hermite, refined, weighted_phi_table
from .scattering import (
    MollerKinematics,
    VertexTruncation,
    moller_element_and_shift,
    moller_reduced_element,
    vertex_axis_sum,
)

_SEED = 20260816

# the Clifford check builds its matrices through this module attribute so a
# fault-injection test can substitute a corrupted provider
gamma_provider = dirac.gamma_set


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    tolerance: float
    observed: float
    seconds: float
    detail: str = ""


def _rng() -> np.random.Generator:
    return np.random.default_rng(_SEED)


# each check returns (passed, tolerance, observed, detail)


def _check_hermite_orthonormality():
    table = weighted_phi_table(40, 200)
    gram = table @ table.T / math.sqrt(math.pi)
    obs = float(np.max(np.abs(gram - np.eye(41))))
    return obs <= 1e-10, 1e-10, obs, "max Gram defect, n,m <= 40, 200 nodes"


def _check_hermite_eigen_relation():
    rng = _rng()
    obs = 0.0
    for _ in range(200):
        n = int(rng.integers(0, 101))
        k = float(rng.uniform(-10, 10))
        d = abs(xi_delta_sharp(n, k) - k * xi(n, k)) / (1.0 + abs(k))
        obs = max(obs, d)
    return obs <= 1e-12, 1e-12, obs, "|weighted difference - k xi| / (1+|k|)"


def _check_hermite_recurrence_vs_direct():
    obs = 0.0
    for n in range(26):
        direct_scale = 1.0 / (math.pi ** 0.25 * math.sqrt(2.0 ** n * math.factorial(n)))
        for k in (-3.7, -1.0, -0.2, 0.0, 0.4, 1.3, 2.9):
            direct = (1j ** (n % 4)) * math.exp(-0.5 * k * k) * hermite_poly(n, k) * direct_scale
            v = xi(n, k)
            obs = max(obs, abs(v - direct) / max(abs(direct), 1e-300))
    return obs <= 1e-10, 1e-10, obs, "normalized recurrence vs raw polynomial, n <= 25"


def _check_hermite_parity():
    rng = _rng()
    obs = 0.0
    for _ in range(100):
        n = int(rng.integers(0, 60))
        k = float(rng.uniform(0.01, 6.0))
        obs = max(obs, abs(xi(n, -k) - (-1.0) ** n * xi(n, k)))
    return obs <= 1e-14, 1e-14, obs, "xi(n,-k) = (-1)^n xi(n,k)"


def _random_grid_function(rng, box):
    vals = rng.standard_normal(box.extents) + 1j * rng.standard_normal(box.extents)
    return GridFunction(box, vals)


def _check_grid_linearity():
    rng = _rng()
    box = GridBox((6, 5, 4))
    f = _random_grid_function(rng, box)
    g = _random_grid_function(rng, box)
    alpha, beta = 0.7 - 1.2j, -0.3 + 0.8j
    combo = GridFunction(box, alpha * f.values + beta * g.values)
    obs = 0.0
    ops = [lambda h, ax=ax, op=op: op(h, ax)
           for op in (delta_fwd, delta_bwd, delta_sharp, delta_circle)
           for ax in (1, 2, 3)]
    ops.append(lambda h: laplacian_sharp(h))
    for op in ops:
        lhs = op(combo).values
        rhs = alpha * op(f).values + beta * op(g).values
        obs = max(obs, float(np.max(np.abs(lhs - rhs))))
    return obs <= 1e-14, 1e-14, obs, "Op(af+bg) = a Op(f) + b Op(g), all operators"


def _check_grid_second_difference():
    rng = _rng()
    box = GridBox((8, 3, 3))
    f = _random_grid_function(rng, box)
    composed = delta_bwd(delta_fwd(f, 1), 1)
    v = f.values
    obs = 0.0
    for n in range(composed.origin[0], box.extents[0] - 1):
        direct = v[n + 1] - 2.0 * v[n] + v[n - 1]
        obs = max(obs, float(np.max(np.abs(composed.values[n - composed.origin[0]] - direct))))
    return obs <= 1e-14, 1e-14, obs, "forward then backward = standard second difference"


def _check_grid_eigen_structure():
    rng = _rng()
    box = GridBox((34, 2, 2))
    obs = 0.0
    for _ in range(20):
        k = (float(rng.uniform(-3, 3)), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        f = mode_function(box, k)
        twice = delta_sharp(delta_sharp(f, 1), 1)
        o = twice.origin[0]
        span = twice.values.shape[0]
        # the sharp difference multiplies the mode by ik1, so twice gives -k1^2
        want = -(k[0] ** 2) * f.values[o:o + span]
        obs = max(obs, float(np.max(np.abs(twice.values - want))))
    return obs <= 1e-10, 1e-10, obs, "two sharp differences reproduce -k1^2 on modes, n <= 30"


def _check_grid_boundary_origin():
    rng = _rng()
    box = GridBox((6, 2, 2))
    f = _random_grid_function(rng, box)
    out = delta_sharp(f, 1)
    if out.origin[0] != 0:
        return False, 0.0, math.inf, "sharp difference lost the origin row"
    want = f.values[1] / math.sqrt(2.0)
    obs = float(np.max(np.abs(out.values[0] - want)))
    return obs <= 1e-14, 1e-14, obs, "origin row uses only the upper neighbor (sqrt(0) kills the lower)"


def _check_dirac_clifford():
    gs = gamma_provider()
    eta = (1.0, 1.0, 1.0, -1.0)
    eye = np.eye(4)
    obs = 0.0
    for a in range(1, 5):
        for b in range(1, 5):
            anti = gs[a] @ gs[b] + gs[b] @ gs[a]
            want = 2.0 * eta[a - 1] * eye if a == b else 0.0 * eye
            obs = max(obs, float(np.max(np.abs(anti - want))))
    return obs <= 0.0, 0.0, obs, "gamma^a gamma^b + gamma^b gamma^a = 2 eta^{ab} I, exact"


def _check_dirac_hermiticity():
    gs = gamma_provider()
    obs = 0.0
    for a in range(1, 4):
        obs = max(obs, float(np.max(np.abs(gs[a].conj().T - gs[a]))))
    obs = max(obs, float(np.max(np.abs(gs[4].conj().T + gs[4]))))
    return obs <= 0.0, 0.0, obs, "spatial gammas hermitian, time gamma antihermitian, exact"


def _check_dirac_orthonormality():
    rng = _rng()
    m = 1.0
    obs = 0.0
    for _ in range(100):
        p = rng.uniform(-1, 1, 3)
        p *= rng.uniform(0, 10 * m) / max(float(np.linalg.norm(p)), 1e-12)
        obs = max(obs, dirac.orthonormality_check(tuple(p), m))
    return obs <= 1e-12, 1e-12, obs, "adjoint products, 100 random p with |p| <= 10m"


def _check_dirac_spin_sum():
    rng = _rng()
    m = 1.0
    gs = dirac.gamma_set()
    obs = 0.0
    for _ in range(100):
        p = tuple(rng.uniform(-5, 5, 3))
        e = dirac.energy(p, m)
        want = (-1j * (p[0] * gs[1] + p[1] * gs[2] + p[2] * gs[3])
                + 1j * e * gs[4] + m * np.eye(4)) / (2.0 * e)
        obs = max(obs, float(np.max(np.abs(dirac.spin_sum(p, m) - want))))
    return obs <= 1e-12, 1e-12, obs, "(m/E) sum_r u ubar vs closed projector, 100 random p"


def _check_dirac_mode_equation():
    rng = _rng()
    m = 1.0
    gs = dirac.gamma_set()
    obs = 0.0
    for _ in range(50):
        p = tuple(rng.uniform(-3, 3, 3))
        e = dirac.energy(p, m)
        op = -1j * (p[0] * gs[1] + p[1] * gs[2] + p[2] * gs[3]) + 1j * e * gs[4]
        for r in (1, 2):
            obs = max(obs, float(np.max(np.abs((op - m * np.eye(4)) @ dirac.spinor_u(r, p, m)))))
            obs = max(obs, float(np.max(np.abs((op + m * np.eye(4)) @ dirac.spinor_v(r, p, m)))))
    return obs <= 1e-12, 1e-12, obs, "momentum-space mode equation for u and v spinors"


def _check_dirac_low_momentum_order():
    m = 1.0
    norms = np.geomspace(0.01, 0.1, 7)
    errs = []
    direction = np.array([0.6, -0.64, 0.48])
    direction /= np.linalg.norm(direction)
    for s in norms:
        p = tuple(s * direction)
        err = max(
            float(np.max(np.abs(dirac.low_momentum_u(r, p, m) - dirac.spinor_u(r, p, m))))
            for r in (1, 2)
        )
        errs.append(err)
    slope = float(np.polyfit(np.log(norms), np.log(errs), 1)[0])
    obs = abs(slope - 4.0)
    return obs <= 0.2, 0.2, obs, f"log-log error slope {slope:.3f}, expected quartic"


def _check_dirac_projector_orthonormality():
    # at dt = 0 the gamma4 part of s_plus_green is -i/2 pi^{-3/2} times the
    # pair's orthonormality integral, pi^{3/2} delta(n, nhat), at any mass,
    # and gamma4 = diag(-i, -i, i, i), so S[0,0] - S[2,2] = -i delta(n, nhat)
    # for a pair even in every axis: six on the diagonal, four off it
    pairs = [(n, n) for n in ((0, 0, 0), (1, 1, 0), (4, 4, 4), (11, 7, 5), (20, 20, 20), (60, 60, 60))]
    pairs += [((2, 0, 0), (0, 0, 0)), ((2, 1, 3), (0, 3, 1)), ((6, 2, 0), (2, 4, 2)), ((40, 0, 2), (0, 40, 2))]
    cfg = QuadratureConfig()
    obs = 0.0
    for m in (0.5, 1.0, 3.0):
        for n, nhat in pairs:
            s = dirac.s_plus_green(n, nhat, 0.0, m, cfg)
            obs = max(obs, abs(s[0, 0] - s[2, 2] + (1j if n == nhat else 0.0)))
    return obs <= 1e-13, 1e-13, obs, "s_plus_green at dt = 0: S[0,0] - S[2,2] = -i delta(n, nhat), 10 pairs"


def _check_kg_mode_residual():
    rng = _rng()
    box = GridBox((12, 11, 10))
    obs = 0.0
    for _ in range(10):
        k = tuple(rng.uniform(-2, 2, 3))
        mu = float(rng.uniform(0.2, 3.0))
        f = mode_function(box, k)
        scale = float(np.max(np.abs(f.values)))
        obs = max(obs, kg_mode_residual(k, mu, box) / scale)
    return obs <= 1e-12, 1e-12, obs, "Klein-Gordon residual relative to mode amplitude"


def _check_greens_non_singularity():
    cfg = QuadratureConfig()
    obs = 0.0
    biggest = 0.0
    for mu in (0.25, 1.0, 4.0):
        for n1 in range(0, 41, 4):
            v = w_sharp(n1, mu, cfg)
            if not math.isfinite(v):
                return False, 1e-6, math.inf, f"w_sharp({n1}, {mu}) not finite"
            biggest = max(biggest, abs(v))
    for mu in (0.25, 0.5, 1.0, 2.0, 4.0):
        closed = yukawa_coincidence(mu)
        obs = max(obs, abs(w_sharp(0, mu, cfg) - closed) / closed)
    for half in range(6):
        closed = coulomb_even(half)
        quad = coulomb_quadrature(2 * half, cfg).value
        obs = max(obs, abs(quad - closed) / closed)
    return obs <= 1e-6, 1e-6, obs, f"coincidence vs closed forms; max |value| seen {biggest:.3f}"


def _check_greens_parity_selection():
    rng = _rng()
    cfg = QuadratureConfig()
    obs = 0.0
    count = 0
    while count < 50:
        n = tuple(int(v) for v in rng.integers(0, 5, 3))
        nhat = tuple(int(v) for v in rng.integers(0, 5, 3))
        if all((a - b) % 2 == 0 for a, b in zip(n, nhat)):
            continue
        count += 1
        obs = max(obs, abs(g_sharp(n, nhat, 1.0, cfg).value))
    return obs <= 0.0, 0.0, obs, "50 parity-violating pairs at mu=1 give exact zeros"


def _check_greens_symmetry():
    cfg = QuadratureConfig()
    obs = 0.0
    for n, nhat in (((2, 0, 0), (0, 0, 0)), ((3, 1, 2), (1, 1, 0)), ((2, 2, 4), (0, 2, 2))):
        a = g_sharp(n, nhat, 1.0, cfg)
        b = g_sharp(nhat, n, 1.0, cfg)
        excess = abs(a.value - b.value.conjugate()) - (a.err_estimate + b.err_estimate)
        obs = max(obs, excess)
    return obs <= 1e-12, 1e-12, obs, "g_sharp(n, nhat) = conj(g_sharp(nhat, n)) within error bars"


def _check_greens_monotonicity():
    cfg = QuadratureConfig()
    mus = np.linspace(0.1, 4.0, 25)
    vals = [w_sharp(0, float(mu), cfg) for mu in mus]
    obs = max(vals[i + 1] - vals[i] for i in range(len(vals) - 1))
    return obs < 0.0, 0.0, obs, "w_sharp(0, mu) strictly decreasing on [0.1, 4]"


def _tensor_greens(pairs, mu: float, n_nodes: int) -> np.ndarray:
    """G(n, nhat; mu) of each pair as a plain tensor Gauss-Hermite sum, with no
    pole model or proper time: nothing shared with the closed forms or
    g_proper_time.  The pole at mu -> 0 defeats it (1e-7 off at mu = 0.5)."""
    x2 = gauss_hermite(n_nodes)[0] ** 2
    cube = 1.0 / (x2[:, None, None] + x2[None, :, None] + x2[None, None, :] + mu * mu)
    table = weighted_phi_table(max(max(n + nhat) for n, nhat in pairs), n_nodes)
    a, b, c = (np.array([table[n[k]] * table[nhat[k]] for n, nhat in pairs]) for k in range(3))
    phase = np.array([(-1) ** ((sum(n) - sum(nhat)) // 2) for n, nhat in pairs])
    return math.pi ** -1.5 * phase * np.einsum("pi,pj,pk,ijk->p", a, b, c, cube, optimize=True)


def _check_greens_cross_method():
    # each value against a route that shares no code with it: the axis
    # table against the proper-time sum, and, at mu >= 1 where the pole
    # does not defeat the plain tensor sum, the axis table and g_sharp of
    # the general pairs (their proper-time sums) against that tensor sum
    cfg = QuadratureConfig()
    pairs = [((n1, 0, 0), (0, 0, 0)) for n1 in (0, 2, 4)]
    pairs += [((2, 1, 0), (0, 1, 2)), ((3, 1, 2), (1, 1, 0))]
    obs = -math.inf
    for mu in (0.5, 1.0, 2.0):
        axis = [g_sharp_axis(n[0], mu, cfg) for n, _ in pairs[:3]]
        compared = [((v.value, v.err_estimate), ref)
                    for v, ref in zip((g_proper_time(*p, mu, cfg) for p in pairs), axis)]
        if mu >= 1.0:
            values, defect = refined(lambda k: _tensor_greens(pairs, mu, 64 * k),
                                     100.0 * cfg.tol, "tensor Green's values at mu={}", mu)
            refs = axis + [g_sharp(n, nhat, mu, cfg) for n, nhat in pairs[3:]]
            compared += [((v, defect), ref) for v, ref in zip(values, refs)]
        for (value, err), ref in compared:
            obs = max(obs, abs(value - ref.value) - (err + ref.err_estimate))
    return (obs <= 1e-10, 1e-10, obs, "axis table vs proper-time sums; axis table and general "
            "g_sharp vs tensor sums at mu >= 1; combined error bars")


def _zero_kinematics(mu=1.0, g=1.0):
    zero = (0.0, 0.0, 0.0)
    return MollerKinematics(zero, zero, zero, zero, m=1.0, mu=mu, g=g)


def _check_scattering_spin_selection():
    kin = MollerKinematics((0.1, 0, 0), (0, 0.1, 0), (0.1, 0, 0), (0, 0.1, 0),
                           m=1.0, mu=1.0, g=1.0, r1=1, r1_out=2)
    el = moller_reduced_element(kin, VertexTruncation(8), QuadratureConfig())
    obs = abs(el)
    return obs <= 0.0, 0.0, obs, "mismatched spins give the exact zero element"


@contextlib.contextmanager
def _quiet_truncation():
    """Several checks under-truncate the vertex sums on purpose (the gap is
    what they measure), so the truncation warning channel is just noise."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        yield


def _check_scattering_g_scaling():
    cfg = QuadratureConfig()
    trunc = VertexTruncation(12)
    with _quiet_truncation():
        base = moller_reduced_element(_zero_kinematics(g=1.0), trunc, cfg)
        double = moller_reduced_element(_zero_kinematics(g=2.0), trunc, cfg)
    obs = abs(double - 4.0 * base) / abs(4.0 * base)
    return obs <= 1e-13, 1e-13, obs, "coupling enters squared through the prefactor"


def _check_scattering_exchange_symmetry():
    cfg = QuadratureConfig()
    trunc = VertexTruncation(16)
    p1, p2 = (0.10, -0.02, 0.05), (-0.08, 0.04, 0.01)
    p1o, p2o = (0.07, 0.03, 0.02), (-0.05, -0.01, 0.04)
    kin = MollerKinematics(p1, p2, p1o, p2o, m=1.0, mu=1.0, g=1.0)
    swapped = MollerKinematics(p2, p1, p2o, p1o, m=1.0, mu=1.0, g=1.0)
    with _quiet_truncation():
        a = moller_reduced_element(kin, trunc, cfg)
        b = moller_reduced_element(swapped, trunc, cfg)
    obs = abs(a - b) / abs(a)
    return obs <= 1e-10, 1e-10, obs, "swapping the fermion lines leaves the element unchanged"


def moller_oracle_element(kin: MollerKinematics, trunc: VertexTruncation) -> complex:
    """Independent exchange-element route: evaluate both truncated vertex
    sums at every quadrature node, then do the boson-line integral with
    explicit loops.  Shares nothing with the production route beyond the
    kinematic prefactor: it sums over k on a tensor rule, where production
    sums per-axis polynomials of the proper time on its lattice.

    The truncated vertex sums hold polynomial content of degree ``n_max``
    per factor, and the boson denominator is not polynomial at all, so the
    rule must be generous: its 96 nodes per axis resolve the ``n_max = 32``
    box to a few parts in 1e7 at mu = 1, while 48 nodes leave a per-mille
    defect.  The rule's error grows as mu falls."""
    if kin.r1 != kin.r1_out or kin.r2 != kin.r2_out:
        return 0j
    x, w = gauss_hermite(96)
    g = []
    for a in range(3):
        row = np.empty(x.size, complex)
        for i in range(x.size):
            v1 = vertex_axis_sum(kin.p1[a], kin.p1_out[a], float(x[i]), -1, +1, trunc)
            v2 = vertex_axis_sum(kin.p2[a], kin.p2_out[a], float(x[i]), -1, -1, trunc)
            row[i] = v1 * v2
        g.append(w * row * np.exp(x * x))
    x2 = x * x
    mu2 = kin.mu ** 2
    acc = 0j
    for i in range(x.size):
        di = x2[i] + mu2
        for j in range(x.size):
            acc += g[0][i] * g[1][j] * np.sum(g[2] / (di + x2[j] + x2))
    return kin.prefactor * complex(acc)


def _check_scattering_oracle_equivalence():
    cfg = QuadratureConfig()
    trunc = VertexTruncation(32)
    obs = 0.0
    rng = _rng()
    direction = rng.uniform(-1, 1, (4, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    ps = [tuple(0.1 * d) for d in direction]
    cases = [
        _zero_kinematics(),
        MollerKinematics(ps[0], ps[1], ps[2], ps[3], m=1.0, mu=1.0, g=1.0),
    ]
    for kin in cases:
        with _quiet_truncation():
            prod = moller_reduced_element(kin, trunc, cfg)
        oracle = moller_oracle_element(kin, trunc)
        obs = max(obs, abs(prod - oracle) / abs(oracle))
    return obs <= 1e-4, 1e-4, obs, "profile contraction vs sum-vertices-first, n_max=32"


def _check_scattering_truncation_diagnostic():
    # The doubling gaps |el(2N) - el(N)| do not shrink monotonically: the
    # vertex sums are distributional and the double sum has no established
    # large-cutoff limit, so convergence is reported, never asserted.  What
    # is asserted: the cutoff sweep reproduces frozen values and the
    # last-shell diagnostic shrinks as the cutoff grows.  The pins are the
    # nearest doubles to the element's proper-time integral evaluated by
    # mpmath from exact Hermite coefficients at 220 digits.
    cfg = QuadratureConfig()
    kin = MollerKinematics((0.15, 0.05, -0.1), (-0.12, 0.08, 0.06),
                           (0.1, 0.1, -0.08), (-0.07, 0.03, 0.04),
                           m=1.0, mu=0.5, g=1.0)
    frozen = {8: 0.017129010505357912, 16: 0.026205307419804855,
              32: 0.03566994587640435, 64: 0.04409116112218687}
    els, tails = {}, {}
    with _quiet_truncation():
        for n_max in (8, 16, 32, 64):
            trunc = VertexTruncation(n_max)
            els[n_max], tails[n_max] = moller_element_and_shift(kin, trunc, cfg)
    obs = max(abs(els[n] - frozen[n]) / frozen[n] for n in frozen)
    tails_shrink = all(tails[2 * n] < tails[n] for n in (8, 16, 32))
    gaps = [abs(els[2 * n] - els[n]) for n in (8, 16, 32)]
    detail = ("last-shell size " + ", ".join(f"{tails[n]:.2e}" for n in (8, 16, 32, 64))
              + "; doubling gaps " + ", ".join(f"{d:.2e}" for d in gaps))
    return obs <= 1e-10 and tails_shrink, 1e-10, obs, detail


def _check_greens_residual_box():
    cfg = QuadratureConfig()
    obs = 0.0
    for mu in (0.5, 1.0, 2.0):
        for n0 in range(3):
            for n1 in range(3):
                for n2 in range(3):
                    for h0 in range(3):
                        for h1 in range(3):
                            for h2 in range(3):
                                r = difference_equation_residual(
                                    (n0, n1, n2), (h0, h1, h2), mu, cfg)
                                obs = max(obs, r)
    return obs <= 1e-6, 1e-6, obs, "second-difference identity over the 3^3 x 3^3 box"


_FAST = [
    ("hermite_orthonormality", _check_hermite_orthonormality),
    ("hermite_eigen_relation", _check_hermite_eigen_relation),
    ("hermite_recurrence_vs_direct", _check_hermite_recurrence_vs_direct),
    ("hermite_parity", _check_hermite_parity),
    ("grid_linearity", _check_grid_linearity),
    ("grid_second_difference", _check_grid_second_difference),
    ("grid_eigen_structure", _check_grid_eigen_structure),
    ("grid_boundary_origin", _check_grid_boundary_origin),
    ("dirac_clifford", _check_dirac_clifford),
    ("dirac_hermiticity", _check_dirac_hermiticity),
    ("dirac_orthonormality", _check_dirac_orthonormality),
    ("dirac_spin_sum", _check_dirac_spin_sum),
    ("dirac_mode_equation", _check_dirac_mode_equation),
    ("dirac_low_momentum_order", _check_dirac_low_momentum_order),
    ("dirac_projector_orthonormality", _check_dirac_projector_orthonormality),
    ("kg_mode_residual", _check_kg_mode_residual),
    ("greens_non_singularity", _check_greens_non_singularity),
    ("greens_parity_selection", _check_greens_parity_selection),
    ("greens_symmetry", _check_greens_symmetry),
    ("greens_monotonicity", _check_greens_monotonicity),
    ("greens_cross_method", _check_greens_cross_method),
    ("scattering_spin_selection", _check_scattering_spin_selection),
    ("scattering_g_scaling", _check_scattering_g_scaling),
    ("scattering_exchange_symmetry", _check_scattering_exchange_symmetry),
]

_FULL_EXTRA = [
    ("greens_residual_box", _check_greens_residual_box),
    ("scattering_truncation_diagnostic", _check_scattering_truncation_diagnostic),
    ("scattering_oracle_equivalence", _check_scattering_oracle_equivalence),
]


def suite_names(suite: str) -> list[str]:
    if suite == "fast":
        return [name for name, _ in _FAST]
    if suite == "full":
        return [name for name, _ in _FAST + _FULL_EXTRA]
    raise ValueError(f"unknown suite {suite!r}, expected 'fast' or 'full'")


def run_suite(suite: str) -> list[CheckResult]:
    """Run every check in the suite, never letting one failure stop the
    rest; an exception inside a check is itself a failure."""
    table = dict(_FAST + _FULL_EXTRA)
    results = []
    for name in suite_names(suite):
        start = time.perf_counter()
        try:
            passed, tol, obs, detail = table[name]()
        except Exception as exc:  # noqa: BLE001 - report, don't abort the suite
            passed, tol, obs, detail = False, math.nan, math.inf, f"raised {exc!r}"
        results.append(CheckResult(name, bool(passed), float(tol), float(obs),
                                   time.perf_counter() - start, detail))
    return results
