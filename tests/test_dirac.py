import itertools
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hermgrid
import sphere_route
from hermgrid import dirac
from hermgrid.errors import DomainError, NonconvergenceError, OrderTooLargeError
from hermgrid.hermite import phi_row, xi
from hermgrid.quadrature import QuadratureConfig, gauss_hermite, gauss_legendre, hermite_half, weighted_phi_table


def test_gamma_entries():
    gs = dirac.gamma_set()
    assert np.array_equal(gs[1][0], np.array([0, 0, 0, 1], complex))
    assert np.array_equal(np.diag(gs[4]), np.array([-1j, -1j, 1j, 1j]))
    with pytest.raises(ValueError):
        gs[0]
    with pytest.raises(ValueError):
        gs[5]


def test_clifford_relations_exact():
    gs = dirac.gamma_set()
    eye = np.eye(4, dtype=complex)
    for a in range(1, 5):
        for b in range(1, 5):
            anti = gs[a] @ gs[b] + gs[b] @ gs[a]
            sign = -2.0 if a == b == 4 else (2.0 if a == b else 0.0)
            assert np.array_equal(anti, sign * eye)


def test_hermiticity_split():
    gs = dirac.gamma_set()
    for a in (1, 2, 3):
        assert np.array_equal(gs[a].conj().T, gs[a])
    assert np.array_equal(gs[4].conj().T, -gs[4])


def test_energy_example():
    assert dirac.energy((3.0, 4.0, 0.0), 1e-3) == pytest.approx(5.0000001, rel=1e-9)
    with pytest.raises(DomainError):
        dirac.energy((0.0, 0.0, 0.0), -1.0)


def test_rest_frame_spinors_are_unit_vectors():
    m = 1.3
    zero = (0.0, 0.0, 0.0)
    assert np.allclose(dirac.spinor_u(1, zero, m), [1, 0, 0, 0])
    assert np.allclose(dirac.spinor_u(2, zero, m), [0, 1, 0, 0])
    assert np.allclose(dirac.spinor_v(1, zero, m), [0, 0, 1, 0])
    assert np.allclose(dirac.spinor_v(2, zero, m), [0, 0, 0, 1])
    with pytest.raises(ValueError):
        dirac.spinor_u(3, zero, m)


def test_adjoint_examples():
    e1 = np.array([1, 0, 0, 0], complex)
    e3 = np.array([0, 0, 1, 0], complex)
    assert np.allclose(dirac.dirac_adjoint(e1), [1, 0, 0, 0])
    assert np.allclose(dirac.dirac_adjoint(e3), [0, 0, -1, 0])


def test_orthonormality_random_and_extreme():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = tuple(rng.uniform(-2, 2, 3))
        assert dirac.orthonormality_check(p, 1.0) <= 1e-12
    # ultrarelativistic corner stays within the relaxed bound
    assert dirac.orthonormality_check((10.0, 10.0, 10.0), 0.01) <= 1e-10


def test_mode_equation_for_u_and_v():
    gs = dirac.gamma_set()
    rng = np.random.default_rng(12)
    m = 1.0
    for _ in range(25):
        p = tuple(rng.uniform(-3, 3, 3))
        e = dirac.energy(p, m)
        op = -1j * (p[0] * gs[1] + p[1] * gs[2] + p[2] * gs[3]) + 1j * e * gs[4]
        for r in (1, 2):
            ru = (op - m * np.eye(4)) @ dirac.spinor_u(r, p, m)
            rv = (op + m * np.eye(4)) @ dirac.spinor_v(r, p, m)
            assert float(np.max(np.abs(ru))) <= 1e-12
            assert float(np.max(np.abs(rv))) <= 1e-12


def test_spin_sum_rest_frame_projector():
    s = dirac.spin_sum((0.0, 0.0, 0.0), 2.0)
    assert np.allclose(s, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-15)


def test_spin_sum_matches_explicit_outer_products():
    rng = np.random.default_rng(13)
    m = 1.0
    for _ in range(10):
        p = tuple(rng.uniform(-3, 3, 3))
        e = dirac.energy(p, m)
        total = np.zeros((4, 4), complex)
        for r in (1, 2):
            u = dirac.spinor_u(r, p, m)
            total += np.outer(u, dirac.dirac_adjoint(u))
        assert np.max(np.abs(dirac.spin_sum(p, m) - (m / e) * total)) <= 1e-13


def test_low_momentum_domain():
    with pytest.raises(DomainError):
        dirac.low_momentum_u(1, (1.5, 0.0, 0.0), 1.0)


def _sphere_points(degree):
    # the octant rule of the sphere route unfolded onto the whole sphere by
    # the eight reflections (four for a polar node at 0), each taking its
    # share of the weight; it is then exact for every polynomial of the
    # degree, odd ones too
    u, s, w, c = sphere_route.sphere_rule(degree, degree)
    points = []
    for t in range(u.size):
        for j in range(c.size):
            base = np.array([s[t] * c[j], s[t] * c[-1 - j], u[t]])
            signs = set(itertools.product((1.0, -1.0), (1.0, -1.0), (1.0, -1.0) if u[t] > 0 else (1.0,)))
            points += [(base * np.array(sg), w[t] / len(signs)) for sg in signs]
    return points


def _s_plus_spinor_route(n, nhat, dt, m, n_nodes):
    # on the projector's own radial rule and the sphere route's points,
    # assembled from explicit spinor projectors instead of gamma-moment
    # accumulation: i * integral of basis pair times (-(m/E) sum_r u u~)
    # e^{-iE dt}.  The radial weights carry r^2 and the xi the Gaussian
    degree = sum(n) + sum(nhat)
    r, wr, _, _ = dirac._radial_rule(n_nodes, degree)
    acc = np.zeros((4, 4), complex)
    for direction, wd in _sphere_points(degree + 1):
        for ri, wi in zip(r, wr):
            k = tuple(float(v) for v in ri * direction)
            pair = 1.0
            for a in range(3):
                pair *= xi(n[a], k[a]) * np.conj(xi(nhat[a], k[a]))
            e = dirac.energy(k, m)
            acc += wi * wd * pair * np.exp(-1j * e * dt) * (-dirac.spin_sum(k, m))
    return 1j * acc


def test_s_plus_matches_spinor_projector_route():
    # one level of the radial rule at 16 nodes
    for n, nhat, dt in [((1, 0, 1), (0, 2, 1), 0.3), ((2, 1, 0), (0, 1, 0), 0.7),
                        ((0, 0, 0), (0, 0, 0), 0.0)]:
        prod = dirac._s_plus_eval(n, nhat, dt, 1.0, 16)
        oracle = _s_plus_spinor_route(n, nhat, dt, 1.0, 16)
        assert float(np.max(np.abs(prod - oracle))) <= 1e-12


def test_s_plus_single_axis_excitation_is_gamma1_proportional():
    gs = dirac.gamma_set()
    m1 = dirac._s_plus_eval((1, 0, 0), (0, 0, 0), 0.4, 1.0, 24)
    g1 = gs[1]
    nz = np.abs(g1) > 0
    c = m1[nz][0] / g1[nz][0]
    assert float(np.max(np.abs(m1 - c * g1))) <= 1e-14
    assert abs(c) > 1e-3


def test_s_plus_equal_time_is_finite_and_refines():
    val = dirac.s_plus_green((0, 0, 0), (0, 0, 0), 0.0, 1.0, QuadratureConfig())
    assert np.all(np.isfinite(val))
    with pytest.raises(DomainError):
        dirac.s_plus_green((0, 0, 0), (0, 0, 0), 0.0, 0.0, QuadratureConfig())


def test_s_plus_nonconvergence_gate():
    # at m = 0.01 the branch point of E sits near the real axis, and 64 and
    # 128 radial nodes differ by 2.6e-9
    args = ((0, 0, 0), (0, 0, 0), 0.5, 0.01)
    with pytest.raises(NonconvergenceError):
        dirac.s_plus_green(*args, QuadratureConfig(tol=1e-15))
    # the gate is tol itself on the largest entry defect, not the 100*tol
    # of the Green's values
    coarse, fine = (dirac._s_plus_eval(*args, g) for g in (64, 128))
    defect = float(np.max(np.abs(fine - coarse)))
    assert defect > 0
    assert np.array_equal(dirac.s_plus_green(*args, QuadratureConfig(tol=defect)), fine)
    with pytest.raises(NonconvergenceError):
        dirac.s_plus_green(*args, QuadratureConfig(tol=defect / 10))


def _s_plus_full_grid(n, nhat, dt, m, n_nodes):
    # the five integrals as plain tensor Gauss-Hermite sums over every term
    # of the whole N^3 grid, with E built per node triple.  The terms are
    # summed exactly (math.fsum), so the reference adds no rounding of its
    # own beyond that of each term
    x, _ = gauss_hermite(n_nodes)
    table = weighted_phi_table(max(max(n), max(nhat)), n_nodes)
    p = [table[n[a]] * table[nhat[a]] for a in range(3)]
    x2 = x * x
    e = np.sqrt(x2[:, None, None] + x2[None, :, None] + x2[None, None, :] + m * m)
    osc = np.exp(-1j * dt * e)

    def integral(kernel, axis=None):
        v = [x * p[a] if a == axis else p[a] for a in range(3)]
        terms = (v[0][:, None, None] * v[1][None, :, None] * v[2][None, None, :] * kernel).ravel()
        return complex(math.fsum(terms.real), math.fsum(terms.imag))

    g1, g2, g3, g4 = (dirac.gamma_set()[a] for a in range(1, 5))
    i_1, i_2, i_3 = (integral(osc / (2 * e), axis) for axis in range(3))
    core = (1j * (g1 * i_1 + g2 * i_2 + g3 * i_3) - 1j * g4 * 0.5 * integral(osc)
            - m * integral(osc / (2 * e)) * np.eye(4))
    return 1j * 1j ** ((sum(n) - sum(nhat)) % 4) * math.pi ** -1.5 * core


@pytest.mark.parametrize("n_nodes", (9, 33))
def test_s_plus_matches_full_grid_at_odd_node_counts(n_nodes):
    # an independent oracle: the full-grid sum at 2N - 1 nodes, whose error
    # its defect against N nodes bounds; the projector at the default config
    # lies within that defect of it (odd rules put a grid node at k = 0)
    for n, nhat, dt, m in [((1, 0, 0), (0, 0, 0), 0.4, 1.0), ((1, 1, 2), (0, 1, 0), 0.8, 1.0),
                           ((2, 2, 0), (0, 0, 2), 1.3, 0.6), ((0, 0, 0), (0, 0, 0), 0.0, 2.0)]:
        got = dirac.s_plus_green(n, nhat, dt, m, QuadratureConfig())
        coarse = _s_plus_full_grid(n, nhat, dt, m, n_nodes)
        oracle = _s_plus_full_grid(n, nhat, dt, m, 2 * n_nodes - 1)
        assert float(np.max(np.abs(got - oracle))) <= float(np.max(np.abs(coarse - oracle))) + 1e-15


def _gauss_moment(j, n, nhat):
    # integral of x^j phi_n(x) phi_nhat(x) e^{-x^2} dx in closed form: apply
    # x phi_k = sqrt((k+1)/2) phi_{k+1} + sqrt(k/2) phi_{k-1} j times to the
    # coefficient vector of phi_n, then use orthogonality (norm sqrt(pi))
    vec = {n: 1.0}
    for _ in range(j):
        nxt = {}
        for k, c in vec.items():
            nxt[k + 1] = nxt.get(k + 1, 0.0) + c * math.sqrt((k + 1) / 2)
            if k:
                nxt[k - 1] = nxt.get(k - 1, 0.0) + c * math.sqrt(k / 2)
        vec = nxt
    return math.sqrt(math.pi) * vec.get(nhat, 0.0)


POLYNOMIAL_PAIRS = [((0, 0, 0), (0, 0, 0)), ((2, 0, 0), (0, 0, 0)), ((1, 0, 0), (0, 0, 0)),
                    ((1, 2, 1), (1, 0, 1)), ((3, 1, 2), (3, 1, 2)), ((2, 3, 1), (2, 2, 1)),
                    ((0, 6, 0), (0, 4, 0)), ((4, 4, 4), (2, 4, 4)), ((20, 20, 20), (20, 20, 20)),
                    ((40, 0, 1), (40, 0, 0))]


def _assert_moments(n, nhat, r, f):
    # the weighted profile against the closed-form Gaussian moments of the
    # pair polynomial for K = 1 and K = k.k (times k_a for the axis a where
    # the pair is odd)
    odd = [a for a in range(3) if (n[a] + nhat[a]) % 2]
    lift = [1 if a in odd else 0 for a in range(3)]
    one = math.prod(_gauss_moment(lift[a], n[a], nhat[a]) for a in range(3))
    kk = sum(math.prod(_gauss_moment(lift[a] + 2 * (a == b), n[a], nhat[a]) for a in range(3))
             for b in range(3))
    assert one != 0 or kk != 0
    assert abs(f.sum() - one) <= 2e-13
    assert abs(f @ (r * r) - kk) <= 2e-13 * (sum(n) + sum(nhat) + 3)


@pytest.mark.parametrize("block", (sphere_route.BLOCK, 64))
@pytest.mark.parametrize("n, nhat", POLYNOMIAL_PAIRS)
def test_spherical_rule_is_exact_for_polynomial_kernels(n, nhat, block):
    # the reference route: the radial and sphere rules, also when the sphere
    # is walked in small blocks.  At high orders the radius must grow with
    # the order: R = 10 is 4e-2 off at (20, 20, 20)^2
    odd = [a for a in range(3) if (n[a] + nhat[a]) % 2]
    r, f = sphere_route.weighted_profile(n, nhat, odd, max(64, sum(n) + sum(nhat)), block)
    _assert_moments(n, nhat, r, f)


@pytest.mark.parametrize("n, nhat", POLYNOMIAL_PAIRS)
def test_shell_profile_is_exact_for_polynomial_kernels(n, nhat):
    odd = [a for a in range(3) if (n[a] + nhat[a]) % 2]
    r, f = dirac._shell_profile(n, nhat, odd, max(64, sum(n) + sum(nhat)))
    _assert_moments(n, nhat, r, f)


@pytest.mark.parametrize("n, nhat", [((150, 150, 150), (150, 150, 150)),
                                     ((150, 150, 151), (150, 150, 150)),
                                     ((363, 363, 363), (363, 363, 363))])
def test_shell_profile_is_exact_at_high_degree(n, nhat):
    # K = 1 against prod_a integral of phi_{n_a} phi_{nhat_a} (times k_a) e^{-k_a^2},
    # pi^{3/2} for the squares: past r = 27.3 e^{-r^2} is below the double
    # range, and without the exponent carried apart (150,150,150)^2 is 6% off
    odd = [a for a in range(3) if (n[a] + nhat[a]) % 2]
    r, f = dirac._shell_profile(n, nhat, odd, sum(n) + sum(nhat))
    one = math.prod(_gauss_moment(int(a in odd), n[a], nhat[a]) for a in range(3))
    assert abs(f.sum() - one) <= 5e-14 * abs(one)


@pytest.mark.parametrize("n, nhat", POLYNOMIAL_PAIRS + [((100, 0, 0), (0, 50, 50))])
def test_shell_profile_matches_the_sphere_route(n, nhat):
    # two routes to the same weighted profile at the same radial nodes: the
    # l = 0 shell sum and the average over a product sphere rule
    odd = [a for a in range(3) if (n[a] + nhat[a]) % 2]
    n_nodes = max(64, sum(n) + sum(nhat))
    r, f = dirac._shell_profile(n, nhat, odd, n_nodes)
    _, ref = sphere_route.weighted_profile(n, nhat, odd, n_nodes)
    assert float(np.max(np.abs(f - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("n_nodes, degree", [(64, 0), (128, 12), (256, 120)])
def test_radial_weights_carry_about_one_ulp(n_nodes, degree):
    # w r^2 e^{-r^2} at the double nodes r against 40 digits, given the
    # Gauss-Legendre weight: rounding r^2 first would cost r^2 ulps (up to
    # 200 at the outer nodes of degree 120)
    mp = pytest.importorskip("mpmath")
    r, wr, gauss, exponent = dirac._radial_rule(n_nodes, degree)
    w = wr * np.ldexp(gauss, -exponent)
    _, wy = gauss_legendre(n_nodes)
    half = 0.5 * dirac._radius(degree)
    with mp.workdps(40):
        worst = max(abs(float(wi / (mp.mpf(half) * float(g) * mp.mpf(float(ri)) ** 2
                                    * mp.exp(-mp.mpf(float(ri)) ** 2)) - 1))
                    for ri, wi, g in zip(r, w, wy) if wi > 0)
    assert worst <= 4 * 2.0 ** -52


def test_radius_rests_on_mehlers_bound_and_grows_with_the_degree():
    # phi_n(x)^2 <= t^-n (1-t^2)^-1/2 e^{2 x^2 t/(1+t)}: the terms of Mehler's
    # series sum_n t^n phi_n(x)^2 = (1-t^2)^-1/2 e^{2 x^2 t/(1+t)} are >= 0
    x = np.linspace(-12.0, 12.0, 97)
    rows = phi_row(60, x) ** 2
    for t in (0.01, 0.1, 0.3, 0.5):
        bound = t ** -np.arange(61.0)[:, None] * np.exp(2 * x * x * t / (1 + t)) / math.sqrt(1 - t * t)
        assert np.all(rows <= bound * (1 + 1e-12))
    radii = [dirac._radius(d) for d in range(0, 600, 12)]
    assert all(a < b for a, b in zip(radii, radii[1:]))
    assert 6.5 < radii[0] < 7.5 and radii[10] > 14


@pytest.mark.parametrize("bad", [(-1, 0, 0), (0, 0, -2), (0.5, 0, 0), (0, 0)])
def test_s_plus_rejects_bad_indices(bad):
    cfg = QuadratureConfig()
    with pytest.raises(ValueError):
        dirac.s_plus_green(bad, (0, 0, 0), 0.1, 1.0, cfg)
    with pytest.raises(ValueError):
        dirac.s_plus_green((0, 0, 0), bad, 0.1, 1.0, cfg)


@pytest.mark.parametrize("dt, m", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                   (0.1, math.inf)])
def test_s_plus_rejects_non_finite_time_and_mass(dt, m):
    with pytest.raises(DomainError):
        dirac.s_plus_green((0, 0, 0), (0, 0, 0), dt, m, QuadratureConfig())


def test_s_plus_nan_defect_trips_the_gate():
    # dt E overflows to inf at the outer radial nodes, e^{-i inf} is NaN, and
    # so are the values and their defect
    with pytest.raises(NonconvergenceError), np.errstate(over="ignore", invalid="ignore"):
        dirac.s_plus_green((0, 0, 0), (0, 0, 0), 1e308, 1.0, QuadratureConfig())


@pytest.mark.parametrize("m", [1e160, 1e200, pytest.param(np.float64(1e160), id="float64-1e+160")])
def test_s_plus_rejects_a_mass_whose_square_overflows(m):
    # refused before any kernel is built, and the square of a numpy scalar
    # is taken as a float, so numpy has nothing to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite square"):
            dirac.s_plus_green((0, 0, 0), (0, 0, 0), 0.5, m, QuadratureConfig())


@pytest.mark.parametrize("m", (0.25, 0.5, 1.0))
def test_s_plus_converges_at_small_mass(m):
    # the 27 low-order samples against the origin at the default config; the
    # tensor Gauss-Hermite rule failed its gate for 20 of them at m = 0.5 and
    # 0.25 (the branch point of E at |k| = i m), the radial rule on [0, R]
    # resolves it
    cfg = QuadratureConfig()
    for n in itertools.product(range(3), repeat=3):
        coarse, fine = (dirac._s_plus_eval(n, (0, 0, 0), 0.4, m, 64 * k) for k in (1, 2))
        assert float(np.max(np.abs(fine - coarse))) <= 1e-12
        assert np.array_equal(dirac.s_plus_green(n, (0, 0, 0), 0.4, m, cfg), fine)


@pytest.mark.parametrize("n", [(16, 16, 16), (20, 20, 20), (24, 12, 1)])
def test_s_plus_converges_at_high_degree(n):
    # a pair of degree D needs about D radial nodes: at 64 and 128 nodes the
    # defect of (20, 20, 20)^2 is 7e-4, so the rule runs at max(64, D);
    # against one level at 512 nodes
    got = dirac.s_plus_green(n, n, 0.4, 1.0, QuadratureConfig())
    wide = dirac._s_plus_eval(n, n, 0.4, 1.0, 512)
    assert float(np.max(np.abs(got - wide))) <= 1e-13


def test_s_plus_identical_across_thread_counts():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermgrid.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, hermgrid; sys.stdout.buffer.write(b''.join(hermgrid.s_plus_green("
            "n, nhat, 0.37, 1.0, hermgrid.QuadratureConfig()).tobytes() for n, nhat in "
            "(((1, 0, 2), (1, 2, 0)), ((1, 0, 2), (0, 0, 1)), ((12, 9, 8), (4, 5, 0)))))")
    outs = []
    for threads in ("1", "2"):
        env["HERMGRID_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert run.returncode == 0
        outs.append(run.stdout)
    assert len(outs[0]) == 3 * 16 * 16
    assert outs[0] == outs[1]


def test_s_plus_refuses_a_pair_past_the_gauss_hermite_cap():
    # an axis whose n_a + nhat_a (plus one where the pair is odd in that axis
    # alone) reaches GH_RULE_MAX = 728 would need a Gauss-Hermite rule past
    # the cap, and is refused before any rule is built.  The largest pairs
    # below the cap converge at the default config, a pair odd in two axes
    # is an exact zero at any order, and nothing warns
    cfg = QuadratureConfig()
    caches = (dirac._radial_rule, dirac._axis_overlaps, hermite_half, gauss_legendre)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sizes = [c.cache_info().currsize for c in caches]
        for n, nhat in (((728, 0, 0), (0, 0, 0)), ((400, 0, 0), (400, 0, 0))):
            with pytest.raises(OrderTooLargeError, match=re.escape(f"n={n}, nhat={nhat}")):
                dirac.s_plus_green(n, nhat, 0.4, 1.0, cfg)
        assert [c.cache_info().currsize for c in caches] == sizes
        for n in ((363, 363, 363), (150, 150, 150)):
            assert np.all(np.isfinite(dirac.s_plus_green(n, n, 0.4, 1.0, cfg)))
        assert not dirac.s_plus_green((1001, 1001, 0), (0, 0, 0), 0.4, 1.0, cfg).any()


def test_dirac_adjoint_reads_the_shared_gamma4(monkeypatch):
    # the adjoint multiplies by the module's read-only gamma4, built once,
    # and gives the bits of a freshly built one
    s = dirac.spinor_u(1, (0.3, -0.2, 0.5), 1.0)
    want = 1j * (np.conj(s) @ dirac.gamma_set()[4])

    def refuse():
        raise AssertionError("gamma matrices rebuilt")

    monkeypatch.setattr(dirac, "_gamma_matrices", refuse)
    assert np.array_equal(dirac.dirac_adjoint(s), want)
