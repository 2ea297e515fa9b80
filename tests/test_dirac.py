import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hermgrid
from hermgrid import dirac
from hermgrid.errors import DomainError, NonconvergenceError
from hermgrid.hermite import xi
from hermgrid.quadrature import QuadratureConfig, gauss_hermite, weighted_phi_table


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


def _s_plus_spinor_route(n, nhat, dt, m, n_nodes):
    # same tensor rule, assembled from explicit spinor projectors instead of
    # gamma-moment accumulation; i * integral of basis pair times
    # (-(m/E) sum_r u u~) e^{-iE dt}
    x, w = gauss_hermite(n_nodes)
    ew = w * np.exp(x * x)
    acc = np.zeros((4, 4), complex)
    for i in range(n_nodes):
        for j in range(n_nodes):
            pair12 = (xi(n[0], x[i]) * np.conj(xi(nhat[0], x[i]))
                      * xi(n[1], x[j]) * np.conj(xi(nhat[1], x[j])))
            for l in range(n_nodes):
                k = (float(x[i]), float(x[j]), float(x[l]))
                e = dirac.energy(k, m)
                pair = pair12 * xi(n[2], x[l]) * np.conj(xi(nhat[2], x[l]))
                acc += (ew[i] * ew[j] * ew[l] * pair * np.exp(-1j * e * dt)
                        * (-dirac.spin_sum(k, m)))
    return 1j * acc


def test_s_plus_matches_spinor_projector_route():
    cfg = QuadratureConfig(gh_nodes=16, refine=False)
    for n, nhat, dt in [((1, 0, 1), (0, 2, 0), 0.3), ((0, 0, 0), (0, 0, 0), 0.0)]:
        prod = dirac.s_plus_green(n, nhat, dt, 1.0, cfg)
        oracle = _s_plus_spinor_route(n, nhat, dt, 1.0, 16)
        assert float(np.max(np.abs(prod - oracle))) <= 1e-12


def test_s_plus_single_axis_excitation_is_gamma1_proportional():
    gs = dirac.gamma_set()
    cfg = QuadratureConfig(gh_nodes=24, refine=False)
    m1 = dirac.s_plus_green((1, 0, 0), (0, 0, 0), 0.4, 1.0, cfg)
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
    with pytest.raises(NonconvergenceError):
        dirac.s_plus_green((0, 0, 0), (0, 0, 0), 0.5, 1.0,
                           QuadratureConfig(gh_nodes=8, tol=1e-15))
    # the gate is tol itself on the largest entry defect, not the 100*tol
    # of the Green's values
    args = ((0, 0, 0), (0, 0, 0), 0.5, 1.0)
    coarse, fine = (dirac.s_plus_green(*args, QuadratureConfig(gh_nodes=g, refine=False))
                    for g in (8, 16))
    defect = float(np.max(np.abs(fine - coarse)))
    assert defect > 0
    assert np.array_equal(dirac.s_plus_green(*args, QuadratureConfig(gh_nodes=8, tol=defect)), fine)
    with pytest.raises(NonconvergenceError):
        dirac.s_plus_green(*args, QuadratureConfig(gh_nodes=8, tol=defect / 10))


def _s_plus_full_grid(n, nhat, dt, m, n_nodes):
    # the five integrals as sums over every term of the whole N^3 grid, with
    # E built per node triple; no fold, no sorted-triple table.  The terms
    # are summed exactly (math.fsum), so the reference adds no rounding of
    # its own beyond that of each term
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


@pytest.mark.parametrize("gh_nodes", (9, 33))
def test_s_plus_matches_full_grid_at_odd_node_counts(gh_nodes):
    # odd rules put a node at x = 0, which the fold counts once
    cfg = QuadratureConfig(gh_nodes=gh_nodes, refine=False)
    for n, nhat, dt, m in [((1, 0, 0), (0, 0, 0), 0.4, 1.0), ((1, 1, 2), (0, 1, 0), 0.8, 1.0),
                           ((2, 2, 0), (0, 0, 2), 1.3, 0.6), ((0, 0, 0), (0, 0, 0), 0.0, 2.0)]:
        got = dirac.s_plus_green(n, nhat, dt, m, cfg)
        want = _s_plus_full_grid(n, nhat, dt, m, gh_nodes)
        assert float(np.max(np.abs(got - want))) <= 1e-15


@pytest.mark.parametrize("bad", [(-1, 0, 0), (0, 0, -2), (0.5, 0, 0), (0, 0)])
def test_s_plus_rejects_bad_indices(bad):
    cfg = QuadratureConfig(gh_nodes=8, refine=False)
    with pytest.raises(ValueError):
        dirac.s_plus_green(bad, (0, 0, 0), 0.1, 1.0, cfg)
    with pytest.raises(ValueError):
        dirac.s_plus_green((0, 0, 0), bad, 0.1, 1.0, cfg)


@pytest.mark.parametrize("dt, m", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                   (0.1, math.inf)])
def test_s_plus_rejects_non_finite_time_and_mass(dt, m):
    for refine in (True, False):
        with pytest.raises(DomainError):
            dirac.s_plus_green((0, 0, 0), (0, 0, 0), dt, m, QuadratureConfig(gh_nodes=8, refine=refine))


def test_s_plus_nan_defect_trips_the_gate():
    # m * m underflows to 0 and the odd coarse rule has a node at the
    # origin, where E = 0: its kernel entry is inf, the coarse value NaN,
    # and so is the defect
    with pytest.raises(NonconvergenceError), np.errstate(divide="ignore", invalid="ignore"):
        dirac.s_plus_green((0, 0, 0), (0, 0, 0), 0.5, 1e-200, QuadratureConfig(gh_nodes=9))


@pytest.mark.parametrize("m", [1e160, 1e200])
def test_s_plus_rejects_a_mass_whose_square_overflows(m):
    # refused before any kernel is built, so numpy has nothing to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite square"):
            dirac.s_plus_green((0, 0, 0), (0, 0, 0), 0.5, m, QuadratureConfig(gh_nodes=8))


def test_s_plus_identical_across_thread_counts():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermgrid.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, hermgrid; sys.stdout.buffer.write(hermgrid.s_plus_green("
            "(1, 0, 2), (0, 1, 0), 0.37, 1.0, hermgrid.QuadratureConfig()).tobytes())")
    outs = []
    for threads in ("1", "2"):
        env["HERMGRID_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert run.returncode == 0
        outs.append(run.stdout)
    assert len(outs[0]) == 16 * 16
    assert outs[0] == outs[1]
