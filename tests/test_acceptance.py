"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test measures its own wall time against the criterion's budget.  The
conftest hook prints a one-line PASS/FAIL summary per criterion at the end
of the run.  Criterion 3 is split: the closed-form match (3a) and the
small-mass continuity toward the massless value 2 (3b).  The coincidence
value is 2 (1 - sqrt(pi) mu erfcx(mu)) = 2 - 2 sqrt(pi) mu + 4 mu^2 - ...,
so 3b states the continuity at that rate: 2 - G(0; mu) lies in
[2 sqrt(pi) mu - 4 mu^2, 2 sqrt(pi) mu], a bracket that closes on the
point 2 as mu -> 0+.
"""

import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx

from hermgrid import dirac
from hermgrid.checks import moller_oracle_element
from hermgrid.errors import TruncationWarning
from hermgrid.greens import (
    continuum_yukawa,
    continuum_yukawa_oracle,
    coulomb_even,
    coulomb_quadrature,
    difference_equation_residual,
    g_sharp,
    g_sharp_axis,
    yukawa_coincidence,
)
from hermgrid.quadrature import QuadratureConfig, weighted_phi_table
from hermgrid.scattering import MollerKinematics, VertexTruncation, moller_reduced_element

_SEED = 20260816


def test_criterion_01_coulomb_coincidence():
    start = time.perf_counter()
    closed = coulomb_even(0)
    quadv = coulomb_quadrature(0, QuadratureConfig()).value
    elapsed = time.perf_counter() - start
    assert closed == 2.0
    assert abs(quadv - 2.0) / 2.0 <= 1e-6
    assert elapsed < 1.0


def test_criterion_02_coulomb_even_family():
    start = time.perf_counter()
    cfg = QuadratureConfig()
    worst_even = max(
        abs(coulomb_quadrature(2 * half, cfg).value - coulomb_even(half))
        / coulomb_even(half)
        for half in range(11)
    )
    worst_odd = max(abs(coulomb_quadrature(idx, cfg).value) for idx in range(1, 22, 2))
    elapsed = time.perf_counter() - start
    assert worst_even <= 1e-6
    assert worst_odd <= 1e-10
    assert elapsed < 10.0


def test_criterion_03a_yukawa_coincidence_closed_form():
    # reference spelled through the scaled complementary error function:
    # mu e^{mu^2} Gamma(-1/2, mu^2) = 2 (1 - sqrt(pi) mu erfcx(mu))
    start = time.perf_counter()
    cfg = QuadratureConfig()
    worst = 0.0
    for mu in (0.25, 0.5, 1.0, 2.0, 4.0):
        closed = 2.0 * (1.0 - math.sqrt(math.pi) * mu * float(erfcx(mu)))
        got = g_sharp_axis(0, mu, cfg).value.real
        worst = max(worst, abs(got - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_03b_yukawa_small_mass_continuity():
    # 2 - G(0; mu) = 2 sqrt(pi) mu erfcx(mu); erfcx is at most 1 and lies above
    # its tangent 1 - 2 mu / sqrt(pi) at 0, so the gap to the massless value 2
    # sits in a bracket of width 4 mu^2 under the rate 2 sqrt(pi) mu.  At
    # mu = 1e-6 the gap clears the lower edge by only 2 sqrt(pi) mu^3 ~ 4e-18,
    # below the spacing of doubles near 2, so each edge allows one ulp of G.
    start = time.perf_counter()
    cfg = QuadratureConfig()
    value = g_sharp_axis(0, 1e-3, cfg).value.real
    ulp = math.ulp(2.0)
    for mu in (1e-3, 1e-4, 1e-5, 1e-6):
        gap = 2.0 - g_sharp_axis(0, mu, cfg).value.real
        rate = 2.0 * math.sqrt(math.pi) * mu
        assert rate - 4.0 * mu * mu - ulp <= gap <= rate + ulp
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        mu = mp.mpf(1e-3)
        exact = float(mu * mp.exp(mu * mu) * mp.gammainc(-0.5, mu * mu))
    assert abs(value - exact) <= 1e-13 * exact


def test_criterion_04_incomplete_gamma_vs_quadrature():
    start = time.perf_counter()

    def oracle(x: float) -> float:
        # integral of t^{-3/2} e^{-t} from x to infinity, under t = e^s so
        # the integrand stays bounded at the lower limit for tiny x
        def f(s: float) -> float:
            if s > 30.0:
                return 0.0
            return math.exp(-0.5 * s - math.exp(s))

        val, _ = quad(f, math.log(x), np.inf, epsabs=1e-14, epsrel=1e-13, limit=500)
        return val

    def incomplete_gamma_neg_half(x: float) -> float:
        # Gamma(-1/2, x) from the coincidence value mu e^{mu^2} Gamma(-1/2, mu^2)
        return yukawa_coincidence(math.sqrt(x)) * math.exp(-x) / math.sqrt(x)

    xs = np.geomspace(1e-6, 25.0, 40)
    worst = max(
        abs(incomplete_gamma_neg_half(float(x)) - oracle(float(x))) / oracle(float(x))
        for x in xs
    )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_05_difference_equation_residual_box():
    start = time.perf_counter()
    cfg = QuadratureConfig()
    worst = 0.0
    for mu in (0.5, 1.0, 2.0):
        for n0 in range(3):
            for n1 in range(3):
                for n2 in range(3):
                    for h0 in range(3):
                        for h1 in range(3):
                            for h2 in range(3):
                                worst = max(worst, difference_equation_residual(
                                    (n0, n1, n2), (h0, h1, h2), mu, cfg))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 120.0


def test_criterion_06_hermite_orthonormality():
    start = time.perf_counter()
    table = weighted_phi_table(40, 200)
    gram = table @ table.T / math.sqrt(math.pi)
    worst = float(np.max(np.abs(gram - np.eye(41))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_07_dirac_suite():
    start = time.perf_counter()
    gs = dirac.gamma_set()
    eta = (1.0, 1.0, 1.0, -1.0)
    clifford = max(
        float(np.max(np.abs(gs[a] @ gs[b] + gs[b] @ gs[a]
                            - (2.0 * eta[a - 1] * np.eye(4) if a == b else 0.0))))
        for a in range(1, 5) for b in range(1, 5)
    )
    rng = np.random.default_rng(_SEED)
    m = 1.0
    ortho = 0.0
    spin = 0.0
    mode = 0.0
    for _ in range(100):
        p = tuple(rng.uniform(-3, 3, 3))
        ortho = max(ortho, dirac.orthonormality_check(p, m))
        e = dirac.energy(p, m)
        proj = (-1j * (p[0] * gs[1] + p[1] * gs[2] + p[2] * gs[3])
                + 1j * e * gs[4] + m * np.eye(4)) / (2.0 * e)
        spin = max(spin, float(np.max(np.abs(dirac.spin_sum(p, m) - proj))))
        op = -1j * (p[0] * gs[1] + p[1] * gs[2] + p[2] * gs[3]) + 1j * e * gs[4]
        for r in (1, 2):
            mode = max(mode, float(np.max(np.abs(
                (op - m * np.eye(4)) @ dirac.spinor_u(r, p, m)))))
    elapsed = time.perf_counter() - start
    assert clifford == 0.0
    assert ortho <= 1e-12
    assert spin <= 1e-12
    assert mode <= 1e-12
    assert elapsed < 1.0


def test_criterion_08_low_momentum_slope():
    start = time.perf_counter()
    m = 1.0
    norms = np.geomspace(0.01, 0.1, 7)
    direction = np.array([0.6, -0.64, 0.48])
    direction /= np.linalg.norm(direction)
    errs = [
        max(
            float(np.max(np.abs(dirac.low_momentum_u(r, tuple(s * direction), m)
                                - dirac.spinor_u(r, tuple(s * direction), m))))
            for r in (1, 2)
        )
        for s in norms
    ]
    slope = float(np.polyfit(np.log(norms), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - start
    assert 3.8 <= slope <= 4.2
    assert elapsed < 1.0


def test_criterion_09_continuum_yukawa_oracle():
    start = time.perf_counter()
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        for mu in (0.25, 1.0):
            closed = -math.exp(-mu * r) / (4.0 * math.pi * r)
            assert continuum_yukawa(r, mu, 1.0) == pytest.approx(closed, rel=1e-15)
            oracle = continuum_yukawa_oracle(r, mu)
            worst = max(worst, abs(oracle - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-3
    assert elapsed < 5.0


def test_criterion_10_moller_oracle_equivalence():
    start = time.perf_counter()
    cfg = QuadratureConfig()
    trunc = VertexTruncation(32)
    zero = (0.0, 0.0, 0.0)
    rng = np.random.default_rng(_SEED)
    direction = rng.uniform(-1, 1, (4, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    ps = [tuple(0.1 * d) for d in direction]
    cases = [
        MollerKinematics(zero, zero, zero, zero, m=1.0, mu=1.0, g=1.0),
        MollerKinematics(ps[0], ps[1], ps[2], ps[3], m=1.0, mu=1.0, g=1.0),
    ]
    worst = 0.0
    for kin in cases:
        with warnings.catch_warnings():
            # n_max = 32 under-truncates on purpose; both routes share the cut
            warnings.simplefilter("ignore", TruncationWarning)
            prod = moller_reduced_element(kin, trunc, cfg)
        oracle = moller_oracle_element(kin, trunc)
        worst = max(worst, abs(prod - oracle) / abs(oracle))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4
    assert elapsed < 300.0


def test_criterion_11_parity_selection():
    start = time.perf_counter()
    cfg = QuadratureConfig()
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    count = 0
    while count < 50:
        n = tuple(int(v) for v in rng.integers(0, 5, 3))
        nhat = tuple(int(v) for v in rng.integers(0, 5, 3))
        if all((a - b) % 2 == 0 for a, b in zip(n, nhat)):
            continue
        count += 1
        worst = max(worst, abs(g_sharp(n, nhat, 1.0, cfg).value))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_12_determinism(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "table.csv"
    argv = [sys.executable, "-m", "hermgrid.cli", "yukawa", "--mu", "1",
            "--n-max", "6", "--out", str(out)]
    first = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0
    blob = out.read_bytes()
    second = subprocess.run(argv, capture_output=True)
    assert second.returncode == 0
    elapsed = time.perf_counter() - start
    assert out.read_bytes() == blob
    assert elapsed < 5.0
