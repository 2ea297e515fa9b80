"""Check-suite plumbing and the independent exchange-element oracle.

The individual invariants behind each named check are exercised directly in
the per-module test files; here the suite machinery itself is under test
(naming, error capture, fault injection) plus the sum-vertices-first oracle
route that, by construction, shares no code with the production element.
"""

import math

import numpy as np
import pytest

from hermgrid import checks, dirac
from hermgrid.checks import CheckResult, moller_oracle_element, run_suite, suite_names
from hermgrid.quadrature import QuadratureConfig
from hermgrid.scattering import MollerKinematics, VertexTruncation, moller_reduced_element


def test_suite_names():
    fast = suite_names("fast")
    full = suite_names("full")
    assert len(fast) == 24
    assert len(full) == 27
    assert "dirac_projector_orthonormality" in fast
    assert full[: len(fast)] == fast
    assert set(full) - set(fast) == {
        "greens_residual_box",
        "scattering_truncation_diagnostic",
        "scattering_oracle_equivalence",
    }
    assert len(set(full)) == len(full)
    with pytest.raises(ValueError):
        suite_names("slow")


def test_run_suite_result_fields(monkeypatch):
    monkeypatch.setattr(checks, "_FAST", [("demo_pass", lambda: (True, 1e-3, 2e-4, "note"))])
    (res,) = run_suite("fast")
    assert isinstance(res, CheckResult)
    assert res.name == "demo_pass"
    assert res.passed is True
    assert res.tolerance == 1e-3
    assert res.observed == 2e-4
    assert res.detail == "note"
    assert res.seconds >= 0.0


def test_run_suite_turns_exceptions_into_failures(monkeypatch):
    def boom():
        raise RuntimeError("broke")

    monkeypatch.setattr(
        checks, "_FAST",
        [("demo_raise", boom), ("demo_pass", lambda: (True, 1.0, 0.0, ""))],
    )
    first, second = run_suite("fast")
    assert not first.passed
    assert math.isnan(first.tolerance)
    assert first.observed == math.inf
    assert "raised" in first.detail and "broke" in first.detail
    # one failure never stops the rest of the suite
    assert second.passed


def test_projector_check_holds_s_plus_green_to_its_orthonormality(monkeypatch):
    # the check is the only one that calls s_plus_green: with every profile
    # weight scaled by 1 + 1e-9 it fails
    ok, tol, obs, _ = checks._check_dirac_projector_orthonormality()
    assert ok and obs <= tol
    exact = dirac._shell_profile

    def scaled(*args):
        r, f = exact(*args)
        return r, f * (1.0 + 1e-9)

    monkeypatch.setattr(dirac, "_shell_profile", scaled)
    ok, tol, obs, _ = checks._check_dirac_projector_orthonormality()
    assert not ok and obs > tol


def test_clifford_check_catches_corrupted_gammas(monkeypatch):
    sub = [entry for entry in checks._FAST if entry[0] == "dirac_clifford"]
    monkeypatch.setattr(checks, "_FAST", sub)
    (healthy,) = run_suite("fast")
    assert healthy.passed

    def corrupted():
        bad = {a: np.array(dirac.gamma_set()[a]) for a in range(1, 5)}
        bad[1][0, 3] = 1j

        class BadSet:
            def __getitem__(self, a):
                return bad[a]

        return BadSet()

    monkeypatch.setattr(checks, "gamma_provider", corrupted)
    (broken,) = run_suite("fast")
    assert not broken.passed
    assert broken.observed > 0.0


def test_oracle_route_matches_production():
    # the oracle's tensor rule over k and the production sum over the
    # proper-time lattice share no node
    kin = MollerKinematics((0.08, -0.03, 0.05), (-0.06, 0.04, 0.02),
                           (0.05, 0.01, 0.03), (-0.03, 0.0, 0.04),
                           m=1.0, mu=1.0, g=1.0)
    cfg = QuadratureConfig(tol=1e6)
    prod = moller_reduced_element(kin, VertexTruncation(8), cfg)
    oracle = moller_oracle_element(kin, VertexTruncation(8))
    assert abs(prod - oracle) / abs(oracle) <= 1e-6


def test_oracle_route_spin_mismatch():
    kin = MollerKinematics((0.08, -0.03, 0.05), (-0.06, 0.04, 0.02),
                           (0.05, 0.01, 0.03), (-0.03, 0.0, 0.04),
                           m=1.0, mu=1.0, g=1.0, r2=2, r2_out=1)
    assert moller_oracle_element(kin, VertexTruncation(8)) == 0j
