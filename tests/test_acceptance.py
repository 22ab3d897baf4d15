"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
Residuals are reduced with ``mat_max``, so a NaN anywhere fails its criterion.
"""

import math

import numpy as np
import pytest

from spinorlab import poincare, position
from spinorlab import equations as eqs
from spinorlab.clifford import gamma_set, verify_clifford
from spinorlab.linalg import mat_max
from spinorlab.opcalc import sample_momenta
from spinorlab.symmetry import (Intertwiner, SymmetryElement,
                                classify_equation, group_elements,
                                random_search_oracle, solve_intertwiner,
                                verify_projection_relations)

S3 = sample_momenta(3, 12, 42)
S3_X8 = sample_momenta(3, 8, 42)
S2 = sample_momenta(2, 12, 42)
S4 = sample_momenta(4, 12, 42)


def _announce(num, ok, text):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_clifford():
    worst = mat_max(*(verify_clifford(gamma_set(n))
                      for n in ("rep26", "weyl")))
    _announce(1, worst <= 1e-12,
              f"Clifford squares/anticommutators, residual {worst:.2e} <= 1e-12")


def test_criterion_02_transformations():
    assert {np.sign(p[2]) for p in S3} == {1.0, -1.0}
    maps = [eqs.catalog_unitary(n) for n in ("U1", "U2", "V1", "V", "V2")]
    worst_t = mat_max(*(eqs.verify_transform(u, S3)
                        for u in maps + [eqs.composed_tu()]))
    worst_u = mat_max(*(eqs.unitarity_residual(eqs.catalog_unitary(n), S3)
                        for n in eqs.UNITARY_NAMES))
    worst_e = mat_max(*(eqs.exp_closed_residual(eqs.catalog_unitary(n), S3)
                        for n in ("U1", "U2", "V1")))
    ok = worst_t <= 1e-9 and worst_u <= 1e-10 and worst_e <= 1e-9
    _announce(2, ok, "transform suite: map residual "
              f"{worst_t:.2e} <= 1e-9, unitarity {worst_u:.2e} <= 1e-10, "
              f"exp-vs-closed {worst_e:.2e} <= 1e-9")


def _assert_verdicts(rep, expectations):
    for label, want in expectations:
        v = rep.verdict_for(label)
        assert v.invariant == want, (rep.equation, label)
        if want:
            assert v.residual <= 1e-7, (rep.equation, label, v.residual)
        else:
            assert v.residual > 1e-4, (rep.equation, label, v.residual)


def test_criterion_03_classification():
    rep = classify_equation(eqs.catalog_equation("weyl_plus"))
    _assert_verdicts(rep, (("P1*P2*P3", False), ("C", False),
                           ("P1*P2*P3*C", True), ("T1", True)))
    assert rep.agreement

    rep = classify_equation(eqs.catalog_equation("chi_plus"))
    _assert_verdicts(rep, (
        ("P3", True), ("C", True), ("P3*C", True), ("P1*P2*P3*C", True),
        ("P1*C*T1", True), ("P2*C*T2", True),
        ("P1", False), ("P2", False), ("T1", False), ("T2", False),
        ("P1*C", False), ("P2*C", False),
        ("P3*C*T1", False), ("P3*C*T2", False)))
    assert rep.agreement

    rep = classify_equation(eqs.catalog_equation("dirac_massless"))
    assert len(rep.verdicts) == 32
    assert all(v.invariant and v.residual <= 1e-7 for v in rep.verdicts)

    rep = classify_equation(eqs.catalog_equation("flat_plus"))
    _assert_verdicts(rep, (
        ("P1*P2", True), ("C", True), ("P1*P2*C", True),
        ("P1*C*T1", True), ("P1*C*T2", True), ("P2*C*T1", True),
        ("P2*C*T2", True),
        ("P1", False), ("P2", False), ("T1", False), ("T2", False),
        ("P1*C", False), ("P2*C", False), ("C*T1", False), ("C*T2", False)))
    assert rep.agreement

    rep = classify_equation(eqs.catalog_equation("desitter", kappa=1.5))
    _assert_verdicts(rep, (
        ("T1", True), ("T2*C", True),
        ("P1", False), ("P2", False), ("P3", False), ("P4", False),
        ("T2", False), ("C", False)))
    assert rep.agreement
    _announce(3, True, "classification reproduces every attached claim "
              "with holdouts <= 1e-7 and certificates > 1e-4")


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(20240)
    pool = rng.normal(size=(100_000, 4)) + 1j * rng.normal(size=(100_000, 4))
    mismatches = []
    for name in eqs.TWO_BY_TWO_NAMES:
        eq = eqs.catalog_equation(name)
        pts = sample_momenta(eq.d, 12, 42)
        for g in group_elements(eq.d):
            nullspace_verdict = isinstance(solve_intertwiner(eq, g),
                                           Intertwiner)
            _, oracle_verdict = random_search_oracle(eq, g, pts, pool=pool)
            if oracle_verdict != nullspace_verdict:
                mismatches.append((name, g.label))
    _announce(4, not mismatches,
              f"nullspace vs 1e5-candidate random-search oracle on all "
              f"{len(eqs.TWO_BY_TWO_NAMES)} 2x2 equations: "
              f"{len(mismatches)} mismatches")


def test_criterion_05_projectors():
    worst = mat_max(*eqs.verify_projectors(S3, m=1.7).values(),
                    *verify_projection_relations().values())
    _announce(5, worst <= 1e-9,
              f"projector suite residual {worst:.2e} <= 1e-9")


def test_criterion_06_algebra_closure():
    closure = [poincare.algebra_residual(poincare.generator_set(name), S3_X8)
               for name in ("psi", "chi", "phi", "phi_pos", "phi_neg", "chi2")]
    worst, second = (mat_max(*part) for part in zip(*closure))
    cov = poincare.set_covariance_residual(
        poincare.generator_set("chi"), poincare.generator_set("phi"),
        eqs.catalog_unitary("U2").closed, S3_X8[:4])
    ok = worst <= 1e-8 and second <= 1e-10 and cov <= 1e-8
    _announce(6, ok, f"algebra closure {worst:.2e} <= 1e-8, second-order "
              f"{second:.2e} <= 1e-10, U2 covariance {cov:.2e} <= 1e-8")


def test_criterion_07_position():
    reps = [position.verify_position(name, S3)
            for name in position.POSITION_NAMES]
    worst, canon = (mat_max(*(rep[key] for rep in reps)) for key in
                    ("closed_vs_conjugation", "canonical_commutator"))
    ok = worst <= 1e-9 and canon <= 1e-10
    _announce(7, ok, f"position closed-vs-conjugation {worst:.2e} <= 1e-9, "
              f"canonical commutators {canon:.2e} <= 1e-10")


def test_criterion_08_irrep_content():
    four = ((-1, -0.5), (-1, 0.5), (1, -0.5), (1, 0.5))
    psi = poincare.irrep_content(eqs.catalog_equation("dirac_massless"),
                                 poincare.generator_set("psi"), S3)
    assert psi == {"+": four, "-": four}
    weyl = poincare.irrep_content(eqs.catalog_equation("weyl_plus"),
                                  poincare.generator_set("weyl"), S3)
    assert weyl == {"+": ((-1, -0.5), (1, 0.5)), "-": ((-1, -0.5), (1, 0.5))}
    for uname, gs in (("U1", "chi"), ("U2", "phi")):
        image = eqs.catalog_equation(eqs.catalog_unitary(uname).target)
        assert poincare.irrep_content(
            image, poincare.generator_set(gs), S3) == psi
    _announce(8, True, "irrep content: four labels on each p3 branch for "
              "the massless four-component equation and its images under "
              "U1 and U2 U1, helicity +eps/2 on both branches for Weyl")


def test_criterion_09_dispersion():
    equations = [eqs.catalog_equation(name, m=1.3, kappa=0.8)
                 for name in eqs.EQUATION_NAMES]
    worst = mat_max(*(eqs.dispersion_residual(eq, {2: S2, 3: S3, 4: S4}[eq.d])
                      for eq in equations))
    lam = eqs.lambda_consistency_residual(S3)
    ok = worst <= 1e-10 and lam == 0.0
    _announce(9, ok, f"dispersion residual {worst:.2e} <= 1e-10, "
              f"lambda = -2i reproduction exact ({lam:.1e})")


def test_criterion_09_fails_on_a_nan_residual(monkeypatch, capsys):
    middle = eqs.EQUATION_NAMES[len(eqs.EQUATION_NAMES) // 2]
    residual = eqs.dispersion_residual
    monkeypatch.setattr(eqs, "dispersion_residual", lambda eq, pts: (
        math.nan if eq.name == middle else residual(eq, pts)))
    with pytest.raises(AssertionError, match="criterion 9"):
        test_criterion_09_dispersion()
    out = capsys.readouterr().out
    assert "CRITERION 9: FAIL - dispersion residual nan" in out


def test_criterion_10_negative_control():
    v1_bad = eqs.verify_transform(eqs.catalog_unitary("V1"), S3,
                                  corrupt_reduction=True)
    good = classify_equation(eqs.catalog_equation("chi_plus"))
    bad = classify_equation(eqs.catalog_equation("chi_plus",
                                                 corrupt_reduction=True))
    gv = {v.element.label: v.invariant for v in good.verdicts}
    bv = {v.element.label: v.invariant for v in bad.verdicts}
    flipped = [k for k in gv if gv[k] != bv[k]]
    ok = v1_bad > 1e-9 and bool(flipped)
    _announce(10, ok, f"negative control: V1 residual {v1_bad:.2e} fails, "
              f"{len(flipped)} verdicts flipped")
