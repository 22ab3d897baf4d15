import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import nan_at
from spinorlab import dual
from spinorlab.clifford import gamma_set, pauli
from spinorlab.equations import (EQUATION_NAMES, UNITARY_NAMES, abs_p3,
                                 block_reduction_residual, catalog_equation,
                                 catalog_unitary, composed_tu,
                                 dispersion_residual, energy,
                                 exp_closed_residual, hermiticity_residual,
                                 lambda_consistency_residual, p_perp, q3_of,
                                 tu2_alt_normalization_residual,
                                 unitarity_residual, verify_projectors,
                                 verify_transform)
from spinorlab.linalg import mat_max
from spinorlab.opcalc import OperatorField, as_batch, sample_momenta

REP = gamma_set("rep26")
S3_SAMPLES = sample_momenta(3, 12, 42)
S2_SAMPLES = sample_momenta(2, 12, 42)
S4_SAMPLES = sample_momenta(4, 12, 42)


def samples_for(eq):
    return {2: S2_SAMPLES, 3: S3_SAMPLES, 4: S4_SAMPLES}[eq.d]


def test_chi_plus_value_frozen():
    h = catalog_equation("chi_plus").hamiltonian((1.0, 0.0, 2.0))
    want = np.array([[2.0, 1j], [-1j, -2.0]])        # -s2 + 2*s3
    assert mat_max(h - want) == 0.0


def test_weyl_plus_value():
    h = catalog_equation("weyl_plus").hamiltonian((0.0, 0.0, 1.0))
    assert mat_max(h - pauli(3)) == 0.0


def test_spinless_plus_value():
    h = catalog_equation("spinless_plus", m=1.0).hamiltonian((0.0, 0.0, 0.5))
    assert mat_max(h - np.sqrt(1.25) * pauli(3)) < 1e-15


def test_unknown_equation_and_bad_params():
    with pytest.raises(ValueError):
        catalog_equation("nope")
    with pytest.raises(ValueError):
        catalog_equation("flat_plus", m=-1.0)


@pytest.mark.parametrize("name", EQUATION_NAMES)
def test_hamiltonians_hermitian_when_flagged(name):
    eq = catalog_equation(name, m=1.3, kappa=0.8)
    r = hermiticity_residual(eq, samples_for(eq))
    if eq.hermitian:
        assert r < 1e-12
    else:
        assert r > 0.1        # the constraint pair is genuinely non-Hermitian


@pytest.mark.parametrize("name", EQUATION_NAMES)
def test_dispersion_identities(name):
    eq = catalog_equation(name, m=1.3, kappa=0.8)
    assert dispersion_residual(eq, samples_for(eq)) <= 1e-10


@pytest.mark.parametrize("name", UNITARY_NAMES)
def test_catalog_unitaries_are_unitary(name):
    u = catalog_unitary(name, m=1.1)
    assert unitarity_residual(u, S3_SAMPLES) <= 1e-10


@pytest.mark.parametrize("name", ["U1", "U2", "V1"])
def test_exponential_equals_closed(name):
    u = catalog_unitary(name)
    assert exp_closed_residual(u, S3_SAMPLES) <= 1e-9


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_eigh_exponential_is_rounding_close_to_closed_forms(seed):
    samples = sample_momenta(3, 12, seed)
    for name in ("U1", "U2", "V1"):
        assert exp_closed_residual(catalog_unitary(name), samples) <= 4e-15


@pytest.mark.parametrize("name", ["U1", "U2", "V1", "V", "V2"])
def test_wired_transforms(name):
    u = catalog_unitary(name, m=1.1)
    assert verify_transform(u, S3_SAMPLES, m=1.1) <= 1e-9


def test_u1_target_form():
    # U1 H U1^-1 = gamma0 gamma_a p_a + gamma0 |p3|
    u = catalog_unitary("U1").closed
    hs = catalog_equation("dirac_massless").hamiltonian
    g0 = REP.gamma(0)
    for p in S3_SAMPLES[:4]:
        up = u(p)
        want = (g0 @ REP.gamma(1) * p[0] + g0 @ REP.gamma(2) * p[1]
                + g0 * abs(p[2]))
        assert mat_max(up @ hs(p) @ up.conj().T - want) < 1e-13


def test_u2_target_is_diagonalized_energy():
    u = catalog_unitary("U2").closed
    hs = catalog_equation("chi_4c").hamiltonian
    for p in S3_SAMPLES[:4]:
        up = u(p)
        e = np.linalg.norm(p)
        assert mat_max(up @ hs(p) @ up.conj().T - REP.gamma(0) * e) < 1e-13


def test_v_target_carries_p3_sign():
    u = catalog_unitary("V").closed
    hs = catalog_equation("weyl_plus").hamiltonian
    for p in S3_SAMPLES[:4]:
        up = u(p)
        e = np.linalg.norm(p)
        want = np.sign(p[2]) * e * pauli(3)
        assert mat_max(up @ hs(p) @ up.conj().T - want) < 1e-13


def test_composed_tu_reaches_diagonal_form():
    assert verify_transform(composed_tu(), S3_SAMPLES) <= 1e-9


def test_tu1_is_unitary_constant():
    u = catalog_unitary("tU1").closed((1.0, 1.0, 1.0))
    assert mat_max(u - (np.eye(4) + REP.gamma(3)) / np.sqrt(2.0)) == 0.0
    assert mat_max(u @ u.conj().T - np.eye(4)) < 1e-15


def test_tu2_alt_normalization_agrees_for_positive_p3():
    assert tu2_alt_normalization_residual(S3_SAMPLES) <= 1e-9


def test_v_unitary_at_seed_points():
    u = catalog_unitary("V").closed
    for p in S3_SAMPLES:
        up = u(p)
        assert mat_max(up @ up.conj().T - np.eye(2)) < 1e-13


def test_projector_suite():
    res = verify_projectors(S3_SAMPLES, m=1.7)
    for key, val in res.items():
        assert val <= 1e-9, key


def test_constraint_squares_to_one_at_fixed_point():
    from spinorlab.equations import massive_constraint_field
    kf = massive_constraint_field(2.0)
    k = kf((0.3, -0.4, 0.7))
    assert mat_max(k @ k - np.eye(4)) < 1e-14


def test_fixed_operators_are_built_once():
    from spinorlab.equations import (chirality_projector_field,
                                     massive_constraint_field)
    assert composed_tu() is composed_tu()
    assert massive_constraint_field(2.0) is massive_constraint_field(2.0)
    assert massive_constraint_field(2.0) is not massive_constraint_field(3.0)
    for sign in (1.0, -1.0):
        assert chirality_projector_field(sign) is \
            chirality_projector_field(sign)
    assert chirality_projector_field(1.0) is not chirality_projector_field(-1.0)


def test_block_reduction():
    assert block_reduction_residual(S3_SAMPLES) <= 1e-9


def test_lambda_minus_two_i():
    assert lambda_consistency_residual(S3_SAMPLES) <= 1e-14


def test_corrupted_catalog_fails_v1_transform():
    u = catalog_unitary("V1")
    good = verify_transform(u, S3_SAMPLES)
    bad = verify_transform(u, S3_SAMPLES, corrupt_reduction=True)
    assert good <= 1e-9
    assert bad > 1e-2


def test_claims_are_attached():
    # one breaking label each: an element other than Id breaks a parity
    assert catalog_equation("chi_plus").breaks == "P1*P2*T2"
    assert catalog_equation("dirac_massless").breaks == "Id"
    assert catalog_equation("desitter").breaks == "P1*P2*P3*P4*T1"


def test_dispersion_residual_propagates_nan():
    # m*m overflows, so H^2 - (p^2 + m^2) holds inf - inf on its diagonal
    eq = catalog_equation("dirac_massive", m=1e200)
    with np.errstate(all="ignore"):
        assert np.isnan(dispersion_residual(eq, S3_SAMPLES))


def test_transform_unitarity_guard_fails_closed_on_nan():
    u = catalog_unitary("U1")
    closed = u.closed + OperatorField(4, 3, [(nan_at(S3_SAMPLES[5]),
                                              np.eye(4))])
    with pytest.raises(ValueError, match="not unitary"):
        verify_transform(dataclasses.replace(u, closed=closed), S3_SAMPLES)


def test_catalog_builds_are_made_once_per_arguments():
    eq = catalog_equation("flat_plus")
    assert catalog_equation("flat_plus", 1.0, 1.0, False) is eq
    assert catalog_equation("flat_plus", m=1, kappa=1.0,
                            corrupt_reduction=False) is eq
    assert catalog_equation(name="flat_plus", kappa=1) is eq
    assert catalog_equation("flat_plus", m=2.0) is not eq
    with pytest.raises(TypeError):      # shared, so its params are read-only
        eq.params["mass"] = 2.0
    assert catalog_equation("desitter", kappa=2.0) is not \
        catalog_equation("desitter")
    assert catalog_equation("chi_plus", corrupt_reduction=True) is not \
        catalog_equation("chi_plus")
    u = catalog_unitary("V2")
    assert catalog_unitary("V2", 1.0) is u and catalog_unitary("V2", m=1) is u
    assert catalog_unitary("V2", m=2.0) is not u


# -- the shared closed forms, pinned bit for bit -------------------------------
# Each half-angle map, exponent and dispersion contract written out on its
# own.  The catalog states them once; it must give the same bits for values
# and exact derivatives, as the order of the operations fixes the rounding.

PIN_SEEDS = (5, 7, 42)
PIN_PARAMS = (1e-3, 1.0, 1e3)


def _written_out_unitaries(m):
    """(closed forms, exponents) of U2, V1, tU2 and V2, one by one."""
    g1, g2, g3 = REP.gammas[1:4]
    s1, s2 = pauli(1), pauli(2)
    i2, i4 = np.eye(2), np.eye(4)
    q3 = q3_of(m)

    def u2_norm(p):
        return dual.sqrt(2.0 * energy(p) * (energy(p) + abs_p3(p)))

    def tu2_norm(p):
        return dual.sqrt(2.0 * energy(p) * (energy(p) + p[2]))

    def v2_norm(p):
        return dual.sqrt(2.0 * q3(p) * (q3(p) + m))

    def half_theta_over_pp(p):
        return 0.5 * dual.atan(p_perp(p) / abs_p3(p)) / p_perp(p)

    closed = {
        "U2": OperatorField(4, 3, [
            (lambda p: (energy(p) + abs_p3(p)) / u2_norm(p), i4),
            (lambda p: p[0] / u2_norm(p), g1),
            (lambda p: p[1] / u2_norm(p), g2)]),
        "V1": OperatorField(2, 3, [
            (lambda p: (energy(p) + abs_p3(p)) / u2_norm(p), i2),
            (lambda p: p[0] / u2_norm(p), 1j * s1),
            (lambda p: p[1] / u2_norm(p), 1j * s2)]),
        "tU2": OperatorField(4, 3, [
            (lambda p: (energy(p) + p[2]) / tu2_norm(p), i4),
            (lambda p: p[0] / tu2_norm(p), g1),
            (lambda p: p[1] / tu2_norm(p), g2)]),
        "V2": OperatorField(4, 3, [
            (lambda p: (q3(p) + m) / v2_norm(p), i4),
            (lambda p: p[2] / v2_norm(p), g3)]),
    }
    exponents = {
        "U2": OperatorField(4, 3, [
            (lambda p: half_theta_over_pp(p) * p[0], g1),
            (lambda p: half_theta_over_pp(p) * p[1], g2)]),
        "V1": OperatorField(2, 3, [
            (lambda p: half_theta_over_pp(p) * p[0], 1j * s1),
            (lambda p: half_theta_over_pp(p) * p[1], 1j * s2)]),
    }
    return closed, exponents


def _written_out_dispersion(name, m, kappa):
    def massless(p):
        return (dual.value(p[0]) ** 2 + dual.value(p[1]) ** 2
                + dual.value(p[2]) ** 2)
    if name in ("flat_plus", "flat_minus"):
        return lambda p: dual.value(p[0]) ** 2 + dual.value(p[1]) ** 2 + m * m
    if name == "desitter":
        return lambda p: sum(dual.value(c) ** 2 for c in p) + kappa ** 2
    if name in ("dirac_massive", "hprime", "spinless_plus", "spinless_minus"):
        return lambda p: massless(p) + m * m
    return massless


@pytest.mark.parametrize("seed", PIN_SEEDS)
def test_half_angle_maps_equal_their_written_out_forms_bit_for_bit(seed):
    pts = sample_momenta(3, 12, seed)
    p = as_batch(pts + [(a, b, -c) for a, b, c in pts])     # both p3 signs
    for m in PIN_PARAMS:
        closed, exponents = _written_out_unitaries(m)
        for name, want in closed.items():
            u = catalog_unitary(name, m=m)
            pairs = [(u.closed, want)]
            if name in exponents:
                pairs.append((u.exponent, exponents[name]))
            for got, ref in pairs:
                assert np.array_equal(got(p), ref(p)), (name, m)
                assert np.array_equal(got.deriv(p), ref.deriv(p)), (name, m)


@pytest.mark.parametrize("seed", PIN_SEEDS)
def test_dispersion_rule_equals_the_written_out_forms_bit_for_bit(seed):
    for m in PIN_PARAMS:
        for kappa in PIN_PARAMS:
            for name in EQUATION_NAMES:
                eq = catalog_equation(name, m=m, kappa=kappa)
                pts = sample_momenta(eq.d, 12, seed)
                p = as_batch(pts)
                want = _written_out_dispersion(name, m, kappa)(p)
                h = eq.hamiltonian(p)
                assert dispersion_residual(eq, pts) == mat_max(
                    h @ h - want[..., None, None] * np.eye(eq.dim)), \
                    (name, m, kappa)
    assert catalog_equation("chi_plus", corrupt_reduction=True) \
        .mass_sq is None
