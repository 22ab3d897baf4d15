import math

import numpy as np
import pytest

from helpers import component_commutator_residual, nan_at
from spinorlab import opcalc, position
from spinorlab.clifford import gamma_set, pauli, spin_matrix
from spinorlab.linalg import NotUnitary, dagger, mat_max
from spinorlab.opcalc import (OperatorField, as_batch, sample_momenta,
                              stacked_jet)
from spinorlab.position import (POSITION_NAMES, position_closed_form,
                                position_from_unitary, verify_position)

REP = gamma_set("rep26")
SAMPLES = sample_momenta(3, 12, 42)


@pytest.mark.parametrize("name", POSITION_NAMES)
def test_closed_form_matches_conjugation(name):
    rep = verify_position(name, SAMPLES)
    assert rep["closed_vs_conjugation"] <= 1e-9
    assert rep["canonical_commutator"] <= 1e-10
    assert rep["hermiticity"] <= 1e-10      # reported, and in fact holds


def test_both_p3_branches_are_exercised():
    signs = {np.sign(p[2]) for p in SAMPLES}
    assert signs == {1.0, -1.0}


def test_xchi_third_component_formula():
    # matrix part of the third component: e3 * S_5c p_c / E^2
    built = position_from_unitary("Xchi", probe=SAMPLES[:2])
    s5 = {c: spin_matrix(REP, 5, c) for c in (1, 2)}
    for p in SAMPLES[:4]:
        e = np.linalg.norm(p)
        e3 = np.sign(p[2])
        want = e3 * (s5[1] * p[0] + s5[2] * p[1]) / e ** 2
        assert mat_max(built[2].a(p) - want) < 1e-13


def test_xw_third_component_formula():
    # matrix part: -i s3 s_b p_b / (2 E^2)
    built = position_from_unitary("XW", probe=SAMPLES[:2])
    for p in SAMPLES[:4]:
        e = np.linalg.norm(p)
        want = -0.5j * (pauli(3) @ pauli(1) * p[0]
                        + pauli(3) @ pauli(2) * p[1]) / e ** 2
        assert mat_max(built[2].a(p) - want) < 1e-13


def test_xchi_transverse_includes_spin_rotation_term():
    # the S_ac p_c / (E(E+|p3|)) contribution appears in the closed form
    closed = position_closed_form("Xchi")
    s12 = spin_matrix(REP, 1, 2)
    p = (2.0, 0.0, 1.0)          # with p2 = 0 only selected terms survive
    e = np.linalg.norm(p)
    s51 = spin_matrix(REP, 5, 1)
    want = (-s51 / e + s51 * p[0] * p[0] / (e ** 2 * (e + abs(p[2]))))
    # a = 1 component at p2 = 0: S_12 term drops, both S_5c terms reduce to c=1
    assert mat_max(closed[0].a(p) - want) < 1e-14
    # a = 2 component keeps only the S_21 p_1 rotation term and S_52 pieces
    want2 = -spin_matrix(REP, 5, 2) / e - s12 * p[0] / (e * (e + abs(p[2])))
    assert mat_max(closed[1].a(p) - want2) < 1e-14


@pytest.mark.parametrize("name", POSITION_NAMES)
def test_closed_form_jet_matches_conjugation_jet(name):
    # values and exact first derivatives of every closed-form component
    p = as_batch(SAMPLES)
    jc = stacked_jet(position_closed_form(name), p)
    jb = stacked_jet(position_from_unitary(name), p)
    for i in range(len(jc.a)):
        for got, want in zip((jc.a[i], *jc.da[i]), (jb.a[i], *jb.da[i])):
            assert mat_max(got - want) <= 1e-12 * mat_max(want)


def test_positions_components_commute():
    for name in POSITION_NAMES:
        assert component_commutator_residual(name, SAMPLES[:4]) <= 1e-10


def test_unknown_position_name():
    with pytest.raises(ValueError):
        position_from_unitary("Xnope")
    with pytest.raises(ValueError):
        position_closed_form("Xnope")


def test_position_fails_closed_on_nan_in_the_conjugating_field(monkeypatch):
    # the poisoned point is outside the unitarity probe (SAMPLES[:2])
    u = position.conjugating_field("Xpsi")
    poison = OperatorField(4, 3, [(nan_at(SAMPLES[5]), np.eye(4))])
    monkeypatch.setattr(position, "conjugating_field",
                        lambda name: u + poison)
    rep = verify_position("Xpsi", SAMPLES)
    assert math.isnan(rep["closed_vs_conjugation"])


def test_position_from_unitary_probes_once_and_rejects_non_unitary(
        monkeypatch):
    calls = []
    defect = opcalc.unitarity_defect
    monkeypatch.setattr(opcalc, "unitarity_defect",
                        lambda u: (calls.append(u.shape), defect(u))[1])
    position_from_unitary("Xpsi", probe=SAMPLES[:2])
    assert calls == [(2, 4, 4)]             # one probe for the 3 components
    u = position.conjugating_field("Xpsi")
    monkeypatch.setattr(position, "conjugating_field",
                        lambda name: u.scale(1.5))
    with pytest.raises(NotUnitary):
        position_from_unitary("Xpsi", probe=SAMPLES[:2])


def test_verify_position_reads_values_only(monkeypatch):
    derivs, commutators = [], []
    deriv, commutator = OperatorField.deriv, opcalc.diffop_commutator
    monkeypatch.setattr(OperatorField, "deriv", lambda self, p: (
        derivs.append(self), deriv(self, p))[1])
    for module in (opcalc, position):
        monkeypatch.setattr(module, "diffop_commutator", lambda jet: (
            commutators.append(jet), commutator(jet))[1])
    for name in POSITION_NAMES:
        verify_position(name, SAMPLES)
    assert derivs == [] and commutators == []
    # the counters see the component commutators, which do differentiate
    component_commutator_residual("Xpsi", SAMPLES[:4])
    assert derivs and len(commutators) == 1


@pytest.mark.parametrize("seed", (5, 7, 42))
def test_verify_position_equals_the_residuals_of_the_stacked_jet(seed):
    samples = sample_momenta(3, 12, seed)
    p = as_batch(samples)
    for name in POSITION_NAMES:
        built = position_from_unitary(name, probe=samples[:2])
        jet = stacked_jet(built, p)
        closed = np.stack([x.a(p) for x in position_closed_form(name)])
        dim = len(jet.a[0, 0])
        delta = np.eye(3)[:, :, None, None, None] * (1j * np.eye(dim))
        assert verify_position(name, samples) == {
            "closed_vs_conjugation": mat_max(jet.a - closed),
            "canonical_commutator": mat_max(1j * jet.b - delta),
            "hermiticity": mat_max(jet.a - dagger(jet.a))}, name


def test_component_commutators_fail_closed_on_nan(monkeypatch):
    # the poisoned point is outside the unitarity probe (SAMPLES[:2])
    u = position.conjugating_field("Xpsi")
    poison = OperatorField(4, 3, [(nan_at(SAMPLES[5]), np.eye(4))])
    monkeypatch.setattr(position, "conjugating_field",
                        lambda name: u + poison)
    assert math.isnan(component_commutator_residual("Xpsi", SAMPLES))


def test_position_operators_are_built_once(monkeypatch):
    calls = []
    defect = opcalc.unitarity_defect
    monkeypatch.setattr(opcalc, "unitarity_defect",
                        lambda u: (calls.append(u.shape), defect(u))[1])
    for name in POSITION_NAMES:
        assert position.conjugating_field(name) is \
            position.conjugating_field(name)
        built = position_from_unitary(name, probe=SAMPLES[:2])
        assert position_from_unitary(name, probe=SAMPLES[2:4]) is built
        assert position_closed_form(name) is position_closed_form(name)
        with pytest.raises(TypeError):      # shared, so read-only
            built[0] = built[1]
    assert len(calls) == 2 * len(POSITION_NAMES)    # a probe on every call
    # a patched conjugating field gets its own components, built once
    xpsi = position_from_unitary("Xpsi")
    u = position.conjugating_field("Xpsi").scale(-1.0)
    monkeypatch.setattr(position, "conjugating_field", lambda name: u)
    patched = position_from_unitary("Xpsi")
    assert patched is not xpsi and position_from_unitary("Xpsi") is patched
