import math

import numpy as np
import pytest

from helpers import nan_at
from spinorlab import opcalc, position
from spinorlab.clifford import gamma_set, pauli, spin_matrix
from spinorlab.linalg import NotUnitary, mat_max
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
    s5 = {c: spin_matrix(REP, 5, c).value for c in (1, 2)}
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
    s12 = spin_matrix(REP, 1, 2).value
    p = (2.0, 0.0, 1.0)          # with p2 = 0 only selected terms survive
    e = np.linalg.norm(p)
    s51 = spin_matrix(REP, 5, 1).value
    want = (-s51 / e + s51 * p[0] * p[0] / (e ** 2 * (e + abs(p[2]))))
    # a = 1 component at p2 = 0: S_12 term drops, both S_5c terms reduce to c=1
    assert mat_max(closed[0].a(p) - want) < 1e-14
    # a = 2 component keeps only the S_21 p_1 rotation term and S_52 pieces
    want2 = -spin_matrix(REP, 5, 2).value / e - s12 * p[0] / (e * (e + abs(p[2])))
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
        rep = verify_position(name, SAMPLES[:4])
        assert rep["component_noncommutativity"] <= 1e-10


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
