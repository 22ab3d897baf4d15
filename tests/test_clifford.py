import numpy as np
import pytest

from spinorlab.clifford import (GammaSet, gamma_set, pauli, spin_matrix,
                                verify_clifford)
from spinorlab.linalg import mat_max


def test_pauli_conventions():
    assert np.array_equal(pauli(3), np.diag([1.0 + 0j, -1.0]))
    assert mat_max(pauli(1) @ pauli(2) - 1j * pauli(3)) == 0.0
    for k in (1, 2, 3):
        assert mat_max(pauli(k) @ pauli(k) - np.eye(2)) == 0.0


def test_pauli_rejects_bad_index():
    with pytest.raises(ValueError):
        pauli(4)


def test_rep26_block_structure():
    g = gamma_set("rep26")
    s3 = pauli(3)
    want_g0 = np.block([[s3, np.zeros((2, 2))], [np.zeros((2, 2)), -s3]])
    assert mat_max(g.gamma(0) - want_g0) == 0.0
    z = np.zeros((2, 2))
    i2 = np.eye(2)
    assert mat_max(g.gamma(3) - np.block([[z, 1j * i2], [1j * i2, z]])) == 0.0
    assert mat_max(g.gamma(4) - np.block([[z, 1j * i2], [-1j * i2, z]])) == 0.0


def test_rep26_gamma3_gamma4_anticommute():
    g = gamma_set("rep26")
    g3, g4 = g.gamma(3), g.gamma(4)
    assert mat_max(g3 @ g4 + g4 @ g3) == 0.0


def test_weyl_defining_property():
    g = gamma_set("weyl")
    for k in (1, 2, 3):
        sk = pauli(k)
        want = np.block([[sk, np.zeros((2, 2))], [np.zeros((2, 2)), -sk]])
        assert mat_max(g.gamma(0) @ g.gamma(k) - want) == 0.0


@pytest.mark.parametrize("name", ["rep26", "weyl"])
def test_clifford_relations_hold(name):
    assert verify_clifford(gamma_set(name)) <= 1e-12


def test_clifford_detects_perturbation():
    g = gamma_set("rep26")
    gams = list(g.gammas)
    gams[1] = 1.01 * gams[1]
    bad = GammaSet("bad", tuple(gams))
    r = verify_clifford(bad)
    assert 0.015 < r < 0.025
    assert r > 1e-12


def test_unknown_representation():
    with pytest.raises(ValueError):
        gamma_set("dirac")


def test_spin_matrix_index5():
    g = gamma_set("rep26")
    # S_53 = -(i/2) gamma3, S_45 = (i/2) gamma4
    assert mat_max(spin_matrix(g, 5, 3) + 0.5j * g.gamma(3)) == 0.0
    assert mat_max(spin_matrix(g, 4, 5) - 0.5j * g.gamma(4)) == 0.0


def test_spin_matrix_antisymmetry():
    g = gamma_set("rep26")
    for (a, b) in ((0, 1), (1, 3), (2, 4), (1, 5)):
        assert mat_max(spin_matrix(g, a, b)
                       + spin_matrix(g, b, a)) == 0.0


def test_spin12_two_component_reduction():
    # upper Q+ block of S_12 is sigma3/2: (i/4)(s2 s1 - s1 s2) by hand
    g = gamma_set("rep26")
    s12 = spin_matrix(g, 1, 2)
    byhand = 0.25j * (pauli(2) @ pauli(1) - pauli(1) @ pauli(2))
    assert mat_max(s12[:2, :2] - byhand) == 0.0
    assert mat_max(byhand - 0.5 * pauli(3)) == 0.0


def test_spin_matrix_rejects_equal_indices():
    g = gamma_set("rep26")
    with pytest.raises(ValueError):
        spin_matrix(g, 2, 2)
    with pytest.raises(ValueError):
        spin_matrix(g, 0, 6)


def test_block_projector_identities():
    g = gamma_set("rep26")
    g34 = g.gamma(3) @ g.gamma(4)
    assert mat_max(g34 @ g34 - np.eye(4)) == 0.0
    qp = 0.5 * (np.eye(4) + g34)
    qm = 0.5 * (np.eye(4) - g34)
    assert mat_max(qp @ qp - qp) == 0.0
    assert mat_max(qp @ qm) == 0.0
    assert mat_max(qp + qm - np.eye(4)) == 0.0
