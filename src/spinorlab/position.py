"""Position operators: built by unitary conjugation and checked against closed forms.

The four named operators (all d = 3):

* ``Xchi``  -- x conjugated by the block Foldy-Wouthuysen map (4x4),
* ``Xpsi``  -- the same pulled back to the original massless equation (4x4),
* ``Xchi2`` -- the two-component analogue for the reduced equation (2x2),
* ``XW``    -- the Weyl-equation position operator (2x2).

Each component is x_k (= i d/dp_k) plus a Hermitian matrix field; the
derivative coefficient of component k stays exactly i times the identity, so
[X_j, p_k] = i delta_jk is structural.  Transverse sums below run over the
two transverse axes c in {1, 2}.
"""

import numpy as np

from .clifford import gamma_set, pauli, spin_matrix
from .equations import abs_p3, catalog_unitary, e3, energy
from .linalg import dagger, mat_max, worst
from .opcalc import (DiffOp1, OperatorField, as_batch, conjugate_by_unitary,
                     diffop_commutator)

_REP = gamma_set("rep26")
G3 = _REP.gamma(3)

POSITION_NAMES = ("Xchi", "Xpsi", "Xchi2", "XW")

_CONJUGATION = {
    # name -> (dim, chain of unitary names applied innermost-first)
    "Xchi": (4, ("U2",)),
    "Xpsi": (4, ("U1", "U2")),      # (U2 U1)^-1 x (U2 U1)
    "Xchi2": (2, ("V1",)),
    "XW": (2, ("V",)),
}


def conjugating_field(name: str) -> OperatorField:
    dim, chain = _CONJUGATION[name]
    u = None
    for uname in chain:
        spec = catalog_unitary(uname)
        u = spec.closed if u is None else spec.closed @ u
    return u


def position_from_unitary(name: str, probe=()) -> list:
    """Components u^-1 x_k u for the operator's conjugating field."""
    if name not in _CONJUGATION:
        raise ValueError(f"unknown position operator {name!r}")
    dim, _ = _CONJUGATION[name]
    u = conjugating_field(name)
    return [conjugate_by_unitary(u, DiffOp1.position_component(k, dim, 3),
                                 probe=probe)
            for k in range(3)]


def _inv_e_eplus(p):
    return 1.0 / (energy(p) * (energy(p) + abs_p3(p)))


def _transverse_sum(a, mat_of_c, coeff_of_c):
    """Terms coeff(p, c) * mat(c) for c in {1, 2} (a fixed for closures)."""
    return [(lambda p, _c=c, _f=coeff_of_c: _f(p, _c), mat_of_c(c))
            for c in (1, 2)]


def _xchi_closed() -> list:
    s5 = {a: spin_matrix(_REP, 5, a).value for a in (1, 2)}   # = -(i/2) gamma_a
    s12 = spin_matrix(_REP, 1, 2).value
    comps = []
    for a in (1, 2):
        c_other = 3 - a
        sac = s12 if a == 1 else -s12                         # S_{a, c_other}
        terms = [(lambda p: -1.0 / energy(p), s5[a])]
        terms += _transverse_sum(
            a, lambda c: s5[c],
            lambda p, c, _a=a: p[c - 1] * p[_a - 1]
            * _inv_e_eplus(p) / energy(p))
        terms.append((lambda p, _c=c_other: p[_c - 1] * _inv_e_eplus(p), sac))
        comps.append(OperatorField(4, 3, terms))
    x3 = _transverse_sum(3, lambda c: s5[c],
                         lambda p, c: e3(p) * p[c - 1] / energy(p) ** 2)
    comps.append(OperatorField(4, 3, x3))
    return comps


def _xpsi_closed() -> list:
    g3s5 = {a: G3 @ spin_matrix(_REP, 5, a).value for a in (1, 2)}
    s12 = spin_matrix(_REP, 1, 2).value
    comps = []
    for a in (1, 2):
        c_other = 3 - a
        sac = s12 if a == 1 else -s12
        terms = [(lambda p: e3(p) / energy(p), g3s5[a])]
        terms += _transverse_sum(
            a, lambda c: g3s5[c],
            lambda p, c, _a=a: -e3(p) * p[c - 1] * p[_a - 1]
            * _inv_e_eplus(p) / energy(p))
        terms.append((lambda p, _c=c_other: p[_c - 1] * _inv_e_eplus(p), sac))
        comps.append(OperatorField(4, 3, terms))
    x3 = _transverse_sum(3, lambda c: g3s5[c],
                         lambda p, c: -p[c - 1] / energy(p) ** 2)
    comps.append(OperatorField(4, 3, x3))
    return comps


def _xchi2_closed() -> list:
    s = {k: pauli(k) for k in (1, 2, 3)}
    comps = []
    for a in (1, 2):
        c_other = 3 - a
        comm = s[a] @ s[c_other] - s[c_other] @ s[a]
        terms = [(lambda p: -0.5 / energy(p), s[a])]
        terms += _transverse_sum(
            a, lambda c: s[c],
            lambda p, c, _a=a: 0.5 * p[c - 1] * p[_a - 1]
            * _inv_e_eplus(p) / energy(p))
        terms.append((lambda p, _c=c_other: -0.25j * p[_c - 1]
                      * _inv_e_eplus(p), comm))
        comps.append(OperatorField(2, 3, terms))
    x3 = _transverse_sum(3, lambda c: s[c],
                         lambda p, c: 0.5 * e3(p) * p[c - 1] / energy(p) ** 2)
    comps.append(OperatorField(2, 3, x3))
    return comps


def _xw_closed() -> list:
    s = {k: pauli(k) for k in (1, 2, 3)}
    comps = []
    for a in (1, 2):
        c_other = 3 - a
        comm = s[a] @ s[c_other] - s[c_other] @ s[a]
        terms = [(lambda p: 0.5j * e3(p) / energy(p), s[3] @ s[a])]
        terms += _transverse_sum(
            a, lambda c: s[3] @ s[c],
            lambda p, c, _a=a: -0.5j * e3(p) * p[c - 1] * p[_a - 1]
            * _inv_e_eplus(p) / energy(p))
        terms.append((lambda p, _c=c_other: -0.25j * p[_c - 1]
                      * _inv_e_eplus(p), comm))
        comps.append(OperatorField(2, 3, terms))
    x3 = _transverse_sum(3, lambda c: s[3] @ s[c],
                         lambda p, c: -0.5j * p[c - 1] / energy(p) ** 2)
    comps.append(OperatorField(2, 3, x3))
    return comps


_CLOSED = {"Xchi": _xchi_closed, "Xpsi": _xpsi_closed,
           "Xchi2": _xchi2_closed, "XW": _xw_closed}


def position_closed_form(name: str) -> list:
    """The transcribed closed-form operators, as x_k + matrix field."""
    if name not in _CLOSED:
        raise ValueError(f"unknown position operator {name!r}")
    dim = _CONJUGATION[name][0]
    fields = _CLOSED[name]()
    return [DiffOp1.position_component(k, dim, 3) + DiffOp1.from_field(f)
            for k, f in enumerate(fields)]


def verify_position(name: str, samples) -> dict:
    """Closed form vs conjugation, canonical commutators, Hermiticity report.

    Each built component is evaluated once, as a jet on the sample batch,
    and every residual reads that jet.
    """
    built = position_from_unitary(name, probe=samples[:2])
    closed = position_closed_form(name)
    dim = _CONJUGATION[name][0]
    eye = np.eye(dim)
    p = as_batch(samples)
    jets = [x.jet(p) for x in built]

    match, canonical, herm, noncomm = [], [], [], []
    for j, jet in enumerate(jets):
        match.append(mat_max(jet.a - closed[j].a(p)))
        herm.append(mat_max(jet.a - dagger(jet.a)))
        for k in range(3):
            # [X_j, p_k]: only i * B_jk survives; must be i delta_jk
            bracket = 1j * jet.b[k]
            canonical.append(mat_max(bracket - (1j if j == k else 0.0) * eye))
        for k in range(j + 1, 3):
            noncomm.append(mat_max(diffop_commutator(jet, jets[k]).a))
    return {"closed_vs_conjugation": worst(match),
            "canonical_commutator": worst(canonical),
            "hermiticity": worst(herm),
            "component_noncommutativity": worst(noncomm)}
