"""Position operators: built by unitary conjugation and checked against closed forms.

The four named operators (all d = 3):

* ``Xchi``  -- x conjugated by the block Foldy-Wouthuysen map (4x4),
* ``Xpsi``  -- the same pulled back to the original massless equation (4x4),
* ``Xchi2`` -- the two-component analogue for the reduced equation (2x2),
* ``XW``    -- the Weyl-equation position operator (2x2).

Each component is x_k (= i d/dp_k) plus a Hermitian matrix field; the
derivative coefficient of component k stays exactly i times the identity, so
[X_j, p_k] = i delta_jk is structural.  All four closed forms are one formula
(a in {1, 2}, b = 3 - a the other transverse axis, sums over c in {1, 2}):

    X_a = x_a + (w/E) m_a - w sum_c p_c p_a m_c / (E^2 (E+|p3|))
              + p_b / (E (E+|p3|)) s_a
    X_3 = x_3 - w e3 / E^2 sum_c p_c m_c

with one row (w, m_a, s_a) per operator, s_2 = -s_1, every w real:

    Xchi   w = -1        m_a = S_5a              s_1 = S12
    Xpsi   w = e3        m_a = gamma3 S_5a       s_1 = S12
    Xchi2  w = -1/2      m_a = sigma_a           s_1 = sigma3/2
    XW     w = e3/2      m_a = i sigma3 sigma_a  s_1 = sigma3/2

:func:`verify_position` reads only the values of the components.  Each
operator is built once and shared, read-only, by every caller.
"""

import functools

import numpy as np

from .clifford import gamma_set, pauli, spin_matrix
from .equations import abs_p3, catalog_unitary, e3, energy
from .linalg import dagger, mat_max
# diffop_commutator stays bound here: bench/tracing.py patches this binding
from .opcalc import (DiffOp1, OperatorField, as_batch, check_unitary,
                     conjugate_by_unitary, diffop_commutator, stacked_values)

_REP = gamma_set("rep26")
G3 = _REP.gamma(3)


def _table() -> dict:
    """name -> (conjugating unitary names, innermost first; w, {a: m_a},
    s_1 of the closed form in the module docstring); dim is len(s_1)."""
    s5 = {a: spin_matrix(_REP, 5, a) for a in (1, 2)}
    s12 = spin_matrix(_REP, 1, 2)
    s = {k: pauli(k) for k in (1, 2, 3)}
    return {"Xchi": (("U2",), lambda p: -1.0, s5, s12),
            # (U2 U1)^-1 x (U2 U1)
            "Xpsi": (("U1", "U2"), e3, {a: G3 @ s5[a] for a in (1, 2)}, s12),
            "Xchi2": (("V1",), lambda p: -0.5, s, 0.5 * s[3]),
            "XW": (("V",), lambda p: 0.5 * e3(p),
                   {a: 1j * s[3] @ s[a] for a in (1, 2)}, 0.5 * s[3])}


_TABLE = _table()
POSITION_NAMES = tuple(_TABLE)


@functools.cache
def conjugating_field(name: str) -> OperatorField:
    """The operator's conjugating field, the same object on every call."""
    fields = [catalog_unitary(n).closed for n in _TABLE[name][0]]
    return functools.reduce(lambda u, v: v @ u, fields)   # innermost first


def position_from_unitary(name: str, probe=()) -> tuple:
    """Components u^-1 x_k u for the operator's conjugating field u, built
    once per field object and checked for unitarity on every call's probe."""
    if name not in _TABLE:
        raise ValueError(f"unknown position operator {name!r}")
    u = conjugating_field(name)
    check_unitary(u, probe)
    return _conjugated(u)


@functools.lru_cache(maxsize=16)
def _conjugated(u: OperatorField) -> tuple:
    return tuple(conjugate_by_unitary(
        u, DiffOp1.position_component(k, u.dim, 3)) for k in range(3))


def _inv_e_eplus(p):
    return 1.0 / (energy(p) * (energy(p) + abs_p3(p)))


@functools.cache
def position_closed_form(name: str) -> tuple:
    """The transcribed closed-form operators, as x_k + matrix field."""
    if name not in _TABLE:
        raise ValueError(f"unknown position operator {name!r}")
    _, w, m, s1 = _TABLE[name]
    dim = len(s1)
    fields = []
    for a in (1, 2):
        b = 3 - a
        terms = [(lambda p: w(p) / energy(p), m[a])]
        terms += [(lambda p, _a=a, _c=c: -w(p) * p[_c - 1] * p[_a - 1]
                   * _inv_e_eplus(p) / energy(p), m[c]) for c in (1, 2)]
        terms.append((lambda p, _b=b: p[_b - 1] * _inv_e_eplus(p),
                      s1 if a == 1 else -s1))
        fields.append(OperatorField(dim, 3, terms))
    fields.append(OperatorField(dim, 3, [
        (lambda p, _c=c: -w(p) * e3(p) * p[_c - 1]
         / (energy(p) * energy(p)), m[c]) for c in (1, 2)]))
    return tuple(DiffOp1.position_component(k, dim, 3) + DiffOp1.from_field(f)
                 for k, f in enumerate(fields))


def verify_position(name: str, samples) -> dict:
    """Closed form vs conjugation, canonical commutators, Hermiticity report,
    all from the values (A, B) of the built components on the sample batch:
    no component is differentiated and no commutator is formed."""
    built = position_from_unitary(name, probe=samples[:2])
    closed = position_closed_form(name)
    p = as_batch(samples)
    a, b, _ = stacked_values(built, p)
    # [X_j, p_k]: only i * B_jk survives; must be i delta_jk
    delta = np.eye(3)[:, :, None, None, None] * (1j * np.eye(a.shape[-1]))
    return {"closed_vs_conjugation": mat_max(
                a - np.stack([x.a(p) for x in closed])),
            "canonical_commutator": mat_max(1j * b - delta),
            "hermiticity": mat_max(a - dagger(a))}
