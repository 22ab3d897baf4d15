"""The named catalog of Hamiltonians, unitary transformations and projectors.

Several signs and normalizations are only fixed by demanding that the
verified identities close; the choices made here (see README "Conventions"):

* the two-component reduction of the block Hamiltonian expands
  i*s3*s_a*p_a = -s2*p1 + s1*p2 (the p2 coefficient is sigma_1, matching the
  massive two-component pair);
* the tU2 map is normalized with sqrt(2E(E+p3)), which makes it unitary on
  both p3 branches; on p3 > 0 it coincides with the |p3| normalization;
* the tU2*tU1 composition is verified against the target gamma0*E;
* the De Sitter Hamiltonian uses the fifth anticommuting element i*gamma4
  (unit square -1), which is what makes H Hermitian with dispersion
  p^2 + kappa^2;
* the kappa pair carries a genuinely non-Hermitian constraint term
  -kappa*gamma0*(1 +- e3*gamma4); the pair is kept in the catalog for the
  discrete-symmetry classifier only and is flagged non-Hermitian.

Each spec states its symmetry as one label, ``breaks``: the element B whose
parity H breaks.  Only the symmetry engine reads it (SymmetryElement.keeps):
g is invariant iff g.code & B.code has an even number of set bits.
H = sum_a h_a(p) G_a over anticommuting G_a (s1, s2, s3 at 2x2, five gamma
products at 4x4) whose product, a multiple of 1, every M H M^-1 keeps; so if
h uses every G_a, g is invariant iff it reverses an even number of h's
terms.  B holds the code bits that reverse an odd number: P_k those odd in
p_k, time all, conjugation those odd in p, those on an imaginary G_a and all
again.  If h leaves a G_a out, B = Id (the default).

    Id              dirac_massless, chi_4c, phi_diag, weyl_canonical,
                    dirac_massive, hprime; flat_+- at m = 0; desitter and
                    kappa_+- at kappa = 0
    P1*P2*T2        chi_+- (kept when corrupted, to fail), spinless_+-,
                    flat_+-: p3 enters as |p3| or q3; conjugation 2 + 1 + 3
    P1*P2*T2        kappa_+-: P3 reverses p3 and e3; conjugation 4 + 3 + 5
    P1*P2*P3*T1     weyl_+-: every bit; conjugation 3 + 1 + 3
    P1*P2*P3*P4*T1  desitter: every bit; conjugation 4 + 2 + 5

The ``corrupt_reduction`` flag intentionally rebuilds the two-component
reduction with the inconsistent sigma_2*p2 coefficient; it exists as a
negative control for the verification suite and must never be used otherwise.
"""

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import dual
from .clifford import gamma_set, pauli, spin_matrix
from .linalg import dagger, expm, mat_max, unitarity_defect
from .opcalc import OperatorField, as_batch, per_argument, require_unitary

_REP = gamma_set("rep26")
G0, G1, G2, G3, G4 = _REP.gammas
S1, S2, S3 = pauli(1), pauli(2), pauli(3)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


# -- scalar building blocks ----------------------------------------------

@per_argument
def energy(p):
    return dual.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])


@per_argument
def abs_p3(p):
    return dual.absval(p[2])


@per_argument
def e_plus_abs_p3(p):
    return energy(p) + abs_p3(p)


@per_argument
def e3(p):
    return dual.sign(p[2])


@per_argument
def p_perp(p):
    return dual.sqrt(p[0] * p[0] + p[1] * p[1])


def q3_of(m):
    return lambda p: dual.sqrt(p[2] * p[2] + m * m)


# -- equation catalog ------------------------------------------------------

@dataclass(frozen=True)
class EquationSpec:
    name: str
    dim: int
    d: int
    hamiltonian: OperatorField
    params: frozenset = frozenset()    # the RunConfig fields it is built from
    breaks: str = "Id"                 # the label whose parity H breaks
    hermitian: bool = True
    mass_sq: Optional[float] = None    # H^2 = (p.p + mass_sq)*1, if set


def _linear(*mats) -> list:
    """The terms of sum_k p_k M_k, k = 1, 2, ... in the order of mats."""
    return [(lambda p, _k=k: p[_k], mat) for k, mat in enumerate(mats)]


_DIRAC = (G0 @ G1, G0 @ G2, G0 @ G3)   # gamma0 gamma_k: the massless 4c terms


def _two_component_reduction(sign: float, mass_fn, corrupt_reduction=False):
    """-s2*p1 + s1*p2 + sign*s3*m(p); the negative control uses s2*p2."""
    second = S2 if corrupt_reduction else S1
    return _linear(-S2, second) + [
        (lambda p, _f=mass_fn, _s=sign: _s * _f(p), S3)]


def catalog_equation(name: str, m: float = 1.0, kappa: float = 1.0,
                     corrupt_reduction: bool = False) -> EquationSpec:
    """A catalog equation by its stable public name, built once per
    arguments: every spelling of the same arguments returns the same object."""
    return _catalog_equation(name, float(m), float(kappa),
                             bool(corrupt_reduction))


@functools.lru_cache(maxsize=256)
def _catalog_equation(name: str, m: float, kappa: float,
                      corrupt_reduction: bool) -> EquationSpec:
    if m < 0 or kappa < 0:
        raise ValueError("mass and kappa must be non-negative")
    s = -1.0 if name.endswith("_minus") else 1.0

    if name == "dirac_massless":
        return EquationSpec(name, 4, 3, OperatorField(4, 3, _linear(*_DIRAC)),
                            mass_sq=0.0)

    if name in ("weyl_plus", "weyl_minus"):
        terms = _linear(s * S1, s * S2, s * S3)
        return EquationSpec(name, 2, 3, OperatorField(2, 3, terms),
                            breaks="P1*P2*P3*T1", mass_sq=0.0)

    if name == "chi_4c":
        terms = _linear(*_DIRAC[:2]) + [(abs_p3, G0)]
        return EquationSpec(name, 4, 3, OperatorField(4, 3, terms),
                            mass_sq=0.0)

    if name in ("chi_plus", "chi_minus"):
        terms = _two_component_reduction(s, abs_p3, corrupt_reduction)
        return EquationSpec(name, 2, 3, OperatorField(2, 3, terms),
                            params=frozenset({"corrupt_reduction"}),
                            breaks="P1*P2*T2",
                            mass_sq=None if corrupt_reduction else 0.0)

    if name == "phi_diag":
        return EquationSpec(name, 4, 3, OperatorField(4, 3, [(energy, G0)]),
                            mass_sq=0.0)

    if name == "weyl_canonical":
        return EquationSpec(
            name, 2, 3,
            OperatorField(2, 3, [(lambda p: e3(p) * energy(p), S3)]),
            mass_sq=0.0)

    if name in ("flat_plus", "flat_minus"):
        terms = _two_component_reduction(s, lambda p: m)
        return EquationSpec(
            name, 2, 2, OperatorField(2, 2, terms), params=frozenset({"mass"}),
            breaks="P1*P2*T2" if m else "Id", mass_sq=m * m)

    if name == "desitter":
        g4p = 1j * G4         # fifth anticommuting element with square -1
        terms = _linear(*_DIRAC, G0 @ g4p) + [(lambda p: kappa, G0)]
        return EquationSpec(
            name, 4, 4, OperatorField(4, 4, terms),
            params=frozenset({"kappa"}),
            breaks="P1*P2*P3*P4*T1" if kappa else "Id", mass_sq=kappa * kappa)

    if name == "dirac_massive":
        terms = _linear(*_DIRAC) + [(lambda p: m, G0)]
        return EquationSpec(
            name, 4, 3, OperatorField(4, 3, terms), params=frozenset({"mass"}),
            mass_sq=m * m)

    if name == "hprime":
        terms = _linear(*_DIRAC[:2]) + [(q3_of(m), G0)]
        return EquationSpec(
            name, 4, 3, OperatorField(4, 3, terms), params=frozenset({"mass"}),
            mass_sq=m * m)

    if name in ("spinless_plus", "spinless_minus"):
        terms = _two_component_reduction(s, q3_of(m))
        return EquationSpec(
            name, 2, 3, OperatorField(2, 3, terms), params=frozenset({"mass"}),
            breaks="P1*P2*T2", mass_sq=m * m)

    if name in ("kappa_plus", "kappa_minus"):
        terms = _linear(*_DIRAC) + [(lambda p: -kappa, G0)]
        terms.append((lambda p, _s=s: -_s * kappa * e3(p), G0 @ G4))
        return EquationSpec(name, 4, 3, OperatorField(4, 3, terms),
                            params=frozenset({"kappa"}),
                            breaks="P1*P2*T2" if kappa else "Id",
                            hermitian=False, mass_sq=0.0)

    raise ValueError(f"unknown equation {name!r}")


EQUATION_NAMES = (
    "dirac_massless", "weyl_plus", "weyl_minus", "chi_4c", "chi_plus",
    "chi_minus", "phi_diag", "weyl_canonical", "flat_plus", "flat_minus",
    "desitter", "dirac_massive", "hprime", "spinless_plus", "spinless_minus",
    "kappa_plus", "kappa_minus",
)

TWO_BY_TWO_NAMES = tuple(n for n in EQUATION_NAMES
                         if catalog_equation(n).dim == 2)


# -- unitary catalog -------------------------------------------------------

@dataclass(frozen=True)
class UnitarySpec:
    name: str
    dim: int
    d: int
    closed: OperatorField
    exponent: Optional[OperatorField] = None      # u = exp(exponent)
    source: Optional[str] = None
    target: Union[str, OperatorField, None] = None


def _half_angle(dim: int, a, b, axes) -> OperatorField:
    """((a + b)*1 + sum_c q_c M_c) / sqrt(2a(a + b)), axes = [(q_c, M_c)]:
    the half-angle map of U2, V1, tU2 and V2.  The norm is |(a + b, q)| when
    sum_c q_c^2 = a^2 - b^2, which makes the map unitary."""
    norm = per_argument(lambda p: dual.sqrt(2.0 * a(p) * (a(p) + b(p))))
    terms = [(lambda p: (a(p) + b(p)) / norm(p), np.eye(dim))]
    terms += [(lambda p, _q=q: _q(p) / norm(p), mat) for q, mat in axes]
    return OperatorField(dim, 3, terms)


def _transverse_exponent(dim: int, axes) -> OperatorField:
    """theta/(2|p_perp|) * sum_k p_k M_k, theta = atan(|p_perp|/|p3|): the
    U2 and V1 exponent."""
    def half_theta_over_pp(p):
        return 0.5 * dual.atan(p_perp(p) / abs_p3(p)) / p_perp(p)
    return OperatorField(dim, 3, [
        (lambda p, _q=q: half_theta_over_pp(p) * _q(p), mat)
        for q, mat in axes])


def catalog_unitary(name: str, m: float = 1.0) -> UnitarySpec:
    """A catalog transformation by its stable public name, built once per
    (name, m): every spelling of the same arguments returns the same object."""
    return _catalog_unitary(name, float(m))


@functools.lru_cache(maxsize=256)
def _catalog_unitary(name: str, m: float) -> UnitarySpec:
    if name == "U1":
        closed = OperatorField(4, 3, [
            (lambda p: 1.0 / np.sqrt(2.0), I4),
            (lambda p: e3(p) / np.sqrt(2.0), G3),
        ])
        expo = OperatorField(4, 3, [(lambda p: 0.25 * np.pi * e3(p), G3)])
        return UnitarySpec("U1", 4, 3, closed, expo,
                           source="dirac_massless", target="chi_4c")

    if name == "U2":
        axes = _linear(G1, G2)
        return UnitarySpec("U2", 4, 3, _half_angle(4, energy, abs_p3, axes),
                           _transverse_exponent(4, axes),
                           source="chi_4c", target="phi_diag")

    if name == "tU1":
        closed = OperatorField(4, 3, [
            (lambda p: 1.0 / np.sqrt(2.0), I4),
            (lambda p: 1.0 / np.sqrt(2.0), G3),
        ])
        return UnitarySpec("tU1", 4, 3, closed, source="dirac_massless")

    if name == "tU2":
        closed = _half_angle(4, energy, lambda p: p[2], _linear(G1, G2))
        return UnitarySpec("tU2", 4, 3, closed, target="phi_diag")

    if name == "V1":
        axes = _linear(1j * S1, 1j * S2)
        target = OperatorField(2, 3, [(energy, S3)])     # diagonal s3*E
        return UnitarySpec("V1", 2, 3, _half_angle(2, energy, abs_p3, axes),
                           _transverse_exponent(2, axes),
                           source="chi_plus", target=target)

    if name == "V":
        xi = (
            lambda p: p[0] - p[1] * e3(p),
            lambda p: p[1] + e3(p) * p[0],
            lambda p: e3(p) * e_plus_abs_p3(p),
        )
        def norm(p):                            # = 2 sqrt(xi.p)
            return 2.0 * dual.sqrt(energy(p) * e_plus_abs_p3(p))
        terms = [(lambda p: e_plus_abs_p3(p) / norm(p), I2)]
        for k in range(3):
            terms.append((lambda p, _x=xi[k]: _x(p) / norm(p), 1j * pauli(k + 1)))
        return UnitarySpec("V", 2, 3, OperatorField(2, 3, terms),
                           source="weyl_plus", target="weyl_canonical")

    if name == "V2":
        closed = _half_angle(4, q3_of(m), lambda p: m, [(lambda p: p[2], G3)])
        return UnitarySpec("V2", 4, 3, closed,
                           source="dirac_massive", target="hprime")

    raise ValueError(f"unknown transformation {name!r}")


UNITARY_NAMES = ("U1", "U2", "tU1", "tU2", "V1", "V", "V2")


@functools.cache
def composed_tu() -> UnitarySpec:
    """tU2*tU1: maps the massless four-component equation onto gamma0*E."""
    u1 = catalog_unitary("tU1").closed
    u2 = catalog_unitary("tU2").closed
    return UnitarySpec("tU2*tU1", 4, 3, u2 @ u1,
                       source="dirac_massless", target="phi_diag")


def verify_transform(u: UnitarySpec, samples, m: float = 1.0,
                     kappa: float = 1.0, corrupt_reduction: bool = False) -> float:
    """max_p | u H_src u^-1 - H_tgt |; the conjugation uses u^-1 = u^dagger."""
    if u.source is None or u.target is None:
        raise ValueError(f"{u.name} has no source/target wiring")
    hs = catalog_equation(u.source, m=m, kappa=kappa,
                          corrupt_reduction=corrupt_reduction).hamiltonian
    ht = u.target if isinstance(u.target, OperatorField) else \
        catalog_equation(u.target, m=m, kappa=kappa).hamiltonian
    require_unitary(u.name, u.closed, samples)
    p = as_batch(samples)
    up = u.closed(p)
    return mat_max(up @ hs(p) @ dagger(up) - ht(p))


def unitarity_residual(u: UnitarySpec, samples) -> float:
    return unitarity_defect(u.closed(as_batch(samples)))


def exp_closed_residual(u: UnitarySpec, samples) -> float:
    if u.exponent is None:
        raise ValueError(f"{u.name} has no exponential form")
    p = as_batch(samples)
    return mat_max(u.closed(p) - expm(u.exponent(p)))


def tu2_alt_normalization_residual(samples) -> float:
    """On p3 > 0 the catalog tU2 equals U2, its |p3|-normalized variant."""
    tu2 = catalog_unitary("tU2").closed
    alt = catalog_unitary("U2").closed
    pos = [p for p in samples if p[2] > 0]
    if not pos:
        raise ValueError("need at least one p3 > 0 sample")
    p = as_batch(pos)
    return mat_max(tu2(p) - alt(p))


# -- projectors ------------------------------------------------------------

Q_PLUS = 0.5 * (I4 + G3 @ G4)
Q_MINUS = 0.5 * (I4 - G3 @ G4)


@functools.lru_cache(maxsize=256)
def chirality_projector_field(sign: float) -> OperatorField:
    """(1 -+ e3*gamma4)/2, the momentum-dependent subsidiary projectors."""
    return OperatorField(4, 3, [
        (lambda p: 0.5, I4),
        (lambda p, _s=sign: -0.5 * _s * e3(p), G4),
    ])


@functools.lru_cache(maxsize=256)
def massive_constraint_field(m: float) -> OperatorField:
    """K(p) = (gamma3 gamma4 m + gamma4 p3)/q3 with K^2 = 1."""
    q3 = q3_of(m)
    return OperatorField(4, 3, [
        (lambda p: m / q3(p), G3 @ G4),
        (lambda p: p[2] / q3(p), G4),
    ])


def verify_projectors(samples, m: float = 1.0) -> dict:
    """Residuals of every projector identity in the catalog."""
    res = {}
    res["q_idempotent"] = mat_max(Q_PLUS @ Q_PLUS - Q_PLUS,
                                  Q_MINUS @ Q_MINUS - Q_MINUS)
    res["q_orthogonal"] = mat_max(Q_PLUS @ Q_MINUS)
    res["q_complete"] = mat_max(Q_PLUS + Q_MINUS - I4)

    p = as_batch(samples)
    hchi = catalog_equation("chi_4c").hamiltonian(p)
    res["q_commutes_hchi"] = mat_max(Q_PLUS @ hchi - hchi @ Q_PLUS)

    kf = massive_constraint_field(m)(p)
    res["k_squares_to_one"] = mat_max(kf @ kf - I4)
    proj = 0.5 * (I4 - kf)
    res["k_projector_idempotent"] = mat_max(proj @ proj - proj)
    hm = catalog_equation("dirac_massive", m=m).hamiltonian(p)
    res["k_commutes_massive"] = mat_max(kf @ hm - hm @ kf)

    cp = chirality_projector_field(+1.0)(p)
    cm = chirality_projector_field(-1.0)(p)
    res["chirality_idempotent"] = mat_max(cp @ cp - cp, cm @ cm - cm)
    res["chirality_complementary"] = mat_max(cp + cm - I4, cp @ cm)
    return res


# -- structural identities --------------------------------------------------

def block_reduction_residual(samples) -> float:
    """chi_4c restricted to the Q+- blocks equals chi_plus / chi_minus."""
    h4 = catalog_equation("chi_4c").hamiltonian
    hp = catalog_equation("chi_plus").hamiltonian
    hm = catalog_equation("chi_minus").hamiltonian
    p = as_batch(samples)
    full = h4(p)
    return mat_max(full[..., :2, :2] - hp(p), full[..., 2:, 2:] - hm(p),
                   full[..., :2, 2:], full[..., 2:, :2])


def dispersion_residual(eq: EquationSpec, samples) -> float:
    """max_p | H^2 - (p.p + mass_sq) 1 |."""
    if eq.mass_sq is None:
        raise ValueError(f"{eq.name} has no dispersion contract")
    p = as_batch(samples)
    h = eq.hamiltonian(p)
    pp = sum(c ** 2 for c in p) + eq.mass_sq
    return mat_max(h @ h - pp[..., None, None] * np.eye(eq.dim))


def lambda_consistency_residual(samples) -> float:
    """lambda*S_0l*p_l with lambda = -2i reproduces the massless operator."""
    s0l = [spin_matrix(_REP, 0, l) for l in (1, 2, 3)]
    h = catalog_equation("dirac_massless").hamiltonian
    p = as_batch(samples)
    return mat_max(sum((-2j) * s0l[l] * p[l][..., None, None]
                       for l in range(3)) - h(p))


def hermiticity_residual(eq: EquationSpec, samples) -> float:
    h = eq.hamiltonian(as_batch(samples))
    return mat_max(h - dagger(h))
