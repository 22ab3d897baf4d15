"""Poincare generator realizations, algebra closure, helicity, irrep content.

Each realization is a family of first-order operators

    P_0 = H(p),  P_k = p_k,
    J_kl = x_k p_l - x_l p_k + (spin part),
    J_0k = x0 p_k - (1/2)[x_k, H]_+ + (spin part),

with x_k = i d/dp_k and the anticommutator expanded to H x_k + (i/2) dH/dp_k.

Closure is one tensor identity over the members G_i (P_0..P_d, then J_mu nu):

    [G_i, G_j] = i sum_c (s_JJ f_JJ + s_JP f_JP)_ij^c G_c,

with f_JJ and f_JP the real (G, G, G) tensors that :func:`structure_constants`
builds once per d from the metric diag(1, -1, ..., -1).  Both sides are
exactly antisymmetric in (i, j), so the residual reads only the pairs i < j:
the commutators of those pairs, from one :func:`diffop_commutator` call on
the set's stacked jet, and right-hand sides that are GEMMs of the pair rows
of f over the member axis.  It must hold identically in x0, so it is checked
per x0 coefficient: the x0^0, x0^1 and x0^2 parts of A and the x0^0 and x0^1
parts of B.  The signs (s_JJ, s_JP) are never assumed: :func:`structure_signs`
picks, once per d, the pair of the four candidates that closes the pure
orbital scalar realization (identity matrices, H = E), and every matrix
realization must then close with those signs.

:func:`generator_set` builds each realization once per set of arguments and
hands the same read-only object to every caller.
"""

import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import dual
from .clifford import gamma_set, pauli, spin_matrix
from .equations import catalog_equation, e3, e_plus_abs_p3, energy
from .linalg import mat_max
from .opcalc import (DiffOp1, OperatorField, as_batch, conjugated,
                     diffop_commutator, require_unitary, sample_momenta,
                     stacked_jet, stacked_values)

_REP = gamma_set("rep26")
G0 = _REP.gamma(0)


class ContentNotInvariant(Exception):
    """Irrep content differed across sample momenta (construction bug)."""


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    name: str
    dim: int
    d: int
    P: Mapping       # index 0..d -> DiffOp1 (P[0] is the Hamiltonian)
    J: Mapping       # (mu, nu) with mu < nu -> DiffOp1

    def members(self):
        out = [(f"P{k}", op) for k, op in sorted(self.P.items())]
        out += [(f"J{mu}{nu}", op) for (mu, nu), op in sorted(self.J.items())]
        return out


@functools.cache
def _orbital_rotation(k: int, l: int, dim: int, d: int) -> DiffOp1:
    """x_k p_l - x_l p_k, normal ordered (1-based spatial indices)."""
    zero = OperatorField.zero(dim, d)
    b = [zero] * d
    b[k - 1] = OperatorField.momentum(l - 1, dim, d)
    b[l - 1] = _minus_momentum(k - 1, dim, d)
    return DiffOp1(zero, tuple(b), zero)


@functools.cache
def _minus_momentum(k: int, dim: int, d: int) -> OperatorField:
    """-p_k 1 (k 0-based): one node, the B_l of every J_kl with l > k."""
    return OperatorField.momentum(k, dim, d).scale(-1.0)


def _boost(h: OperatorField, minus_h: OperatorField, k: int) -> DiffOp1:
    """x0 p_k - (1/2)[x_k, H]_+ = x0 p_k - H x_k - (i/2) dH/dp_k."""
    dim, d = h.dim, h.d
    a = h.partial(k - 1).scale(-0.5j)
    b = [OperatorField.zero(dim, d)] * d
    b[k - 1] = minus_h
    return DiffOp1(a, tuple(b), OperatorField.momentum(k - 1, dim, d))


def _assemble(name: str, h: OperatorField, spin=None,
              boost_extra=None) -> GeneratorSet:
    """P_0 = H, P_k = p_k, J_kl = x_k p_l - x_l p_k + spin[(k, l)] and
    J_0k = x0 p_k - (1/2)[x_k, H]_+ + boost_extra[k]; an added part is a
    field or a constant matrix, and an absent one is zero.  A field that
    sets share (the orbital parts, the phi family's spin fields), and -H in
    the boosts of one set, is one node, evaluated once per argument."""
    dim, d = h.dim, h.d
    spin, boost_extra = spin or {}, boost_extra or {}
    minus_h = h.scale(-1.0)

    def plus(op, f):
        if f is None:
            return op
        if not isinstance(f, OperatorField):
            f = OperatorField.constant(f, d)
        return op + DiffOp1.from_field(f)

    P = {0: DiffOp1.from_field(h)}
    J = {}
    for k in range(1, d + 1):
        P[k] = DiffOp1.from_field(OperatorField.momentum(k - 1, dim, d))
        for l in range(k + 1, d + 1):
            J[(k, l)] = plus(_orbital_rotation(k, l, dim, d), spin.get((k, l)))
        J[(0, k)] = plus(_boost(h, minus_h, k), boost_extra.get(k))
    return GeneratorSet(name, dim, d, MappingProxyType(P), MappingProxyType(J))


def _over_e_plus_p3(p):
    return 1.0 / e_plus_abs_p3(p)


# S_{a b} p_b for a = 1, 2 reduces to +-S12 p_{2,1}: it and the J_a3 spin
# fields are shared by phi, phi_pos and phi_neg
_SAB_PB = {a: OperatorField(4, 3, [(f, spin_matrix(_REP, 1, 2))]) for a, f in
           ((1, lambda p: p[1]), (2, lambda p: -p[0]))}
_PHI_SPIN = {(a, 3): _SAB_PB[a].scale(lambda p: -e3(p) * _over_e_plus_p3(p))
             for a in (1, 2)}


def generator_set(name: str, m: float = 1.0) -> GeneratorSet:
    """One of the named realizations, built once per (name, m): every
    spelling of the same arguments returns the same object.

    ``phi_pos`` / ``phi_neg`` are the diagonal realization with the matrix
    gamma0 replaced by the scalar +1 / -1.
    """
    return _generator_set(name, float(m))


@functools.lru_cache(maxsize=256)
def _generator_set(name: str, m: float) -> GeneratorSet:
    if name == "psi":
        h = catalog_equation("dirac_massless").hamiltonian
        return _assemble(name, h, {(k, l): spin_matrix(_REP, k, l)
                                   for k in range(1, 4)
                                   for l in range(k + 1, 4)})

    s12 = spin_matrix(_REP, 1, 2)
    if name == "chi":
        # - e3 * S_a3 * gamma3 = + (i/2) e3 gamma_a
        spin = {(a, 3): OperatorField(4, 3, [(lambda p: 0.5j * e3(p),
                                              _REP.gamma(a))])
                for a in (1, 2)}
        return _assemble(name, catalog_equation("chi_4c").hamiltonian,
                         {**spin, (1, 2): s12})

    if name in ("phi", "phi_pos", "phi_neg"):
        g0 = G0 if name == "phi" else (
            1.0 if name == "phi_pos" else -1.0) * np.eye(4, dtype=complex)
        extra = {a: (OperatorField.constant(g0, 3) @ _SAB_PB[a])
                 .scale(lambda p: -_over_e_plus_p3(p)) for a in (1, 2)}
        return _assemble(name, OperatorField(4, 3, [(energy, g0)]),
                         {**_PHI_SPIN, (1, 2): s12}, extra)

    if name in ("chi2", "chi2_lower"):
        # two-component reduction of the "chi" set on the upper (lower)
        # block: J_a3 spin part is -(+)(1/2) e3 sigma_a
        upper = name == "chi2"
        spin = {(a, 3): OperatorField(2, 3, [(
            lambda p, _s=-0.5 if upper else 0.5: _s * e3(p), pauli(a))])
            for a in (1, 2)}
        h = catalog_equation("chi_plus" if upper else "chi_minus").hamiltonian
        return _assemble(name, h, {**spin, (1, 2): 0.5 * pauli(3)})

    if name == "flat":
        return _assemble(name, catalog_equation("flat_plus", m=m).hamiltonian,
                         {(1, 2): 0.5 * pauli(3)})

    if name == "weyl":
        eps = {(1, 2): 3, (1, 3): -2, (2, 3): 1}
        return _assemble(name, catalog_equation("weyl_plus").hamiltonian,
                         {kl: 0.5 * np.sign(s) * pauli(abs(s))
                          for kl, s in eps.items()})

    raise ValueError(f"unknown generator set {name!r}")


GENERATOR_NAMES = ("psi", "chi", "phi", "phi_pos", "phi_neg", "chi2",
                   "flat", "weyl")

# equation -> (the generator set whose helicity labels its irrep content,
# the stated content per p3 branch): all four labels, or helicity +eps/2
# (_UP) or -eps/2 (_DOWN), which chi_plus and chi_minus tie to the sign of p3
_FOUR = ((-1, -0.5), (-1, 0.5), (1, -0.5), (1, 0.5))
_UP, _DOWN = ((-1, -0.5), (1, 0.5)), ((-1, 0.5), (1, -0.5))
CONTENT_SETS = {
    "dirac_massless": ("psi", {"+": _FOUR, "-": _FOUR}),
    "chi_4c": ("chi", {"+": _FOUR, "-": _FOUR}),
    "phi_diag": ("phi", {"+": _FOUR, "-": _FOUR}),
    "weyl_plus": ("weyl", {"+": _UP, "-": _UP}),
    "chi_plus": ("chi2", {"+": _UP, "-": _DOWN}),
    "chi_minus": ("chi2_lower", {"+": _DOWN, "-": _UP}),
}


# -- structure constants and their calibration --------------------------------

def _scalar_orbital_set(d: int) -> GeneratorSet:
    e_d = lambda p: dual.sqrt(sum(c * c for c in p))
    return _assemble("orbital", OperatorField.scalar(e_d, 1, d))


@functools.cache
def structure_constants(d: int):
    """(f_JJ, f_JP): real (G, G, G) tensors over ``GeneratorSet.members()``
    order (P_0..P_d, then J_mu nu with mu < nu) such that

        [J_mn, J_rs] = i s_JJ (g_nr J_ms + g_ms J_nr - g_mr J_ns - g_ns J_mr)
        [J_mn, P_l]  = i s_JP (g_nl P_m - g_ml P_n),      [P, P] = 0,

    i.e. [G_i, G_j] = i sum_c (s_JJ f_JJ + s_JP f_JP)_ij^c G_c with the
    metric g = diag(1, -1, ..., -1).  Both are antisymmetric in (i, j).
    """
    n_p = d + 1
    jkeys = list(itertools.combinations(range(n_p), 2))
    size = n_p + len(jkeys)
    g = np.diag([1.0] + [-1.0] * d)
    # members as unit vectors: p[l] = P_l, j[mu, nu] = J_mu nu = -j[nu, mu]
    p = np.eye(n_p, size)
    j = np.zeros((n_p, n_p, size))
    for c, (mu, nu) in enumerate(jkeys, start=n_p):
        j[mu, nu, c], j[nu, mu, c] = 1.0, -1.0
    jj = (np.einsum("nr,msc->mnrsc", g, j) + np.einsum("ms,nrc->mnrsc", g, j)
          - np.einsum("mr,nsc->mnrsc", g, j) - np.einsum("ns,mrc->mnrsc", g, j))
    jp = np.einsum("nl,mc->mnlc", g, p) - np.einsum("ml,nc->mnlc", g, p)
    mu, nu = np.array(jkeys).T
    f_jj, f_jp = np.zeros((2, size, size, size))
    f_jj[n_p:, n_p:] = jj[mu[:, None], nu[:, None], mu, nu]
    f_jp[n_p:, :n_p] = jp[mu, nu]
    f_jp[:n_p, n_p:] = -np.swapaxes(f_jp[n_p:, :n_p], 0, 1)
    f_jj.flags.writeable = f_jp.flags.writeable = False
    return f_jj, f_jp


def _closure(gs: GeneratorSet, p):
    """The commutators of the member pairs i < j on the batch p, and the
    stacked member parts A, C and B: one stacked jet of the set."""
    jet = stacked_jet([op for _, op in gs.members()], p)
    return diffop_commutator(jet), jet.a, jet.x0, jet.b


@functools.cache
def _pair_rows(d: int, sign_jj: float, sign_jp: float) -> np.ndarray:
    """The pair rows i < j of i (s_JJ f_JJ + s_JP f_JP), read-only."""
    f_jj, f_jp = structure_constants(d)
    f = (1j * (sign_jj * f_jj + sign_jp * f_jp))[np.triu_indices(len(f_jj), 1)]
    f.flags.writeable = False
    return f


def _tensor_residual(closure, sign_jj, sign_jp) -> float:
    """max |[G_i, G_j] - i f_ij^c G_c| over the pairs i < j, parts, x0
    coefficients and the batch: the max over every pair, as both sides are
    exactly antisymmetric in (i, j).  The right-hand side, linear in the
    members, has no x0^2 part, and its B part no x0 part (C carries no
    derivative); its parts are GEMMs of the pair rows of f (built once per
    d and signs) over the member axis, read against the commutator's parts;
    an absent part (an exact zero) is not reduced.
    """
    comm, a, c, b = closure
    f = _pair_rows(len(comm.b), sign_jj, sign_jp)
    rhs = lambda x: (f @ x.reshape(len(x), -1)).reshape((len(f),) + x.shape[1:])
    return mat_max(comm.a - rhs(a), comm.x0_a - rhs(c),
                   comm.b - np.moveaxis(rhs(b), 1, 0),
                   *(x for x in (comm.x0_sq, comm.x0_b) if x is not None))


@functools.cache
def structure_signs(d: int):
    """Calibrate the [J,J] and [J,P] sign conventions on the orbital scalar set."""
    closure = _closure(_scalar_orbital_set(d),
                       as_batch(sample_momenta(d, 3, seed=1234)))
    best = min(((_tensor_residual(closure, sjj, sjp), sjj, sjp)
                for sjj in (1.0, -1.0) for sjp in (1.0, -1.0)),
               key=lambda r: r[0])
    if not (best[0] <= 1e-10):
        raise RuntimeError(
            f"orbital calibration failed at d={d}: residual {best[0]:.3e}")
    return best[1], best[2]


def algebra_residual(gs: GeneratorSet, samples):
    """(closure residual, second-order residual) under the calibrated relations."""
    closure = _closure(gs, as_batch(samples))
    return (_tensor_residual(closure, *structure_signs(gs.d)),
            closure[0].second_order)


def set_covariance_residual(gs_src: GeneratorSet, gs_tgt: GeneratorSet,
                            u: OperatorField, samples) -> float:
    """max | u G_src u^-1 - G_tgt | over members, samples and the parts A, B
    and C (the x0 coefficient); u is checked for unitarity on every call,
    the source set is conjugated once per (u, set) (:func:`conjugated`), and
    each set's values are one stacked evaluation."""
    p, ud = as_batch(samples), u.adjoint()
    require_unitary("conjugating field", ud, samples[:2])
    src, tgt = (tuple(op for _, op in gs.members()) for gs in (gs_src, gs_tgt))
    (a1, b1, c1), (a2, b2, c2) = (stacked_values(ops, p)
                                  for ops in (conjugated(ud, src), tgt))
    return mat_max(a1 - a2, b1 - b2, c1 - c2)


# -- helicity and irrep content ----------------------------------------------

def helicity_field(gs: GeneratorSet, check_points) -> OperatorField:
    """h = sum_k p_k J_k / E with J_k = (1/2) eps_klm J_lm.

    The orbital derivative parts cancel identically (p x p = 0); this is
    asserted at each call's check points; the cached matrix field is returned.
    """
    h_op = _helicity_operator(gs)
    p = as_batch(check_points)
    if not (mat_max(*(bf(p) for bf in h_op.b)) <= 1e-10):
        raise RuntimeError("not a scalar helicity")
    if not (mat_max(h_op.x0(p)) <= 1e-12):
        raise RuntimeError("helicity acquired an x0 part")
    return h_op.a


@functools.lru_cache(maxsize=64)
def _helicity_operator(gs: GeneratorSet) -> DiffOp1:
    if gs.d != 3:
        raise ValueError("helicity requires d = 3")
    jvec = {1: gs.J[(2, 3)], 2: gs.J[(1, 3)].scale(-1.0), 3: gs.J[(1, 2)]}
    terms = [jvec[k].scale(lambda p, _k=k: p[_k - 1] / energy(p))
             for k in (1, 2, 3)]
    return terms[0] + terms[1] + terms[2]


def _half_integer(x) -> float:
    r = round(2.0 * x) / 2.0
    if abs(x - r) > 1e-7:
        raise ContentNotInvariant(f"helicity {x} is not a half-integer")
    return r


def irrep_content(eq, gs: GeneratorSet, samples) -> dict:
    """{"+": labels, "-": labels}: the multiset of (energy sign, helicity)
    labels on each p3 branch present in the samples.

    H(p) is diagonalized at each sample, and the helicity field within each
    energy-sign eigenspace (:func:`_block_helicities`).  A content that varies
    within a branch raises ContentNotInvariant; p3 = 0 raises ValueError.
    """
    p = as_batch(samples)
    if (p[2] == 0).any():
        raise ValueError(f"{eq.name}: sample {np.argmax(p[2] == 0)} has p3 = 0")
    w_all, v_all = np.linalg.eigh(eq.hamiltonian(p))
    hel_all = helicity_field(gs, samples[:2])(p)
    out = {}
    for key, rows in (("+", p[2] > 0), ("-", p[2] < 0)):
        w, v, hel = w_all[rows], v_all[rows], hel_all[rows]
        for xs in zip(*(_block_helicities(w, v, hel, eps) for eps in (1, -1))):
            content = tuple(sorted((eps, _half_integer(x)) for eps, x_eps
                                   in zip((1, -1), xs) for x in x_eps))
            if out.setdefault(key, content) != content:
                raise ContentNotInvariant(
                    f"{eq.name}: content not invariant on the p3 {key} "
                    f"branch: {out[key]} and {content}")
    return out


def _block_helicities(w, v, hel, eps):
    """The helicity's eigenvalues on each sample's energy-sign eps eigenspace
    of H (eigenpairs w, v): one stacked eigvalsh if its size never varies."""
    m = np.sign(w) == eps
    if len(set(m.sum(1).tolist())) == 1:
        q = np.take_along_axis(v, np.nonzero(m)[1].reshape(len(m), 1, -1), 2)
        return np.linalg.eigvalsh(np.swapaxes(q.conj(), -1, -2) @ hel @ q)
    return [np.linalg.eigvalsh(vs[:, ms].conj().T @ hs @ vs[:, ms])
            for vs, hs, ms in zip(v, hel, m)]
