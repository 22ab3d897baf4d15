"""Discrete-symmetry engine.

A candidate transformation is a triple (axis flips, time flip, conjugation).
Acting on momentum-space wave functions, a transformation with constant
matrix part M is a symmetry of i d(psi)/dt = H(p) psi exactly when

    linear      (no conjugation):  eps_t * M H(S p) M^-1 = H(p)
    antilinear  (conjugation):    -eps_t * M conj(H(-S p)) M^-1 = H(p)

where S is the diagonal +-1 reflection built from the flips, eps_t = -1 iff
the time flip is present, and conj is entrywise conjugation.  The extra
p -> -p in the antilinear case is forced by the Fourier transform: complex
conjugation in position space reverses every momentum component before the
spatial reflection S is applied.

Intertwiners M are solved for by stacking the linear map
M |-> H(p_i) M - M Htilde(p_i) over seeded sample momenta, vectorizing, and
taking the SVD nullspace.  A two-sided threshold separates the verdicts: an
invariance claim must survive a holdout-residual test at 1e-7, a
non-invariance claim requires the smallest singular value to exceed
1e-4 * sigma_max, and the gap in between raises IndeterminateVerdict.
"""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .linalg import (TOL_NULLSPACE, cond2, dagger, mat_max, polar_unitary,
                     svd_nullspace, worst)
from .opcalc import as_batch, sample_momenta

HOLDOUT_TOL = 1e-7            # relative residual for confirmed invariance
CERTIFICATE_TOL = 1e-4        # sigma_min/sigma_max floor for non-invariance


class IndeterminateVerdict(Exception):
    """Raised when the singular spectrum falls between the two thresholds."""


@dataclass(frozen=True)
class SymmetryElement:
    d: int
    flips: frozenset
    time_flip: bool
    conjugate: bool

    @property
    def label(self) -> str:
        parts = [f"P{k}" for k in sorted(self.flips)]
        if self.time_flip:
            parts.append("T1" if self.conjugate else "T2")
        elif self.conjugate:
            parts.append("C")
        return "*".join(parts) if parts else "Id"

    @staticmethod
    def parse(text: str, d: int) -> "SymmetryElement":
        """Parse labels like ``P3*C`` or ``P1*C*T1`` (order-insensitive)."""
        flips = set()
        time_flip = False
        conjugate = False
        text = text.strip()
        if text not in ("", "Id"):
            for tok in text.split("*"):
                tok = tok.strip()
                if tok.startswith("P") and tok[1:].isdigit():
                    k = int(tok[1:])
                    if not 1 <= k <= d:
                        raise ValueError(f"axis {tok} out of range for d={d}")
                    flips ^= {k}
                elif tok == "T1":
                    time_flip ^= True
                    conjugate ^= True
                elif tok == "T2":
                    time_flip ^= True
                elif tok == "C":
                    conjugate ^= True
                else:
                    raise ValueError(f"bad symmetry token {tok!r}")
        return SymmetryElement(d, frozenset(flips), time_flip, conjugate)

    def compose(self, other: "SymmetryElement") -> "SymmetryElement":
        """self after other (operator product; matrix parts are solved, not composed)."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return SymmetryElement(self.d, self.flips ^ other.flips,
                               self.time_flip ^ other.time_flip,
                               self.conjugate ^ other.conjugate)

    def momentum_map(self, p):
        """The momentum argument of Htilde: S p, with p -> -p when antilinear."""
        q = tuple(-c if (k + 1) in self.flips else c for k, c in enumerate(p))
        if self.conjugate:
            q = tuple(-c for c in q)
        return q


def group_elements(d: int) -> list:
    """The full reflection group: 2^d flips x time x conjugation."""
    out = []
    for mask in range(2 ** d):
        flips = frozenset(k + 1 for k in range(d) if mask >> k & 1)
        for time_flip in (False, True):
            for conjugate in (False, True):
                out.append(SymmetryElement(d, flips, time_flip, conjugate))
    out.sort(key=lambda g: (len(g.flips), sorted(g.flips),
                            g.time_flip, g.conjugate))
    return out


def intertwine_condition(eq, g: SymmetryElement, p):
    """(Htilde(p), H(p)) such that invariance <=> M Htilde = H M for all p.

    On a batch ``p`` both are (n, dim, dim) stacks.
    """
    h = eq.hamiltonian
    q = g.momentum_map(p)
    eps_t = -1.0 if g.time_flip else 1.0
    if g.conjugate:
        htilde = -eps_t * np.conj(h(q))
    else:
        htilde = eps_t * h(q)
    return htilde, h(p)


def _condition_pairs(eq, g, points):
    """One (Htilde, H) pair per point, from one evaluation on the batch."""
    htilde, h = intertwine_condition(eq, g, as_batch(points))
    return list(zip(htilde, h))


def _stacked_matrix(pairs, dim):
    """Rows of the vectorized map M -> H M - M Htilde (row-major vec)."""
    eye = np.eye(dim)
    blocks = [np.kron(h, eye) - np.kron(eye, ht.T) for ht, h in pairs]
    return np.vstack(blocks)


def _relative_residual(m, pairs) -> float:
    nm = np.linalg.norm(m)
    return worst(np.linalg.norm(h @ m - m @ ht) / (np.linalg.norm(h) * nm)
                 for ht, h in pairs)


@dataclass(frozen=True)
class Intertwiner:
    matrix: np.ndarray
    unitary_rep: np.ndarray
    residual: float            # fit residual (relative)
    holdout_residual: float
    nullity: int


@dataclass(frozen=True)
class NonInvariance:
    certificate: float         # smallest singular value of the stacked map
    sigma_max: float

    @property
    def relative(self) -> float:
        return self.certificate / self.sigma_max


def solve_intertwiner(eq, g: SymmetryElement,
                      n_fit: int = 12, n_holdout: int = 4,
                      seed: int = 42) -> Union[Intertwiner, NonInvariance]:
    """Nullspace solve for a constant intertwiner, or a non-invariance certificate."""
    if n_fit < 2 * eq.d + 4:
        raise ValueError("n_fit too small for a decisive verdict")
    if n_holdout < 4:
        raise ValueError("n_holdout must be >= 4")
    dim = eq.dim
    pairs = _condition_pairs(eq, g, sample_momenta(eq.d, n_fit, seed))
    stacked = _stacked_matrix(pairs, dim)
    svals = np.linalg.svd(stacked, compute_uv=False)
    smax, smin = svals[0], svals[-1]

    null = svd_nullspace(stacked, TOL_NULLSPACE)
    if not null.vectors:
        if smin > CERTIFICATE_TOL * smax:
            return NonInvariance(float(smin), float(smax))
        raise IndeterminateVerdict(
            f"{eq.name}/{g.label}: sigma_min/sigma_max = {smin / smax:.3e} "
            "falls between thresholds -- increase samples")

    candidates = [v.reshape(dim, dim) for v in null.vectors]
    nullity = len(null.vectors)
    if nullity > 1:
        rng = np.random.default_rng(seed + 1)
        basis = np.array(null.vectors)
        for _ in range(32):
            w = rng.normal(size=nullity) + 1j * rng.normal(size=nullity)
            candidates.append((w @ basis).reshape(dim, dim))

    hold_pairs = _condition_pairs(eq, g,
                                  sample_momenta(eq.d, n_holdout, seed + 7919))
    for m in candidates:
        if cond2(m) > 1e6:
            continue
        hres = _relative_residual(m, hold_pairs)
        if hres <= HOLDOUT_TOL:
            m = m / np.linalg.norm(m) * np.sqrt(dim)
            return Intertwiner(m, polar_unitary(m),
                               _relative_residual(m, pairs), float(hres),
                               nullity)
    raise IndeterminateVerdict(
        f"{eq.name}/{g.label}: nullspace found but no invertible member "
        "passed the holdout test -- increase samples")


# -- classification ----------------------------------------------------------

@dataclass(frozen=True)
class ElementVerdict:
    element: SymmetryElement
    invariant: bool
    residual: float                       # holdout residual or sigma_min/sigma_max
    intertwiner: Optional[Intertwiner]


@dataclass(frozen=True)
class ClassificationReport:
    equation: str
    verdicts: tuple
    agreement: bool
    claims_checked: int
    coherence_ok: bool

    def verdict_for(self, label: str) -> ElementVerdict:
        d = self.verdicts[0].element.d
        want = SymmetryElement.parse(label, d).label
        for v in self.verdicts:
            if v.element.label == want:
                return v
        raise KeyError(label)


def _composition_matrix(g1, m1, g2, m2):
    # (g1 g2) psi = g1 (g2 psi): matrix part M1 conj^{c1}(M2)
    return m1 @ (np.conj(m2) if g1.conjugate else m2)


def classify_equation(eq, seed: int = 42, n_fit: int = 12,
                      n_holdout: int = 4) -> ClassificationReport:
    """Solve every group element, check attached-claim agreement and coherence."""
    verdicts = []
    table = {}
    for g in group_elements(eq.d):
        out = solve_intertwiner(eq, g, n_fit=n_fit, n_holdout=n_holdout,
                                seed=seed)
        if isinstance(out, Intertwiner):
            v = ElementVerdict(g, True, out.holdout_residual, out)
        else:
            v = ElementVerdict(g, False, out.relative, None)
        verdicts.append(v)
        table[g.label] = v

    agreement = True
    for label, expected in eq.claims:
        got = table[SymmetryElement.parse(label, eq.d).label].invariant
        if got != expected:
            agreement = False

    # multiplicativity: products of invariant elements stay invariant and the
    # composed matrices intertwine the composed element
    coherence_ok = True
    check = sample_momenta(eq.d, 4, seed + 31)
    invariant = [v for v in verdicts if v.invariant]
    for v1 in invariant:
        for v2 in invariant:
            g12 = v1.element.compose(v2.element)
            v12 = table[g12.label]
            if not v12.invariant:
                coherence_ok = False
                continue
            m12 = _composition_matrix(v1.element, v1.intertwiner.matrix,
                                      v2.element, v2.intertwiner.matrix)
            pairs = _condition_pairs(eq, g12, check)
            if not (_relative_residual(m12, pairs) <= 1e-6):
                coherence_ok = False

    return ClassificationReport(eq.name, tuple(verdicts), agreement,
                                len(eq.claims), coherence_ok)


# -- random-search oracle -----------------------------------------------------

def random_search_oracle(eq, g: SymmetryElement, points,
                         n_candidates: int = 100_000, seed: int = 42,
                         pool: Optional[np.ndarray] = None,
                         polish_iters: int = 1500, n_polish: int = 8):
    """Independent invariance probe: random candidates plus gradient polish.

    Draws ``n_candidates`` random matrices, measures the relative condition
    residual of each, then drives the best few to a local minimum of the
    (quadratic) residual by plain shifted power iteration.  Returns
    (min relative residual, invariant?), with the 1e-3 decision threshold.
    No SVD or eigensolver is involved, so the verdict is an independent
    check on the nullspace route.
    """
    dim = eq.dim
    n2 = dim * dim
    pairs = _condition_pairs(eq, g, points)
    eye = np.eye(dim)
    gram = np.zeros((n2, n2), dtype=complex)
    scale2 = 0.0
    for ht, h in pairs:
        k = np.kron(h, eye) - np.kron(eye, ht.T)
        gram += dagger(k) @ k
        scale2 += np.linalg.norm(h) ** 2

    if pool is None:
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(n_candidates, n2)) \
            + 1j * rng.normal(size=(n_candidates, n2))
    v = pool / np.linalg.norm(pool, axis=1, keepdims=True)
    quad = np.real(np.einsum("ni,ni->n", v.conj(), v @ gram.T))
    rel = np.sqrt(np.maximum(quad, 0.0) / scale2)

    order = np.argsort(rel)[:n_polish]
    w = v[order].T                                    # (n2, n_polish)
    lam = float(np.linalg.norm(gram, 2))              # spectral bound via 2-norm
    shifted = lam * np.eye(n2) - gram
    for _ in range(polish_iters):
        w = shifted @ w
        w /= np.linalg.norm(w, axis=0, keepdims=True)
    quad_w = np.real(np.einsum("in,in->n", w.conj(), gram @ w))
    rel_w = np.sqrt(np.maximum(quad_w, 0.0) / scale2)

    best = float(min(rel.min(), rel_w.min()))
    return best, best < 1e-3


# -- projector / reflection interplay ----------------------------------------

def verify_projection_relations(seed: int = 42, n_fit: int = 12,
                                n_holdout: int = 4) -> dict:
    """Solved four-component intertwiners swap or fix the block projectors.

    Single-axis reflections along 1 or 2 and both time reflections exchange
    Q+ and Q-; the axis-3 reflection and conjugation commute with them.
    Antilinear elements act on a projector through conj(Q), which here equals
    Q (the projectors are real).
    """
    from .equations import Q_MINUS, Q_PLUS, catalog_equation

    eq = catalog_equation("chi_4c")
    res = {}
    for label, swaps in (("P1", True), ("P2", True), ("T1", True),
                         ("T2", True), ("P3", False), ("C", False)):
        g = SymmetryElement.parse(label, 3)
        out = solve_intertwiner(eq, g, n_fit=n_fit, n_holdout=n_holdout,
                                seed=seed)
        if not isinstance(out, Intertwiner):
            raise IndeterminateVerdict(f"chi_4c/{label}: expected invariance")
        m = out.matrix
        qp = np.conj(Q_PLUS) if g.conjugate else Q_PLUS
        qm = np.conj(Q_MINUS) if g.conjugate else Q_MINUS
        to_p, to_m = (Q_MINUS, Q_PLUS) if swaps else (Q_PLUS, Q_MINUS)
        res[label] = worst([mat_max(m @ qp - to_p @ m),
                            mat_max(m @ qm - to_m @ m)])
    return res
