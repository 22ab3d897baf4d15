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

H is evaluated once per solve or classification, on the sign images of the
sample momenta (the group and its sign images are built once per d).  Per
chunk of elements within ``STACK_BYTES``, one stacked QR of the Sylvester
maps M |-> H(p_i) M - M Htilde(p_i), written into two diagonal views of one
zeroed stack (:func:`_sylvester`), and one SVD of their square R factors
give singular values, Vh and nullities as arrays: an invariance claim must
survive a holdout test at 1e-7 (per nullity, candidates sliced from Vh,
scored and normalised as stacks), a non-invariance claim needs
sigma_min > 1e-4 sigma_max, and an element in the gap between, or whose
nullspace has no member that passes the holdout, is :class:`Indeterminate`.
Coherence checks the invariant elements, which form an XOR group: the
products M_b conj^{c_b}(M_j) composing to g = g_b g_j take one GEMM.  Both
the holdout score and coherence read the relative residual
|H M - M Htilde| / (|H| |M|) from the Sylvester maps at their own points,
one product per M (:func:`_residuals`).

The random-search oracle shares only :func:`intertwine_condition` with that
route.  It scores a pool of random M against the Gram matrix of the stacked
map in one real matrix product, and polishes the best few by a matrix power
built from repeated squarings.  It calls no SVD or eigensolver, so its
verdicts are an independent check on the nullspace ones.
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import equations as eqs
from .linalg import (TOL_NULLSPACE, cond2, dagger, mat_max, polar_unitary,
                     svd_nullspace)
from .opcalc import as_batch, sample_momenta

HOLDOUT_TOL = 1e-7            # relative residual for confirmed invariance
CERTIFICATE_TOL = 1e-4        # sigma_min/sigma_max floor for non-invariance
N_POLISH = 8                  # best oracle candidates that are polished
POLISH_STEPS = 1500           # power-iteration steps of that polish
# budget of one stacked solve or coherence chunk: at 4x4 a chunk's fixed
# cost (about 10 numpy calls and 3 LAPACK stacks) is most of its time
STACK_BYTES = 1 << 19


class IndeterminateVerdict(Exception):
    """Raised nowhere (see :class:`Indeterminate`); bench/ still names it."""


# the label tokens of the code bits above the flips, time | conjugation << 1
_HIGH_TOKENS = ("Id", "T2", "C", "T1")


@dataclass(frozen=True)
class SymmetryElement:
    """A group element as its code: flip mask | time bit << d | conjugation
    bit << (d + 1).  The group law is XOR, so the code of a product of labels
    (:meth:`parse`) is the XOR of their codes, and each parity character is
    one element (:meth:`keeps`)."""
    d: int
    code: int

    @functools.cached_property
    def flips(self) -> frozenset:
        return frozenset(k + 1 for k in range(self.d) if self.code >> k & 1)

    @functools.cached_property
    def time_flip(self) -> bool:
        return bool(self.code >> self.d & 1)

    @functools.cached_property
    def conjugate(self) -> bool:
        return bool(self.code >> (self.d + 1) & 1)

    @property
    def label(self) -> str:
        parts = [f"P{k}" for k in sorted(self.flips)]
        if self.code >> self.d:
            parts.append(_HIGH_TOKENS[self.code >> self.d])
        return "*".join(parts) if parts else "Id"

    @staticmethod
    @functools.cache
    def parse(text: str, d: int) -> "SymmetryElement":
        """Parse labels like ``P3*C`` or ``P1*C*T1`` (order-insensitive)."""
        code = 0
        text = text.strip()
        if text not in ("", "Id"):
            for tok in text.split("*"):
                tok = tok.strip()
                if tok.startswith("P") and tok[1:].isdigit():
                    k = int(tok[1:])
                    if not 1 <= k <= d:
                        raise ValueError(f"axis {tok} out of range for d={d}")
                    code ^= 1 << (k - 1)
                elif tok in _HIGH_TOKENS[1:]:
                    code ^= _HIGH_TOKENS.index(tok) << d
                else:
                    raise ValueError(f"bad symmetry token {tok!r}")
        return SymmetryElement(d, code)

    def keeps(self, breaks: "SymmetryElement") -> bool:
        """Whether this element keeps the parity that ``breaks`` names (an
        equation's ``breaks`` label, parsed): the two codes share an even
        number of set bits."""
        return (self.code & breaks.code).bit_count() % 2 == 0

    @functools.cached_property
    def signs(self) -> tuple:
        """Htilde's momentum is signs * p: S p, or -S p when antilinear."""
        return tuple(-1.0 if (k in self.flips) != self.conjugate else 1.0
                     for k in range(1, self.d + 1))


def group_elements(d: int) -> list:
    """The full reflection group: 2^d flips x time x conjugation."""
    return list(_group(d))


@functools.cache
def _group(d: int) -> tuple:
    return tuple(sorted((SymmetryElement(d, c) for c in range(4 << d)),
                        key=lambda g: (len(g.flips), sorted(g.flips),
                                       g.time_flip, g.conjugate)))


def intertwine_condition(eq, g, p):
    """(Htilde(p), H(p)) such that invariance <=> M Htilde = H M for all p.

    ``p`` is a point or a batch (d arrays of shape (n,)); on a batch both are
    (n, dim, dim) stacks.  For a sequence of elements ``g``, Htilde gains a
    leading element axis (H does not).  H is evaluated once, on the sign
    images of p the elements need.
    """
    single = isinstance(g, SymmetryElement)
    elements = [g] if single else g
    images = sorted({e.signs for e in elements} | {(1.0,) * eq.d},
                    reverse=True)  # the identity, so H(p), first
    comps = np.asarray(p, dtype=float)      # (d,) or (d, n)
    q = np.array(images).T[..., None] * comps.reshape(eq.d, 1, -1)
    values = eq.hamiltonian(tuple(q.reshape(eq.d, -1)))
    values = values.reshape((len(images),) + comps.shape[1:] + (eq.dim,) * 2)
    htilde = values.take([images.index(e.signs) for e in elements], axis=0)
    last = htilde.T            # elements last: eps_t H or -eps_t conj(H)
    np.conjugate(last, out=last, where=[e.conjugate for e in elements])
    last *= [-1.0 if e.time_flip != e.conjugate else 1.0 for e in elements]
    return (htilde[0] if single else htilde), values[0]


@dataclass(frozen=True)
class Intertwiner:
    matrix: np.ndarray
    unitary_rep: np.ndarray
    holdout_residual: float    # relative, as :func:`_residuals` gives it
    nullity: int


@dataclass(frozen=True)
class NonInvariance:
    certificate: float         # smallest singular value of the stacked map
    sigma_max: float

    @property
    def relative(self) -> float:
        return self.certificate / self.sigma_max


@dataclass(frozen=True)
class Indeterminate:
    relative: float            # sigma_min/sigma_max of the stacked map
    reason: str


def solve_intertwiner(eq, g, n_fit: int = 12, n_holdout: int = 4,
                      seed: int = 42, conditions=None):
    """Nullspace solve: an Intertwiner, NonInvariance or Indeterminate.

    ``g`` is one element, or a sequence solved from one evaluation of H (a
    list of results).  ``conditions`` may pass their (Htilde, H) stacks from
    :func:`intertwine_condition` over the fit, holdout and further momenta;
    a non-finite entry in any row raises ValueError naming that sample.
    """
    if n_fit < 2 * eq.d + 4:
        raise ValueError(
            f"{eq.name}: n_fit = {n_fit} is below 2d + 4 = {2 * eq.d + 4}")
    if n_holdout < 4:
        raise ValueError("n_holdout must be >= 4")
    single = isinstance(g, SymmetryElement)
    elements = [g] if single else list(g)
    if not elements:
        return []
    htilde, h = conditions or intertwine_condition(
        eq, elements, as_batch(_fit_and_holdout(eq.d, n_fit, n_holdout, seed)))
    _require_finite(eq, htilde, h)
    out = [r for part in _chunks(len(elements), 16 * n_fit * eq.dim ** 4)
           for r in _solve_chunk(eq, htilde[part], h, n_fit, n_holdout, seed)]
    return out[0] if single else out


def _fit_and_holdout(d: int, n_fit: int, n_holdout: int, seed: int) -> list:
    """The fit momenta, then the holdout momenta, drawn from their own seed."""
    return (sample_momenta(d, n_fit, seed)
            + sample_momenta(d, n_holdout, seed + 7919))


def _require_finite(eq, htilde, h):
    """ValueError naming the first sample (row of h) at which H or an
    element's Htilde is not finite: NaN and inf reach no verdict."""
    if np.isfinite(htilde).all() and np.isfinite(h).all():
        return
    finite = (np.isfinite(htilde).reshape(-1, *h.shape).all(axis=(0, 2, 3))
              & np.isfinite(h).all(axis=(1, 2)))
    raise ValueError(f"{eq.name}: non-finite H at sample {finite.argmin()}")


def _chunks(n: int, row_bytes: int) -> list:
    """Slices of range(n), each of rows that fit STACK_BYTES (one at least)."""
    step = max(1, STACK_BYTES // max(1, row_bytes))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _sylvester(htilde, h):
    """Rows of M -> H M - M Htilde (row-major vec): kron(H, 1) - kron(1, Ht^T)
    per point, (E, n dim^2, dim^2) for Htilde (E, n, dim, dim), H (n, ...).
    Written into zeros, no entry a product: H on the j = l diagonal view of
    k[..., i, j, k, l], then Htilde^T subtracted on its i = k diagonal view."""
    k = np.zeros(htilde.shape[:2] + (h.shape[-1],) * 4, dtype=complex)
    np.einsum("...ijkj->...jik", k)[...] = h[:, None]
    np.einsum("...ijil->...ijl", k)[...] -= htilde.mT[:, :, None]
    return k.reshape(len(k), -1, h.shape[-1] ** 2)


def _residuals(k, ms, h_norms):
    """Worst relative residual |H M - M Htilde| / (|H| |M|) over the points
    for each M of an (E, C, dim, dim) stack, read from element e's Sylvester
    map k[e] as one product k vec(M) per M: its value does not depend on the
    other Ms scored with it.  ``h_norms`` holds |H| per point; NaN propagates."""
    vec = ms.reshape(ms.shape[:2] + (-1, 1))
    r = (k[:, None] @ vec).reshape(ms.shape[:2] + (len(h_norms), -1))
    den = h_norms * np.linalg.norm(vec, axis=(-2, -1))[..., None]
    return np.max(np.linalg.norm(r, axis=-1) / den, axis=-1)


def _solve_chunk(eq, htilde, h, n_fit, n_holdout, seed):
    """One result per element (row of ``htilde``): one stacked nullspace, then
    per nullity one holdout map, score, normalisation and polar stack."""
    fit, hold = slice(n_fit), slice(n_fit, n_fit + n_holdout)
    s, vh, nullity = svd_nullspace(_sylvester(htilde[:, fit], h[fit]),
                                   TOL_NULLSPACE)
    nullities, (smax, smin) = nullity.tolist(), s[:, [0, -1]].T.tolist()
    out = [None if k else NonInvariance(lo, hi) if lo > CERTIFICATE_TOL * hi
           else Indeterminate(lo / hi, f"sigma_min/sigma_max = {lo / hi:.3e} "
                              "falls between thresholds")
           for k, lo, hi in zip(nullities, smin, smax)]
    for k in set(nullities) - {0}:
        # the basis and, if k > 1, 32 random members (invertible almost
        # surely if any member is); the first good one is kept
        idx = np.flatnonzero(nullity == k)
        cands = vh[idx, -k:].conj()
        if k > 1:
            w = np.random.default_rng(seed + 1).normal(size=(32, 2, k))
            cands = np.concatenate([cands, (w[:, 0] + 1j * w[:, 1]) @ cands],
                                   axis=1)
        cands = cands.reshape(len(idx), -1, eq.dim, eq.dim)
        k_hold = _sylvester(htilde[idx, hold], h[hold])
        h_norms = np.linalg.norm(h[hold], axis=(-2, -1))
        for width in (k + 1, cands.shape[1]):   # the rest if needed
            block = cands[:, :width]
            hres = _residuals(k_hold, block, h_norms)
            good = (cond2(block) <= 1e6) & (hres <= HOLDOUT_TOL)
            if good.any(axis=1).all():
                break
        found = good.any(axis=1)
        for i in idx[~found].tolist():
            out[i] = Indeterminate(smin[i] / smax[i], "nullspace found but no "
                                   "invertible member passed the holdout test")
        at = np.flatnonzero(found), good.argmax(axis=1)[found]
        ms = cands[at]
        flat = ms.reshape(-1, eq.dim ** 2)   # summed as np.linalg.norm sums
        ms /= np.sqrt(np.vecdot(flat.real, flat.real)
                      + np.vecdot(flat.imag, flat.imag))[:, None, None]
        ms *= np.sqrt(eq.dim)
        for i, m, u, hr in zip(idx[found].tolist(), ms, polar_unitary(ms),
                               hres[at].tolist()):
            out[i] = Intertwiner(m, u, hr, k)
    return out


# -- classification ----------------------------------------------------------

@dataclass(frozen=True)
class ElementVerdict:
    element: SymmetryElement
    invariant: Optional[bool]             # None: undecided, see ``reason``
    residual: float                       # holdout residual or sigma_min/sigma_max
    intertwiner: Optional[Intertwiner]
    reason: Optional[str] = None


@dataclass(frozen=True)
class ClassificationReport:
    equation: str
    verdicts: tuple
    agreement: bool
    claims_checked: int
    coherence_ok: bool

    def verdict_for(self, label: str) -> ElementVerdict:
        want = SymmetryElement.parse(label, self.verdicts[0].element.d)
        for v in self.verdicts:
            if v.element == want:
                return v
        raise KeyError(label)


def classify_equation(eq, seed: int = 42, n_fit: int = 12,
                      n_holdout: int = 4) -> ClassificationReport:
    """Solve every group element, check each decided verdict against the one
    that ``eq.breaks`` gives it (agreement) and check coherence."""
    elements = group_elements(eq.d)
    htilde, h = intertwine_condition(eq, elements, as_batch(
        _fit_and_holdout(eq.d, n_fit, n_holdout, seed)
        + sample_momenta(eq.d, 4, seed + 31)))
    outs = solve_intertwiner(eq, elements, n_fit=n_fit, n_holdout=n_holdout,
                             seed=seed, conditions=(htilde, h))
    verdicts = [ElementVerdict(g, True, out.holdout_residual, out)
                if isinstance(out, Intertwiner)
                else ElementVerdict(g, False, out.relative, None)
                if isinstance(out, NonInvariance)
                else ElementVerdict(g, None, out.relative, None, out.reason)
                for g, out in zip(elements, outs)]
    breaks = SymmetryElement.parse(eq.breaks, eq.d)
    agreement = all(v.invariant in (None, g.keeps(breaks))
                    for g, v in zip(elements, verdicts))
    check = slice(n_fit + n_holdout, None)
    coherence_ok = bool(_coherence(verdicts, htilde[:, check], h[check]) <= 1e-6)

    return ClassificationReport(eq.name, tuple(verdicts), agreement,
                                len(verdicts), coherence_ok)


def _coherence(verdicts, check_t, check_h) -> float:
    """Worst |H C - C Htilde_e| / (|H| |C|) at the check points over the
    products C = M_b conj^{c_b}(M_j) of invariant pairs, e = g_b g_j (inf if
    e is not invariant or none is, NaN if a residual is).  The invariant
    elements then form an XOR group: the products are one GEMM per b, and
    each target's residuals are read from its Sylvester map
    (:func:`_residuals`), chunked within STACK_BYTES."""
    codes = np.array([v.element.code for v in verdicts])
    inv = np.flatnonzero([v.invariant for v in verdicts])
    at = np.full(len(codes), -1)     # code (whole group) -> position in inv
    at[codes[inv]] = np.arange(len(inv))
    second = at[codes[inv, None] ^ codes[inv]]   # [e, b]: j, g_b g_j = g_e
    if not len(inv) or (second < 0).any():
        return np.inf
    n, dim = len(inv), check_h.shape[-1]
    mats = np.array([verdicts[i].intertwiner.matrix for i in inv])
    conj = np.array([verdicts[i].element.conjugate for i in inv], dtype=int)
    right = np.stack([mats, np.conj(mats)]).transpose(0, 2, 1, 3)
    prods = (mats @ right.reshape(2, dim, -1)[conj]).reshape(n, dim, n, dim)
    h_norms, out = np.linalg.norm(check_h, axis=(-2, -1)), []
    for part in _chunks(n, 16 * dim ** 2 * (len(check_h) * (dim ** 2 + n) + n)):
        c = prods[np.arange(n), :, second[part]]    # (targets, b, dim, dim)
        out.append(_residuals(_sylvester(check_t[inv[part]], check_h), c,
                              h_norms))
    return mat_max(*out)


# -- random-search oracle -----------------------------------------------------

def random_search_oracle(eq, g: SymmetryElement, points,
                         n_candidates: int = 100_000, seed: int = 42,
                         pool: Optional[np.ndarray] = None):
    """Independent invariance probe: random candidates plus power-iteration polish.

    Draws ``n_candidates`` random matrices (or takes the rows v of ``pool``)
    and scores each by its relative condition residual
    sqrt(v^H G v / (|v|^2 |H|^2)), G the Gram matrix of the stacked map, in
    one real matrix product over the pool.  The ``N_POLISH`` best are driven
    towards the minimum of that quadratic residual by ``POLISH_STEPS`` steps
    of normalised power iteration with I - G/|G|_2, taken as one matrix
    power by repeated squaring; |G|_2 comes from squarings of G as well.
    No SVD or eigensolver is involved, so the verdict is an independent
    check on the nullspace route.  Returns (min relative residual,
    invariant?) with the 1e-3 decision threshold.  A non-finite H or
    residual raises ValueError: NaN never reads as non-invariance.
    """
    ht, h = intertwine_condition(eq, g, as_batch(points))
    _require_finite(eq, ht, h)
    eye = np.eye(eq.dim)[None]
    k = np.kron(h, eye) - np.kron(eye, np.swapaxes(ht, 1, 2))
    k = k.reshape(-1, k.shape[-1])                # every point's rows
    gram = dagger(k) @ k
    if not gram.any():                            # every M intertwines
        return 0.0, True
    n2 = len(gram)
    scale2 = np.vdot(h, h).real

    if pool is None:
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(n_candidates, n2)) \
            + 1j * rng.normal(size=(n_candidates, n2))
    # v^H G v = u^T R u on the interleaved (re, im) view u of v
    pool = np.ascontiguousarray(pool, dtype=complex)
    u = pool.view(float)
    r = np.kron(gram.real, np.eye(2)) + np.kron(gram.imag, [[0.0, -1.0],
                                                            [1.0, 0.0]])
    quad = np.einsum("ni,ni->n", u @ r, u) / np.einsum("ni,ni->n", u, u)
    rel = np.sqrt(np.maximum(quad, 0.0) / scale2)

    top = pool[np.argpartition(rel, min(N_POLISH, len(rel)) - 1)[:N_POLISH]]
    w = (top / np.linalg.norm(top, axis=1, keepdims=True)).T  # (n2, N_POLISH)
    shifted = np.eye(n2) - gram / _spectral_norm(gram)
    if shifted.any():                # else every start vector is a fixed point
        w = _normalised_power(shifted, POLISH_STEPS, w)
    quad_w = np.real(np.einsum("in,in->n", w.conj(), gram @ w))
    rel_w = np.sqrt(np.maximum(quad_w, 0.0) / scale2)

    best = float(np.minimum(rel.min(), rel_w.min()))
    if not np.isfinite(best):
        raise ValueError(f"{eq.name}/{g.label}: non-finite oracle residual")
    return best, best < 1e-3


def _spectral_norm(gram) -> float:
    """|G|_2 of a Hermitian positive semidefinite G as |G A|_F, A = G^(2^16)
    from 16 squarings of G, each rescaled to unit Frobenius norm: A tends to
    the normalised projector on the top eigenspace, whatever its multiplicity."""
    a = gram / np.linalg.norm(gram)
    for _ in range(16):
        a = a @ a
        a /= np.linalg.norm(a)
    return float(np.linalg.norm(gram @ a))


def _normalised_power(m, k: int, w):
    """Columns of m^k w, each normalised, by binary powering of m: the same
    vectors as k steps of normalised power iteration, since each step only
    rescales every column by a positive factor.  Each squared matrix is
    rescaled to unit norm, so its powers neither underflow nor overflow."""
    m = m / np.linalg.norm(m)
    while k:
        if k & 1:
            w = m @ w
            w /= np.linalg.norm(w, axis=0)
        k >>= 1
        if k:
            m = m @ m
            m /= np.linalg.norm(m)
    return w


# -- projector / reflection interplay ----------------------------------------

def verify_projection_relations(seed: int = 42, n_holdout: int = 4) -> dict:
    """Solved four-component intertwiners swap or fix the block projectors.

    An element that keeps chi_4c fixes Q+ and Q- if it also keeps the parity
    that the blocks chi_+- break (their ``breaks``), and exchanges them if
    not: of the six checked, the reflections along 1 and 2 and both time
    reflections swap, the axis-3 reflection and conjugation fix.  Antilinear
    elements act on a projector through conj(Q), which here equals Q (the
    projectors are real).  An element not solved as invariant reads NaN.
    """
    labels = ("P1", "P2", "T1", "T2", "P3", "C")
    elements = [SymmetryElement.parse(label, 3) for label in labels]
    breaks = SymmetryElement.parse(eqs.catalog_equation("chi_plus").breaks, 3)
    outs = solve_intertwiner(eqs.catalog_equation("chi_4c"), elements,
                             n_holdout=n_holdout, seed=seed)
    q, res = (eqs.Q_PLUS, eqs.Q_MINUS), {}
    for label, g, out in zip(labels, elements, outs):
        m = out.matrix if isinstance(out, Intertwiner) else np.nan * q[0]
        qp, qm = np.conj(q) if g.conjugate else q
        to_p, to_m = q if g.keeps(breaks) else q[::-1]
        res[label] = mat_max(m @ qp - to_p @ m, m @ qm - to_m @ m)
    return res
