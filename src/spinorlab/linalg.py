"""Dense complex matrix kernel: products, adjoints, exponentials, nullspaces, polar forms.

Everything downstream works on small (2x2 .. 8x8) dense complex matrices, so
the kernel simply wraps numpy LAPACK routines behind the contracts the rest
of the package relies on.
"""

import math
from typing import Iterable, NamedTuple

import numpy as np

from .dual import Dual

# Relative singular-value cutoff for nullspaces: double precision with short
# flop chains on norm-O(10) matrices.
TOL_NULLSPACE = 1e-8


def as_cmatrix(m) -> np.ndarray:
    return np.asarray(m, dtype=complex)


def dagger(m):
    """Conjugate transpose of a matrix or stack, through every Dual layer."""
    if isinstance(m, Dual):
        return Dual(dagger(m.val), dagger(m.eps))
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


def mat_max(m) -> float:
    """Max absolute entry; the residual measure used throughout."""
    m = np.asarray(m)
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def worst(residuals: Iterable[float]) -> float:
    """Largest residual (0.0 for none); NaN as soon as any residual is NaN.

    The builtin ``max`` keeps its running value when compared with NaN, so a
    NaN residual would read as a pass; every residual reduction goes here.
    """
    out = 0.0
    for r in residuals:
        if math.isnan(r):
            return math.nan
        if r > out:
            out = r
    return float(out)


def expm(m) -> np.ndarray:
    """exp(m) of an anti-Hermitian matrix or stack: V diag(exp(i w)) V^dagger
    from one eigh of the Hermitian -i m = V diag(w) V^dagger.

    Raises ValueError on a non-finite input, and unless
    max|m + m^dagger| <= 1e-12 max|m| (every catalog exponent is exactly
    anti-Hermitian).
    """
    m = as_cmatrix(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite matrix")
    defect, bound = mat_max(m + dagger(m)), 1e-12 * mat_max(m)
    if not (defect <= bound):
        raise ValueError(
            f"not anti-Hermitian: max|m + m^dagger| = {defect:.3g}")
    w, v = np.linalg.eigh(-1j * m)
    return (v * np.exp(1j * w)[..., None, :]) @ dagger(v)


class NullspaceResult(NamedTuple):
    vectors: list          # orthonormal right-nullspace basis vectors
    rank_zero: bool        # input was (numerically) the zero matrix
    singular_values: np.ndarray    # descending, from the same SVD


def svd_nullspace(m, tol: float = TOL_NULLSPACE):
    """Orthonormal basis of the right singular subspace with sigma < tol*sigma_max.

    ``m`` may be rectangular (stacked constraints).  A zero matrix returns the
    full standard basis, flagged rank_zero.  A stack (..., rows, cols) takes
    one SVD and returns arrays (singular values, vh, nullity): member i's
    basis, as its own 2-D call gives it, is the conjugate of the last
    nullity[i] rows of vh[i] (the identity, nullity cols, for a zero member).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = as_cmatrix(np.atleast_2d(m))
    # a tall stack needs only the square vh; a wide one needs all its rows
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[-2] < m.shape[-1])
    n = vh.shape[-1]
    smax = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    nullity, zero = n - (s >= tol * smax[..., None]).sum(-1), smax == 0.0
    if zero.any():
        vh[zero], nullity = np.eye(n), np.where(zero, n, nullity)
    if m.ndim == 2:
        return NullspaceResult(list(vh[n - nullity:].conj()), bool(zero), s)
    return s, vh, nullity


def polar_unitary(m) -> np.ndarray:
    """Unitary U of m = U.H (H > 0), per member of a stack: W Vh of one SVD."""
    u, s, vh = np.linalg.svd(as_cmatrix(m))
    if (s[..., -1] <= 1e-10 * s[..., 0]).any():
        raise ValueError("no unitary representative")
    return u @ vh


class NotUnitary(ValueError):
    """A field that must be unitary is not (or is not finite) at a sample point."""


def unitarity_defect(u) -> float:
    """Worst |u u^dagger - 1| of a matrix or over a stack."""
    u = np.asarray(u)
    return mat_max(u @ dagger(u) - np.eye(u.shape[-1]))


def cond2(m):
    """2-norm condition number of a matrix, or one per matrix of a stack
    (inf for a singular matrix)."""
    s = np.linalg.svd(as_cmatrix(m), compute_uv=False)
    smin = s[..., -1]
    c = np.divide(s[..., 0], smin, out=np.full(smin.shape, np.inf),
                  where=smin != 0.0)
    return float(c) if c.ndim == 0 else c

