"""Dense complex matrix kernel: products, adjoints, exponentials, nullspaces, polar forms.

Everything downstream works on small (2x2 .. 8x8) dense complex matrices, so
the kernel simply wraps numpy LAPACK routines behind the contracts the rest
of the package relies on.
"""

import math

import numpy as np

from .dual import Dual

# Relative singular-value cutoff for nullspaces: double precision with short
# flop chains on norm-O(10) matrices.
TOL_NULLSPACE = 1e-8


def dagger(m):
    """Conjugate transpose of a matrix or stack, through every Dual layer."""
    if isinstance(m, Dual):
        return Dual(dagger(m.val), dagger(m.eps))
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


def mat_max(*arrays) -> float:
    """Max |entry| over every array given (0.0 for none or for empty ones),
    NaN as soon as any entry is NaN: the one residual reduction, as the
    builtin ``max`` keeps its running value when compared with NaN."""
    r = [float(np.abs(m).max(initial=0.0)) for m in arrays]
    return math.nan if any(map(math.isnan, r)) else max(r, default=0.0)


def expm(m) -> np.ndarray:
    """exp(m) of an anti-Hermitian matrix or stack: V diag(exp(i w)) V^dagger
    from one eigh of the Hermitian -i m = V diag(w) V^dagger.

    Raises ValueError on a non-finite input, and unless
    max|m + m^dagger| <= 1e-12 max|m| (every catalog exponent is exactly
    anti-Hermitian).
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite matrix")
    defect, bound = mat_max(m + dagger(m)), 1e-12 * mat_max(m)
    if not (defect <= bound):
        raise ValueError(
            f"not anti-Hermitian: max|m + m^dagger| = {defect:.3g}")
    w, v = np.linalg.eigh(-1j * m)
    return (v * np.exp(1j * w)[..., None, :]) @ dagger(v)


def svd_nullspace(m, tol: float = TOL_NULLSPACE):
    """Right singular subspace with sigma < tol*sigma_max, of one matrix
    (rows, cols) or of each member of a stack (..., rows, cols).

    Returns arrays (singular values, vh, nullity), nullity 0-d for one
    matrix.  They come from the SVD of the R factor of m = QR (the R-SVD:
    the same s and vh, and no left factor of a tall m is formed), one path
    for tall, square, wide and stacked m.  The basis is the conjugate of the
    last nullity rows of vh; a zero matrix has nullity cols and the identity
    for vh (the full standard basis).  A non-finite entry raises
    ``np.linalg.LinAlgError``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    r = np.linalg.qr(np.asarray(np.atleast_2d(m), dtype=complex), mode="r")
    # r is square for a tall m; a wide one needs all the rows of vh
    _, s, vh = np.linalg.svd(r, full_matrices=r.shape[-2] < r.shape[-1])
    n = vh.shape[-1]
    smax = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    nullity, zero = n - (s >= tol * smax[..., None]).sum(-1), smax == 0.0
    if zero.any():
        vh[zero], nullity = np.eye(n), np.where(zero, n, nullity)
    return s, vh, nullity


def polar_unitary(m) -> np.ndarray:
    """Unitary U of m = U.H (H > 0), per member of a stack: W Vh of one SVD."""
    u, s, vh = np.linalg.svd(np.asarray(m, dtype=complex))
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
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    smin = s[..., -1]
    c = np.divide(s[..., 0], smin, out=np.full(smin.shape, np.inf),
                  where=smin != 0.0)
    return float(c) if c.ndim == 0 else c

