"""Assertions shared by the test modules."""

import numpy as np

from spinorlab.linalg import as_cmatrix, mat_max

TOL_EQ = 1e-9           # entrywise equality of verified identities


def proportional(a, b, tol: float = TOL_EQ) -> bool:
    """True when a = c*b for some complex scalar c (projective equality)."""
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    denom = np.vdot(b, b)
    if denom == 0:
        return mat_max(a) <= tol
    c = np.vdot(b, a) / denom
    return mat_max(a - c * b) <= tol * max(1.0, mat_max(a))


def nan_at(point):
    """Coefficient that is NaN where p[0] == point[0] and 0 elsewhere, at a
    point or on a batch: adding it to a field poisons that one point."""
    return lambda p: np.where(p[0] == point[0], np.nan, 0.0)
