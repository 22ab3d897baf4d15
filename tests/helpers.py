"""Assertions shared by the test modules."""

import numpy as np

from spinorlab import opcalc
from spinorlab.linalg import mat_max
from spinorlab.opcalc import Commutator, _pack, _product
from spinorlab.position import position_from_unitary
from spinorlab.symmetry import SymmetryElement, group_elements

TOL_EQ = 1e-9           # entrywise equality of verified identities


def proportional(a, b, tol: float = TOL_EQ) -> bool:
    """True when a = c*b for some complex scalar c (projective equality)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    denom = np.vdot(b, b)
    if denom == 0:
        return mat_max(a) <= tol
    c = np.vdot(b, a) / denom
    return mat_max(a - c * b) <= tol * max(1.0, mat_max(a))


def kept(eq):
    """(label, keeps eq.breaks?) for every element, in group order: the
    verdict that an equation's breaking label gives each element."""
    breaks = SymmetryElement.parse(eq.breaks, eq.d)
    return [(g.label, g.keeps(breaks)) for g in group_elements(eq.d)]


def nan_at(point):
    """Coefficient that is NaN where p[0] == point[0] and 0 elsewhere, at a
    point or on a batch: adding it to a field poisons that one point."""
    return lambda p: np.where(p[0] == point[0], np.nan, 0.0)


def pair(g, i, j):
    """The position of the member pair (i, j), i < j, on the pair axis of the
    commutator of a g-member jet (``np.triu_indices(g, 1)`` order)."""
    return list(zip(*np.triu_indices(g, 1))).index((i, j))


def _dot(x, y, nb: int):
    """sum_k x[I, k] @ y[J, k] for every leading index I of x and J of y, as
    one block GEMM (..., |I| dim, K dim) @ (..., K dim, |J| dim), on axes
    (*I, *J, ...); the last nb + 2 axes are the batch and the matrix.  It
    packs both factors for this one product; :func:`diffop_commutator`
    packs each part once for all of its terms."""
    mx, my = x.shape[:x.ndim - nb - 3], y.shape[:y.ndim - nb - 3]
    return _product(_pack(x, nb), _pack(y, nb, True), mx, my, x.shape[-1])


def parts(jet):
    """The six parts of a stacked jet, in field order."""
    return jet.a, jet.b, jet.da, jet.db, jet.x0, jet.dx0


def dense_commutator(jet):
    """The earlier commutator of every pair of members of a stacked jet, on
    (G, G) member axes, every product over all members and the second-order
    residual per (k, l) pair, kept as the reference."""
    d, nb = jet.b.shape[1], jet.a.ndim - 3
    A, B, dA, dB, C, dC = parts(jet)
    dot = lambda x, y: _dot(x, y, nb)
    sw = lambda z: np.swapaxes(z, 0, 1)

    def comm(x, y):
        xy = dot(np.expand_dims(x, -nb - 3), np.expand_dims(y, -nb - 3))
        xy -= np.moveaxis(dot(np.expand_dims(y, -nb - 3),
                              np.expand_dims(x, -nb - 3)), -nb - 3, 0)
        return xy

    a = comm(A, A) + 1j * (dot(B, dA) - sw(dot(B, dA)))
    b = comm(A, B) - sw(comm(A, B)) + 1j * (dot(B, dB) - sw(dot(B, dB)))
    x0_a = comm(A, C) + comm(C, A) + 1j * (dot(B, dC) - sw(dot(B, dC)))
    x0_b = comm(C, B) - sw(comm(C, B))
    second = 0.5 * mat_max(*(comm(B[:, k], B[:, l]) + comm(B[:, l], B[:, k])
                             for k in range(d) for l in range(k, d)))
    return Commutator(a, np.moveaxis(b, -nb - 3, 0), x0_a,
                      np.moveaxis(x0_b, -nb - 3, 0), comm(C, C), second)


def at_pairs(dense):
    """A (G, G) dense commutator gathered on the pairs i < j: the pair
    layout of :func:`diffop_commutator`."""
    i, j = np.triu_indices(len(dense.a), 1)
    return Commutator(dense.a[i, j], dense.b[:, i, j], dense.x0_a[i, j],
                      dense.x0_b[:, i, j], dense.x0_sq[i, j],
                      dense.second_order)


def product_residuals(ms, htilde, h):
    """The earlier matrix-product form of the relative residual, kept as the
    reference: worst |H M - M Htilde| / (|H| |M|) over the points for each M
    of a (..., dim, dim) stack; Htilde may be per M.  NaN propagates."""
    ms = ms[..., None, :, :]
    num = np.linalg.norm(h @ ms - ms @ htilde, axis=(-2, -1))
    den = np.linalg.norm(h, axis=(-2, -1)) * np.linalg.norm(ms, axis=(-2, -1))
    return np.max(num / den, axis=-1)


def component_commutator_residual(name: str, samples) -> float:
    """max |[X_j, X_k]| over the component pairs of a position operator and
    the samples, from one stacked jet of the built components (they commute;
    no check gates it).  Looked up on ``opcalc``, so patches there count."""
    built = position_from_unitary(name, probe=samples[:2])
    return mat_max(opcalc.diffop_commutator(
        opcalc.stacked_jet(built, opcalc.as_batch(samples))).a)
