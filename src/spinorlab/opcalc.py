"""Momentum-space operator calculus.

Matrix-valued fields of the momentum with exact derivatives, first-order
differential operators A(p) + sum_k B_k(p) (i d/dp_k) + x0*C(p), their
commutators, and conjugation by unitary fields.

A field is a leaf, a finite sum of scalar coefficient functions times
constant matrices, or a node that combines operand fields by +, @, a scalar
factor, the adjoint or d/dp_k.  A node evaluates each operand once; products
are never multiplied out into terms.  A momentum argument is a tuple of d
components, each a float (one point: fields evaluate to (dim, dim) matrices)
or an (n,) array (a batch, see :func:`as_batch`: (n, dim, dim) stacks),
through the same code.  A derivative evaluates the same expression on
components seeded as :class:`spinorlab.dual.Dual` (nested seeds give second
derivatives), so the pass/fail paths never touch finite differences.  Seeded
along every axis at once, one evaluation gives all d partials as a
(d, ..., dim, dim) stack.

:meth:`DiffOp1.jet` evaluates an operator's parts once plainly, for their
values, and once seeded along every axis, for their exact first derivatives.
:func:`diffop_commutator` takes two jets, or two sequences of jets, and gives
the commutator of every pair: each product term of the normal-ordering
formula is one block matmul over the member stacks, and two single jets are
the 1 x 1 case of the same code.  A term with a B or x0 factor runs only on
the members whose part is not exactly zero: in a generator set the
translations skip every B term, and every member but the boosts the x0 ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import dual
from .linalg import NotUnitary, dagger, mat_max, unitarity_defect

Point = Sequence[float]


def sample_momenta(d: int, n: int, seed: int = 42) -> list:
    """Deterministic seeded momenta with components in +-[0.1, 10].

    Component magnitudes never drop below 0.1, which keeps |p3| and
    p1^2+p2^2 away from the zeros where catalog fields are singular.  For
    d >= 3 and n >= 4 the sign of the third component alternates so both p3
    branches are always exercised.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u = np.random.default_rng(seed).random((n, 2, d))
    signs = np.where(u[:, 0] < 0.5, 1.0, -1.0)
    comps = signs * (0.1 + (10.0 - 0.1) * u[:, 1])
    if d >= 3 and n >= 4:
        comps[:, 2] = np.abs(comps[:, 2]) * np.where(np.arange(n) % 2, -1.0, 1.0)
    return [tuple(row) for row in comps.tolist()]


def as_batch(points) -> tuple:
    """A list of points as one momentum argument: d arrays of shape (n,)."""
    return tuple(np.array(c) for c in zip(*points))


def _lift(c):
    """A scalar, (n,) or Dual coefficient, shaped to scale a matrix stack."""
    if isinstance(c, dual.Dual):
        return dual.Dual(_lift(c.val), _lift(c.eps))
    if isinstance(c, np.ndarray):
        return c[..., None, None]
    return c


def _zeros(p, dim: int, lead: tuple = ()) -> np.ndarray:
    shape = getattr(dual.value(p[0]), "shape", ())
    return np.zeros(lead + shape + (dim, dim), dtype=complex)


class OperatorField:
    """A leaf  sum_i c_i(p) * M_i  (``terms``), or a node built by ``+``,
    ``@``, :meth:`scale`, :meth:`adjoint` or :meth:`partial` (no terms)."""

    __slots__ = ("dim", "d", "terms", "_node")

    def __init__(self, dim: int, d: int, terms, _node=None):
        self.dim = dim
        self.d = d
        self.terms = tuple((fn, np.asarray(mat, dtype=complex))
                           for fn, mat in terms)
        self._node = _node         # a node's p -> value from its operands

    # -- constructors -----------------------------------------------------
    @classmethod
    def constant(cls, mat, d: int) -> "OperatorField":
        return cls(len(mat), d, [(lambda p: 1.0, mat)])

    @classmethod
    def zero(cls, dim: int, d: int) -> "OperatorField":
        return cls(dim, d, [])

    @classmethod
    def scalar(cls, fn: Callable, dim: int, d: int) -> "OperatorField":
        """fn(p) times the identity."""
        return cls(dim, d, [(fn, np.eye(dim, dtype=complex))])

    @classmethod
    def momentum(cls, k: int, dim: int, d: int) -> "OperatorField":
        """p_k times the identity (k is 0-based)."""
        return cls.scalar(lambda p, _k=k: p[_k], dim, d)

    # -- evaluation --------------------------------------------------------
    def _eval(self, p: Point) -> np.ndarray:
        """The (dim, dim) value at a point, the (n, dim, dim) stack on a batch;
        on seeded p, a Dual of such values (nested as the seeds are)."""
        if self._node is not None:
            return self._node(p)
        out = _zeros(p, self.dim)
        for fn, mat in self.terms:
            c = fn(p)
            if isinstance(c, np.ndarray):
                out = out + c[..., None, None] * mat
            elif isinstance(c, dual.Dual) or c != 0:
                out = out + _lift(c) * mat
        return out

    __call__ = _eval   # the entry bench/tracing.py wraps; nodes call _eval

    def deriv(self, p: Point, k: Optional[int] = None) -> np.ndarray:
        """Exact partial derivative d/dp_k at p (a point or a batch).

        With ``k`` None, all d partials as one (d, ..., dim, dim) stack, from
        a single evaluation on p seeded along every axis at once.
        """
        if k is not None:
            return self.partial(k)._eval(p)
        return (_zeros(p, self.dim, (self.d,))
                + dual.eps(self._eval(dual.seed(p))))

    def partial(self, k: int) -> "OperatorField":
        """d/dp_k as a field: the eps part of its value on p seeded along k."""
        return self._combine(lambda p: _zeros(p, self.dim)
                             + dual.eps(self._eval(dual.seed(p, k))))

    # -- algebra -----------------------------------------------------------
    def _combine(self, node) -> "OperatorField":
        return OperatorField(self.dim, self.d, (), node)

    def _is_zero(self) -> bool:
        return self._node is None and not self.terms

    def __add__(self, other: "OperatorField") -> "OperatorField":
        self._check(other)
        if self._is_zero() or other._is_zero():
            return other if self._is_zero() else self
        return self._combine(lambda p: self._eval(p) + other._eval(p))

    def __neg__(self) -> "OperatorField":
        return self.scale(-1.0)

    def __matmul__(self, other: "OperatorField") -> "OperatorField":
        self._check(other)
        if self._is_zero() or other._is_zero():
            return OperatorField.zero(self.dim, self.d)
        return self._combine(lambda p: self._eval(p) @ other._eval(p))

    def scale(self, c) -> "OperatorField":
        """Multiply by a constant or by a scalar function of p (on the left)."""
        if self._is_zero():
            return self
        return self._combine(
            lambda p: _lift(c(p) if callable(c) else c) * self._eval(p))

    def adjoint(self) -> "OperatorField":
        return self._combine(lambda p: dagger(self._eval(p)))

    def _check(self, other):
        if self.dim != other.dim or self.d != other.d:
            raise ValueError("field dimension mismatch")


@dataclass(frozen=True)
class DiffOp1:
    """First-order operator A(p) + sum_k B_k(p) (i d/dp_k) + x0 * C(p).

    x0 is a commuting formal scalar (the explicit time parameter); relations
    involving it are verified at fixed numerical values by folding C into A.
    """

    a: OperatorField
    b: tuple
    x0: Optional[OperatorField] = None

    @property
    def dim(self) -> int:
        return self.a.dim

    @property
    def d(self) -> int:
        return self.a.d

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_field(f: OperatorField) -> "DiffOp1":
        return DiffOp1(f, tuple(OperatorField.zero(f.dim, f.d)
                                for _ in range(f.d)))

    @staticmethod
    def position_component(k: int, dim: int, d: int) -> "DiffOp1":
        """x_k = i d/dp_k (k is 0-based)."""
        ident = np.eye(dim, dtype=complex)
        b = tuple(OperatorField.constant(ident, d) if j == k
                  else OperatorField.zero(dim, d) for j in range(d))
        return DiffOp1(OperatorField.zero(dim, d), b)

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "DiffOp1") -> "DiffOp1":
        if self.x0 is None or other.x0 is None:
            x0 = self.x0 if other.x0 is None else other.x0
        else:
            x0 = self.x0 + other.x0
        return DiffOp1(self.a + other.a,
                       tuple(x + y for x, y in zip(self.b, other.b)), x0)

    def scale(self, c) -> "DiffOp1":
        """Multiply by a constant or by a scalar function of p (on the left;
        a scalar function commutes past the derivatives)."""
        return DiffOp1(self.a.scale(c), tuple(f.scale(c) for f in self.b),
                       self.x0.scale(c) if self.x0 is not None else None)

    def at(self, p: Point, x0_values=(0.0,)) -> list:
        """One (A_eff, (B_k,)) per x0 value at p (matrices, or stacks on a
        batch): A, B and C are evaluated once and C folded into A as
        A + x0 C (A itself at x0 = 0)."""
        a, b = self.a(p), tuple(f(p) for f in self.b)
        c = self.x0(p) if self.x0 is not None else None
        return [(a if c is None or x0v == 0.0 else a + x0v * c, b)
                for x0v in x0_values]

    def jet(self, p: Point) -> "Jet":
        """Every part and its exact first derivatives on p: per part one
        plain evaluation for the value and one all-axes seeded evaluation
        (:meth:`OperatorField.deriv` with no axis) for every partial.

        The values come from the plain evaluation, never from the seeded
        one: a coefficient that tests the components (``p[0] == c``) sees a
        Dual there, not the numbers.
        """
        a = self.a(p)
        if self.x0 is None:
            x0, dx0 = np.zeros_like(a), np.zeros((self.d,) + a.shape, complex)
        else:
            x0, dx0 = self.x0(p), self.x0.deriv(p)
        return Jet(a, np.stack([f(p) for f in self.b]), self.a.deriv(p),
                   np.stack([f.deriv(p) for f in self.b]), x0, dx0)


@dataclass(frozen=True)
class Jet:
    """A DiffOp1 on one momentum argument: its parts and their exact first
    derivatives, each a (dim, dim) matrix at a point or an (n, dim, dim)
    stack on a batch.

    b[k] = B_k, da[k] = dA/dp_k, db[k][l] = dB_k/dp_l, dx0[k] = dC/dp_k;
    x0 = C is zero when the operator has no x0 part.
    """

    a: np.ndarray
    b: np.ndarray
    da: np.ndarray
    db: np.ndarray
    x0: np.ndarray
    dx0: np.ndarray


@dataclass
class Commutator:
    """Normal-ordered commutators on the momentum argument of their jets.

    Carries the x0-linear and x0-quadratic parts separately plus the
    symmetrized second-derivative coefficient norm (the worst over every pair
    and the batch), so callers can fold at any fixed x0 and check that
    nothing leaks outside first order.  b[k] and x0_b[k] are the parts of
    i d/dp_k.  Each part has leading (G1, G2) member axes for sequences of
    jets, none for two single jets.
    """

    a: np.ndarray
    b: np.ndarray
    x0_a: np.ndarray
    x0_b: np.ndarray
    x0_sq: np.ndarray
    second_order: float

    def fold(self, x0_value: float):
        return (self.a + x0_value * self.x0_a + x0_value ** 2 * self.x0_sq,
                self.b + x0_value * self.x0_b)


def _dot(x, y, nb: int):
    """sum_k x[I, k] @ y[J, k] for every leading index I of x and J of y, as
    one block matmul (..., |I| dim, K dim) @ (..., K dim, |J| dim); the last
    nb + 2 axes are the batch and the matrix."""
    mx, my = x.shape[:x.ndim - nb - 3], y.shape[:y.ndim - nb - 3]
    k, batch, dim = x.shape[len(mx)], x.shape[x.ndim - nb - 2:-2], x.shape[-1]
    gx, gy = math.prod(mx), math.prod(my)
    xm = np.moveaxis(x.reshape(gx, k, *batch, dim, dim), (0, 1), (nb, nb + 2))
    ym = np.moveaxis(y.reshape(gy, k, *batch, dim, dim), (1, 0), (nb, nb + 2))
    prod = (xm.reshape(*batch, gx * dim, k * dim)
            @ ym.reshape(*batch, k * dim, gy * dim))
    return np.moveaxis(prod.reshape(*batch, gx, dim, gy, dim),
                       (nb, nb + 2), (0, 1)).reshape(*mx, *my, *batch, dim, dim)


def diffop_commutator(j1, j2) -> Commutator:
    """[g1, g2] for every g1 of j1 and g2 of j2, normal ordered with
    derivatives on the right; j1 and j2 are single jets or sequences of jets
    on one momentum argument.

    Zeroth order:  [A1,A2] + sum_k (B1k (i dA2/dpk) - B2k (i dA1/dpk))
    First order k: [A1,B2k] - [A2,B1k] + sum_l (B1l (i dB2k/dpl) - B2l (i dB1k/dpl))
    Each product term is one block matmul over every pair (:func:`_dot`).
    x0 parts are carried linearly; the antisymmetrized second-order
    coefficient is reported as a residual (zero, up to rounding, for honest
    first-order algebras).

    A term with a B or x0 factor is computed only on the live members: those
    whose B (or x0) part or its derivative has an entry that is not exactly
    zero.  A NaN entry counts as live, so it reaches the result.  Each such
    term is scattered into a zeroed (G1, G2, ...) result; on finite jets
    every part equals the all-members products entry for entry.  The
    second-order residual is one commutator of the live B parts with the
    member and derivative axes flattened together.
    """
    stacks = [[j] if isinstance(j, Jet) else list(j) for j in (j1, j2)]
    shape = (stacks[0][0].a.shape, len(stacks[0][0].b))
    if any((j.a.shape, len(j.b)) != shape for s in stacks for j in s):
        raise ValueError("operator dimension mismatch")
    d, nb = shape[1], len(shape[0]) - 2
    # every part of the jets on a leading member axis
    (A1, B1, dA1, dB1, C1, dC1), (A2, B2, dA2, dB2, C2, dC2) = (
        [np.stack(part) for part in zip(*((j.a, j.b, j.da, j.db, j.x0, j.dx0)
                                          for j in s))] for s in stacks)
    dot = lambda x, y: _dot(x, y, nb)
    sw = lambda z: np.swapaxes(z, 0, 1)      # (G2, G1, ...) -> (G1, G2, ...)
    live = lambda x, dx: np.flatnonzero(
        x.reshape(len(x), -1).any(1) | dx.reshape(len(dx), -1).any(1))
    b1, b2, c1, c2 = live(B1, dB1), live(B2, dB2), live(C1, dC1), live(C2, dC2)
    zeros = lambda *axes: np.zeros((len(A1), len(A2)) + axes + shape[0],
                                   complex)

    def comm(x, y):
        """[x_i, y_J] on axes (i, J), J the leading axes of y."""
        xy = dot(np.expand_dims(x, -nb - 3), np.expand_dims(y, -nb - 3))
        xy -= np.moveaxis(dot(np.expand_dims(y, -nb - 3),
                              np.expand_dims(x, -nb - 3)), -nb - 3, 0)
        return xy

    a, t = comm(A1, A2), zeros()
    t[b1] = dot(B1[b1], dA2)
    t[:, b2] -= sw(dot(B2[b2], dA1))
    a += 1j * t

    b = zeros(d)
    b[:, b2] = comm(A1, B2[b2])
    b[b1] -= sw(comm(A2, B1[b1]))
    b[np.ix_(b1, b2)] += 1j * (dot(B1[b1], dB2[b2])
                               - sw(dot(B2[b2], dB1[b1])))

    x0_a, t = zeros(), zeros()
    x0_a[:, c2] = comm(A1, C2[c2])
    x0_a[c1] += comm(C1[c1], A2)
    t[np.ix_(b1, c2)] = dot(B1[b1], dC2[c2])
    t[np.ix_(c1, b2)] -= sw(dot(B2[b2], dC1[c1]))
    x0_a += 1j * t

    x0_b, x0_sq = zeros(d), zeros()
    x0_b[np.ix_(c1, b2)] = comm(C1[c1], B2[b2])
    x0_b[np.ix_(b1, c2)] -= sw(comm(C2[c2], B1[b1]))
    x0_sq[np.ix_(c1, c2)] = comm(C1[c1], C2[c2])

    # [B1k_i, B2l_j] on axes (i, k, j, l), symmetrized in (k, l)
    bb = comm(B1[b1].reshape((-1,) + shape[0]),
              B2[b2].reshape((-1,) + shape[0])).reshape(
                  (len(b1), d, len(b2), d) + shape[0])
    second = 0.5 * mat_max(bb + np.swapaxes(bb, 1, 3))

    pick = tuple(0 if isinstance(j, Jet) else slice(None) for j in (j1, j2))
    return Commutator(a[pick], np.moveaxis(b[pick], -nb - 3, 0), x0_a[pick],
                      np.moveaxis(x0_b[pick], -nb - 3, 0), x0_sq[pick],
                      second)


def conjugate_by_unitary(u: OperatorField, g: DiffOp1,
                         probe: Sequence[Point] = ()) -> DiffOp1:
    """u^-1 g u for a unitary field u (u^-1 = u^dagger).

    Zeroth part u^-1 A u + sum_k u^-1 B_k (i du/dp_k); derivative
    coefficients u^-1 B_k u; the x0 coefficient conjugates like A.
    """
    if probe and not (unitarity_defect(u(as_batch(probe))) <= 1e-8):
        raise NotUnitary("conjugating field is not unitary at probe point")
    ud = u.adjoint()
    a = ud @ g.a @ u
    for k in range(g.d):
        a = a + ud @ g.b[k] @ u.partial(k).scale(1j)
    b = tuple(ud @ g.b[k] @ u for k in range(g.d))
    x0 = ud @ g.x0 @ u if g.x0 is not None else None
    return DiffOp1(a, b, x0)
