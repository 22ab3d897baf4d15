"""Momentum-space operator calculus.

Matrix-valued fields of the momentum with exact derivatives, first-order
differential operators A(p) + sum_k B_k(p) (i d/dp_k) + x0*C(p), their
commutators, and conjugation by unitary fields.

A field is a leaf, a finite sum of scalar coefficient functions times
constant matrices, or a node that combines operand fields by +, @, a scalar
factor, the adjoint or d/dp_k.  Products are never multiplied out into
terms.  A momentum argument is a tuple of d components, each a float (one
point: fields evaluate to (dim, dim) matrices) or an (n,) array (a batch, see
:func:`as_batch`: (n, dim, dim) stacks), through the same code.  A derivative
evaluates the same expression on components seeded as
:class:`spinorlab.dual.Dual` (nested seeds give second derivatives), so the
pass/fail paths never touch finite differences.  Seeded along every axis at
once, one evaluation gives all d partials as a (d, ..., dim, dim) stack.

Every evaluation memoises its values on its argument (:class:`_Argument`):
a field that several nodes read, such as a conjugating unitary inside
u^dagger, u and du/dp_k, is evaluated once per argument, and each seeded
argument is made once, so derivative evaluations share their subexpressions
too.  A scalar function wrapped in :func:`per_argument` (the energy, |p3|,
...) is shared by the coefficients the same way.  The memo lives as long as
the argument, which a top-level call or a stack build drops on return, and
its values are read-only.  :meth:`OperatorField.partial` and
:meth:`OperatorField.adjoint` return the same node on every call, so nodes
built at different times still share.

:func:`stacked_jet` evaluates a family of operators (a generator set, the
components of a position operator) on one shared argument into one
:class:`Jet` with a leading member axis: each part once plainly, for its
values, and once seeded along every axis, for its exact first derivatives.
:func:`diffop_commutator` takes one such jet and gives the commutator of
every pair of its members: each part is packed once into block operands, and
each product term of the normal-ordering formula is one bare block GEMM over
the members.  A term with a B or x0 factor runs only on the members whose
part is not exactly zero: in a generator set the translations skip every B
term, and every member but the boosts the x0 ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
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


def _zeros(p: "_Argument", dim: int, lead: tuple = ()) -> np.ndarray:
    return np.zeros(lead + p.batch + (dim, dim), dtype=complex)


class _Argument(tuple):
    """A momentum argument that memoises what is evaluated on it.

    ``values`` maps id(field) to (field, value) for every field evaluated on
    it, and ``seeds`` maps an axis (None: every axis) to the seeded argument,
    made once.  Each entry holds its key objects, so an id cannot be reused
    while the argument lives, and the memo dies with the argument.  ``batch``
    is () at a point and (n,) on a batch.
    """

    def __new__(cls, components):
        self = super().__new__(cls, components)
        self.values, self.seeds = {}, {}
        self.batch = getattr(dual.value(self[0]), "shape", ())
        return self

    @classmethod
    def of(cls, p) -> "_Argument":
        return p if isinstance(p, cls) else cls(p)

    def seeded(self, k: Optional[int] = None) -> "_Argument":
        """This argument seeded along axis k (every axis when k is None)."""
        out = self.seeds.get(k)
        if out is None:
            out = self.seeds[k] = _Argument(dual.seed(self, k))
        return out


def per_argument(fn: Callable) -> Callable:
    """A scalar function of the momentum, memoised on the argument as field
    values are: the coefficients that call it on one argument of a build
    share one evaluation.  On a plain tuple it simply calls fn."""
    @functools.wraps(fn)
    def shared(p):
        if not isinstance(p, _Argument):
            return fn(p)
        hit = p.values.get(id(fn))
        if hit is None:
            hit = p.values[id(fn)] = (fn, _read_only(fn(p)))
        return hit[1]
    return shared


def _read_only(x):
    """x, with every array in it (through the Dual layers) made read-only."""
    if isinstance(x, dual.Dual):
        _read_only(x.val)
        _read_only(x.eps)
    elif isinstance(x, np.ndarray):
        x.flags.writeable = False
    return x


class OperatorField:
    """A leaf  sum_i c_i(p) * M_i  (``terms``), or a node built by ``+``,
    ``@``, :meth:`scale`, :meth:`adjoint` or :meth:`partial` (no terms)."""

    __slots__ = ("dim", "d", "terms", "_node", "_derived")

    def __init__(self, dim: int, d: int, terms, _node=None):
        self.dim = dim
        self.d = d
        self.terms = tuple((fn, np.asarray(mat, dtype=complex))
                           for fn, mat in terms)
        self._node = _node         # a node's p -> value from its operands
        self._derived = {}         # axis k or "adjoint" -> that node

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
        on seeded p, a Dual of such values (nested as the seeds are).

        The value is memoised on the argument (:class:`_Argument`; a plain
        tuple gets a fresh one), so a field that several nodes read is
        computed once per argument.  It is read-only: a later read of the
        memo gets it unchanged.
        """
        p = _Argument.of(p)
        hit = p.values.get(id(self))
        if hit is not None:
            return hit[1]
        if self._node is not None:
            out = self._node(p)
        else:
            out = _zeros(p, self.dim)
            for fn, mat in self.terms:
                c = fn(p)
                if isinstance(c, np.ndarray):
                    out = out + c[..., None, None] * mat
                elif isinstance(c, dual.Dual) or c != 0:
                    out = out + _lift(c) * mat
        p.values[id(self)] = (self, _read_only(out))
        return out

    __call__ = _eval   # the entry bench/tracing.py wraps; nodes call _eval

    def deriv(self, p: Point) -> np.ndarray:
        """All d exact partial derivatives at p (a point or a batch), as one
        (d, ..., dim, dim) stack from a single evaluation on p seeded along
        every axis at once.  One partial d/dp_k is :meth:`partial`."""
        p = _Argument.of(p)
        return (_zeros(p, self.dim, (self.d,))
                + dual.eps(self._eval(p.seeded())))

    def partial(self, k: int) -> "OperatorField":
        """d/dp_k as a field: the eps part of its value on p seeded along k.
        The same node on every call."""
        if k not in self._derived:
            self._derived[k] = self._combine(
                lambda p: _zeros(p, self.dim)
                + dual.eps(self._eval(p.seeded(k))))
        return self._derived[k]

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
        """The conjugate transpose; the same node on every call."""
        if "adjoint" not in self._derived:
            self._derived["adjoint"] = self._combine(
                lambda p: dagger(self._eval(p)))
        return self._derived["adjoint"]

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


def stacked_jet(ops: Sequence[DiffOp1], p: Point) -> "Jet":
    """The jets of every operator of ops on p, stacked on a leading member
    axis, from one evaluation shared by them all: each (field, argument)
    pair is computed once (see :class:`_Argument`).

    Per part one plain evaluation for the value and one all-axes seeded
    evaluation (:meth:`OperatorField.deriv`) for every partial.
    The values come from the plain evaluation, never from the seeded one: a
    coefficient that tests the components (``p[0] == c``) sees a Dual there,
    not the numbers.
    """
    p = _Argument.of(p)
    a, b, x0 = stacked_values(ops, p)
    dx0 = np.zeros((len(ops), ops[0].d) + a.shape[1:], complex)
    for i, op in enumerate(ops):
        if op.x0 is not None:
            dx0[i] = op.x0.deriv(p)
    return Jet(a, b, np.stack([op.a.deriv(p) for op in ops]),
               np.stack([np.stack([f.deriv(p) for f in op.b]) for op in ops]),
               x0, dx0)


def stacked_values(ops: Sequence[DiffOp1], p: Point) -> tuple:
    """(A, B, C) of every operator of ops on p, stacked on a leading member
    axis, from one shared evaluation; C is zero where an operator has no x0
    part."""
    p = _Argument.of(p)
    a = np.stack([op.a(p) for op in ops])
    x0 = np.zeros_like(a)
    for i, op in enumerate(ops):
        if op.x0 is not None:
            x0[i] = op.x0(p)
    return a, np.stack([np.stack([f(p) for f in op.b]) for op in ops]), x0


@dataclass(frozen=True)
class Jet:
    """G DiffOp1s on one momentum argument (from :func:`stacked_jet`): their
    parts and exact first derivatives, each with a leading (G,) member axis
    over a (dim, dim) matrix at a point or an (n, dim, dim) stack on a batch.

    For member i: b[i, k] = B_k, da[i, k] = dA/dp_k, db[i, k, l] = dB_k/dp_l,
    dx0[i, k] = dC/dp_k; x0[i] = C is zero when the operator has no x0 part.
    """

    a: np.ndarray
    b: np.ndarray
    da: np.ndarray
    db: np.ndarray
    x0: np.ndarray
    dx0: np.ndarray

    def parts(self) -> tuple:
        return self.a, self.b, self.da, self.db, self.x0, self.dx0


@dataclass
class Commutator:
    """Normal-ordered commutators on the momentum argument of their jet.

    Carries the x0-linear and x0-quadratic parts separately plus the
    symmetrized second-derivative coefficient norm (the worst over every pair
    and the batch), so callers can fold at any fixed x0 and check that
    nothing leaks outside first order.  b[k] and x0_b[k] are the parts of
    i d/dp_k.  Each part has leading (G, G) member axes: [g_i, g_j] at
    [i, j] (after the derivative axis k for b and x0_b).
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


def _left(x, nb: int) -> np.ndarray:
    """x of shape (M..., K, *batch, dim, dim) as the left block operand
    (*batch, |M| dim, K dim); the last nb + 2 axes are the batch and the
    matrix."""
    m, k = x.shape[:x.ndim - nb - 3], x.shape[x.ndim - nb - 3]
    batch, dim = x.shape[x.ndim - nb - 2:-2], x.shape[-1]
    xm = np.moveaxis(x.reshape(math.prod(m), k, *batch, dim, dim), (0, 1),
                     (nb, nb + 2))
    return xm.reshape(*batch, math.prod(m) * dim, k * dim)


def _right(y, nb: int) -> np.ndarray:
    """y of shape (M..., K, *batch, dim, dim) as the right block operand
    (*batch, K dim, |M| dim)."""
    m, k = y.shape[:y.ndim - nb - 3], y.shape[y.ndim - nb - 3]
    batch, dim = y.shape[y.ndim - nb - 2:-2], y.shape[-1]
    ym = np.moveaxis(y.reshape(math.prod(m), k, *batch, dim, dim), (1, 0),
                     (nb, nb + 2))
    return ym.reshape(*batch, k * dim, math.prod(m) * dim)


def _product(xl, yr, mx: tuple, my: tuple, dim: int) -> np.ndarray:
    """The block GEMM xl @ yr of two packed operands, in block layout
    (*batch, *mx, dim, *my, dim): mx and my are the member shapes of the
    rows of xl and the columns of yr."""
    prod = xl @ yr
    return prod.reshape(*prod.shape[:-2], *mx, dim, *my, dim)


def _members_first(z, i: int, nb: int) -> np.ndarray:
    """A block-layout z, (*batch, *I, dim, *J, dim) with i axes in I, as a
    view on axes (*I, *J, *batch, dim, dim)."""
    j = z.ndim - nb - i - 2
    rows, cols = range(nb, nb + i), range(nb + i + 1, nb + i + 1 + j)
    return z.transpose(*rows, *cols, *range(nb), nb + i, nb + i + 1 + j)


def _flip(z, nj: int, nb: int) -> np.ndarray:
    """The block transpose of a block-layout z: (*batch, *J, dim, *I, dim)
    -> (*batch, *I, dim, *J, dim), J the first nj member axes."""
    ni = z.ndim - nb - nj - 2
    rows, cols = range(nb + nj + 1, nb + nj + 1 + ni), range(nb, nb + nj)
    return z.transpose(*range(nb), *rows, nb + nj, *cols, z.ndim - 1)


def _operands(s: Jet, nb: int) -> SimpleNamespace:
    """A stacked jet packed once for block GEMMs: its live B and x0 members
    (``b``, ``c``: those whose part or its derivative is not all zero), and
    each part as the left (``*l``) or right (``*r``) operand that the
    normal-ordering terms read.  ``b_rows`` and ``b_cols`` hold B with the
    member and derivative axes together, as one factor of a commutator."""
    live = lambda x, dx: np.flatnonzero(
        x.reshape(len(x), -1).any(1) | dx.reshape(len(dx), -1).any(1))
    b, c = live(s.b, s.db), live(s.x0, s.dx0)
    one = lambda x: np.expand_dims(x, -nb - 3)      # a summed axis of one
    bl, cl = s.b[b], one(s.x0[c])
    return SimpleNamespace(
        b=b, c=c, al=_left(one(s.a), nb), ar=_right(one(s.a), nb),
        bl=_left(bl, nb), b_rows=_left(one(bl), nb), b_cols=_right(one(bl), nb),
        dar=_right(s.da, nb), dbr=_right(s.db[b], nb), cl=_left(cl, nb),
        cr=_right(cl, nb), dcr=_right(s.dx0[c], nb))


def diffop_commutator(jet: Jet) -> Commutator:
    """[g_i, g_j] for every pair of members of one stacked jet, normal
    ordered with derivatives on the right.

    Zeroth order:  [Ai,Aj] + sum_k (Bik (i dAj/dpk) - Bjk (i dAi/dpk))
    First order k: [Ai,Bjk] - [Aj,Bik] + sum_l (Bil (i dBjk/dpl) - Bjl (i dBik/dpl))
    The jet is packed once into block operands (:func:`_operands`), and each
    product term is one bare block GEMM over every pair, left in block layout
    (*batch, I, dim, J, dim) (:func:`_product`) and written into the (G, G,
    ...) results through a view on its member axes.  The reversed product
    y_j x_i is the block transpose of the GEMM for x_i y_j, so the terms of
    [Aj,Bik], Bj dAi, Bj dBi, Bj dCi and [Cj,Bik] are those of [Ai,Bjk],
    Bi dAj, ...: each is computed once.  x0 parts are carried linearly; the
    antisymmetrized second-order coefficient is reported as a residual (zero,
    up to rounding, for honest first-order algebras).

    A term with a B or x0 factor is computed only on the live members: those
    whose B (or x0) part or its derivative has an entry that is not exactly
    zero.  A NaN entry counts as live, so it reaches the result.  Each such
    term is scattered into a zeroed (G, G, ...) result; on finite jets every
    part equals the all-members products entry for entry.  When no member is
    live for x0, the x0 parts are zero and no x0 term runs.  The second-order
    residual is one commutator of the live B parts with the member and
    derivative axes flattened together.
    """
    shape = jet.a.shape[1:]
    g, d, nb, dim = len(jet.a), jet.b.shape[1], len(shape) - 2, shape[-1]
    x = _operands(jet, nb)
    b, c = x.b, x.c
    # products and their sums are in block layout (*batch, I, dim, J, dim),
    # written into the (G, G, ...) results through their (I, J, ...) view
    mm = lambda l, r, mx, my: _product(l, r, mx, my, dim)
    view = lambda z: _members_first(z, 1, nb)
    bt = lambda z: np.swapaxes(z, nb, nb + 2)   # block transpose, (J, I)
    zeros = lambda *axes: np.zeros((g, g) + axes + shape, complex)

    def comm(xl, yr, yl, xr, mx, my):
        """[x_I, y_J] from the packed operands of two parts x and y."""
        xy = mm(xl, yr, mx, my)
        yx = xy if xl is yl and xr is yr else mm(yl, xr, my, mx)
        return xy - _flip(yx, len(my), nb)

    # each part in its own function, so that its temporaries are freed
    # before the next part runs
    def second_order():
        """[Bik, Bjl] on axes (i, k, j, l), symmetrized in (k, l)."""
        bb = comm(x.b_rows, x.b_cols, x.b_rows, x.b_cols, (len(b), d),
                  (len(b), d))
        return 0.5 * mat_max(bb + np.swapaxes(bb, nb + 1, nb + 4))

    def zeroth_order():
        a = np.ascontiguousarray(view(comm(x.al, x.ar, x.al, x.ar, (g,),
                                           (g,))))
        t, bda = zeros(), mm(x.bl, x.dar, (len(b),), (g,))
        t[b] = view(bda)
        t[:, b] -= view(bt(bda))
        a += 1j * t
        return a

    def first_order():
        out = zeros(d)
        ab = comm(x.al, x.b_cols, x.b_rows, x.ar, (g,), (len(b), d))
        out[:, b] = view(ab)
        out[b] -= view(bt(ab))
        bdb = mm(x.bl, x.dbr, (len(b),), (len(b), d))
        out[np.ix_(b, b)] += view(1j * (bdb - bt(bdb)))
        return out

    def x0_parts():
        """(x0_a, x0_b, x0_sq), zero with no term run when no member is live
        for x0."""
        x0_a, x0_b, x0_sq = zeros(), zeros(d), zeros()
        if not len(c):
            return x0_a, x0_b, x0_sq
        ac = mm(x.al, x.cr, (g,), (len(c),))
        ca = mm(x.cl, x.ar, (len(c),), (g,))
        x0_a[:, c] = view(ac - bt(ca))
        x0_a[c] += view(ca - bt(ac))
        t, bdc = zeros(), mm(x.bl, x.dcr, (len(b),), (len(c),))
        t[np.ix_(b, c)] = view(bdc)
        t[np.ix_(c, b)] -= view(bt(bdc))
        x0_a += 1j * t

        cb = comm(x.cl, x.b_cols, x.b_rows, x.cr, (len(c),), (len(b), d))
        x0_b[np.ix_(c, b)] = view(cb)
        x0_b[np.ix_(b, c)] -= view(bt(cb))
        x0_sq[np.ix_(c, c)] = view(comm(x.cl, x.cr, x.cl, x.cr, (len(c),),
                                        (len(c),)))
        return x0_a, x0_b, x0_sq

    second = second_order()
    a, first, (x0_a, x0_b, x0_sq) = zeroth_order(), first_order(), x0_parts()
    return Commutator(a, np.moveaxis(first, -nb - 3, 0), x0_a,
                      np.moveaxis(x0_b, -nb - 3, 0), x0_sq, second)


def check_unitary(u: OperatorField, probe: Sequence[Point]) -> None:
    """Raise NotUnitary unless u is unitary at every probe point (no check
    on an empty probe); a caller that conjugates several operators by one
    field checks it once."""
    if probe and not (unitarity_defect(u(as_batch(probe))) <= 1e-8):
        raise NotUnitary("conjugating field is not unitary at probe point")


def conjugate_by_unitary(u: OperatorField, g: DiffOp1) -> DiffOp1:
    """u^-1 g u for a unitary field u (u^-1 = u^dagger).  Unitarity is not
    checked here: a caller checks u once with :func:`check_unitary`.

    Zeroth part u^-1 A u + sum_k u^-1 B_k (i du/dp_k); derivative
    coefficients u^-1 B_k u; the x0 coefficient conjugates like A.
    """
    ud = u.adjoint()
    a = ud @ g.a @ u
    for k in range(g.d):
        a = a + ud @ g.b[k] @ u.partial(k).scale(1j)
    b = tuple(ud @ g.b[k] @ u for k in range(g.d))
    x0 = ud @ g.x0 @ u if g.x0 is not None else None
    return DiffOp1(a, b, x0)
