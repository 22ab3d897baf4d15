"""Momentum-space operator calculus.

Matrix-valued fields of the momentum with exact derivatives, first-order
differential operators A(p) + sum_k B_k(p) (i d/dp_k) + x0*C(p), their
commutators, and conjugation by unitary fields.  Every part of an operator
is a field: an absent one (a B_k it lacks, C on all but the boosts) is the
structurally zero field, which +, @ and scale pass through unevaluated.

A field is a leaf, a finite sum of scalar coefficient functions times
constant matrices, or a node that combines operand fields by +, @, a scalar
factor, the adjoint or d/dp_k.  Products are never multiplied out into
terms.  A momentum argument is a tuple of d components, each a float (one
point: fields evaluate to (dim, dim) matrices) or an (n,) array (a batch, see
:func:`as_batch`: (n, dim, dim) stacks), through the same code.  A derivative
evaluates the same expression on components seeded along every axis at once
as :class:`spinorlab.dual.Dual`, so the pass/fail paths never touch finite
differences: one evaluation gives all d partials as a (d, ..., dim, dim)
stack, and a partial d/dp_k is slice k of it.  Nested seeds give second
derivatives: a partial node read on a seeded argument seeds it again.

Every evaluation memoises its read-only values on its argument
(:class:`_Argument`, and :func:`per_argument` for scalar functions), so a
field that several nodes read, such as a conjugating unitary inside
u^dagger, u and du/dp_k, is evaluated once per argument, and each seeded
argument is made once.  :meth:`OperatorField.partial`,
:meth:`OperatorField.adjoint` and :meth:`OperatorField.momentum` return the
same node on every call, so nodes built at different times still share.
Within a run scope (:func:`shared_batches`) :func:`as_batch` returns one
argument per set of points, so its memo serves the whole run.

:func:`stacked_jet` evaluates a family of operators (a generator set, the
components of a position operator) once, on one shared all-axes seeded
argument, into one :class:`Jet` of values and partials, never evaluating a
structurally zero part.  :func:`diffop_commutator` gives the commutators of
its member pairs i < j from block GEMMs over live members and B slots, read
members first, (*rows, *columns, *batch, dim, dim), through index tables
built once per structure (:func:`_plan`); a self-commutator such as [A, A]
is gathered at the pairs, then subtracted.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from . import dual
from .linalg import NotUnitary, dagger, mat_max, unitarity_defect

Point = Sequence[float]


def sample_momenta(d: int, n: int, seed: int = 42) -> list:
    """Deterministic seeded momenta with components in +-[0.1, 10].

    Component magnitudes never drop below 0.1, which keeps |p3| and p1^2+p2^2
    away from the zeros where catalog fields are singular.  For d >= 3 and
    n >= 4 the third component alternates in sign, so both p3 branches are
    exercised.  Each (d, n, seed) is drawn once; every call gets a new list.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(_momenta(d, n, seed))


@functools.lru_cache(maxsize=256)
def _momenta(d: int, n: int, seed: int) -> tuple:
    u = np.random.default_rng(seed).random((n, 2, d))
    signs = np.where(u[:, 0] < 0.5, 1.0, -1.0)
    comps = signs * (0.1 + (10.0 - 0.1) * u[:, 1])
    if d >= 3 and n >= 4:
        comps[:, 2] = np.abs(comps[:, 2]) * np.where(np.arange(n) % 2, -1.0, 1.0)
    return tuple(tuple(row) for row in comps.tolist())


_RUN = contextvars.ContextVar("run", default=None)   # points -> argument


@contextlib.contextmanager
def shared_batches():
    """A run scope: within it :func:`as_batch` gives one argument per set of
    points, and its memos are released when the scope ends or raises."""
    token = _RUN.set({})
    try:
        yield
    finally:
        _RUN.reset(token)


def as_batch(points) -> "_Argument":
    """A list of points as one read-only momentum argument of d (n,) arrays,
    the column views of one (n, d) array; within :func:`shared_batches`, one
    per set of bitwise-equal points (same dtype, shape and bytes)."""
    table = _read_only(np.array(points))
    comps = tuple(table.T)
    if not comps:
        raise ValueError("empty batch: no sample points")
    shared = _RUN.get()
    if shared is None:
        return _Argument(comps)
    key = (table.dtype.str, table.shape, table.tobytes())
    return shared.get(key) or shared.setdefault(key, _Argument(comps))


def _lift(c):
    """A scalar, (n,) or Dual coefficient, shaped to scale a matrix stack."""
    if isinstance(c, dual.Dual):
        return dual.Dual(_lift(c.val), _lift(c.eps))
    if isinstance(c, np.ndarray):
        return c[..., None, None]
    return c


def _slice(x, k: int):
    """Slice k of the leading axis of every array in x, through the Dual
    layers; a plain 0.0 (a part that is constant in p) stays 0.0.  Below a
    nested seed an array keeps a singleton for each derivative axis it
    lacks, which broadcasts as if absent."""
    if isinstance(x, dual.Dual):
        return dual.Dual(_slice(x.val, k), _slice(x.eps, k))
    return x[k] if np.ndim(x) else x


def _zeros(p: "_Argument", dim: int, lead: tuple = ()) -> np.ndarray:
    return np.zeros(lead + p.batch + (dim, dim), dtype=complex)


class _Argument(tuple):
    """A momentum argument that memoises what is evaluated on it.

    ``values`` maps id(field) to (field, value) for every field evaluated on
    it, and ``seeds`` is the argument seeded along every axis, made once
    (None until then).  Each entry holds its key objects, so an id cannot be
    reused while the argument lives, and the memo dies with the argument.
    ``batch`` is () at a point and (n,) on a batch.
    """

    def __new__(cls, components):
        self = super().__new__(cls, components)
        self.values, self.seeds = {}, None
        self.batch = getattr(dual.value(self[0]), "shape", ())
        return self

    @classmethod
    def of(cls, p) -> "_Argument":
        return p if isinstance(p, cls) else cls(p)

    def seeded(self) -> "_Argument":
        """This argument seeded along every axis (nested, if it is seeded)."""
        if self.seeds is None:
            self.seeds = _Argument(dual.seed(self))
        return self.seeds


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
    @functools.cache
    def momentum(cls, k: int, dim: int, d: int) -> "OperatorField":
        """p_k times the identity (k is 0-based); one shared leaf per k."""
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
                if isinstance(c, (np.ndarray, dual.Dual)) or c != 0:
                    out = out + _lift(c) * mat
        p.values[id(self)] = (self, _read_only(out))
        return out

    __call__ = _eval   # the entry bench/tracing.py wraps; nodes call _eval

    def deriv(self, p: Point) -> np.ndarray:
        """All d exact partial derivatives at p (a point or a batch), as one
        (d, ..., dim, dim) stack from a single evaluation on p seeded along
        every axis at once, the one that every :meth:`partial` reads."""
        p = _Argument.of(p)
        return (_zeros(p, self.dim, (self.d,))
                + dual.eps(self._eval(p.seeded())))

    def partial(self, k: int) -> "OperatorField":
        """d/dp_k as a field: slice k of the eps part of its value on p
        seeded along every axis.  The same node on every call."""
        if k not in self._derived:
            self._derived[k] = self._combine(
                lambda p: _zeros(p, self.dim)
                + _slice(dual.eps(self._eval(p.seeded())), k))
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
    involving it are verified one x0 coefficient at a time.
    Every part is a field: an absent one is the structurally zero field,
    which :func:`stacked_values` and :func:`stacked_jet` never evaluate.
    """

    a: OperatorField
    b: tuple
    x0: OperatorField

    @property
    def d(self) -> int:
        return self.a.d

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_field(f: OperatorField) -> "DiffOp1":
        zero = OperatorField.zero(f.dim, f.d)
        return DiffOp1(f, (zero,) * f.d, zero)

    @staticmethod
    def position_component(k: int, dim: int, d: int) -> "DiffOp1":
        """x_k = i d/dp_k (k is 0-based)."""
        zero = OperatorField.zero(dim, d)
        b = tuple(OperatorField.constant(np.eye(dim, dtype=complex), d)
                  if j == k else zero for j in range(d))
        return DiffOp1(zero, b, zero)

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "DiffOp1") -> "DiffOp1":
        return DiffOp1(self.a + other.a,
                       tuple(x + y for x, y in zip(self.b, other.b)),
                       self.x0 + other.x0)

    def scale(self, c) -> "DiffOp1":
        """Multiply by a constant or by a scalar function of p (on the left;
        a scalar function commutes past the derivatives)."""
        return DiffOp1(self.a.scale(c), tuple(f.scale(c) for f in self.b),
                       self.x0.scale(c))


def stacked_jet(ops: Sequence[DiffOp1], p: Point) -> "Jet":
    """The jets of every operator of ops on p, stacked on a leading member
    axis, from one evaluation shared by them all: each (field, argument)
    pair is computed once (see :class:`_Argument`).

    Per part one all-axes seeded evaluation (:meth:`OperatorField.deriv`)
    gives every partial, and its value part, the plain value bit for bit
    (see :mod:`spinorlab.dual`), is the value; an absent part is the
    structurally zero field and is never evaluated.
    """
    p = _Argument.of(p)
    shape = p.batch + (ops[0].a.dim,) * 2
    da, db, dx0 = _stacked(ops, (ops[0].d, *shape), lambda f: f.deriv(p))
    a, b, x0 = _stacked(ops, shape,
                        lambda f: dual.value(f._eval(p.seeded())))
    return Jet(a, b, da, db, x0, dx0)


def stacked_values(ops: Sequence[DiffOp1], p: Point) -> tuple:
    """(A, B, C) of every operator of ops on p, stacked on a leading member
    axis, from one shared evaluation."""
    p = _Argument.of(p)
    return _stacked(ops, p.batch + (ops[0].a.dim,) * 2, lambda f: f(p))


def _stacked(ops, shape: tuple, value: Callable) -> tuple:
    """value(f), of the given shape, of every A, B_k and C part f of ops on
    zeroed (G, *shape), (G, d, *shape) and (G, *shape) stacks: a
    structurally zero part stays zero, never evaluated."""
    g, d = len(ops), ops[0].d
    a, b, x0 = (np.zeros((g, *axes, *shape), complex)
                for axes in ((), (d,), ()))
    for i, op in enumerate(ops):
        for out, f in ((a[i], op.a), *zip(b[i], op.b), (x0[i], op.x0)):
            if not f._is_zero():
                out[...] = value(f)
    return a, b, x0


@dataclass(frozen=True)
class Jet:
    """G DiffOp1s on one momentum argument (from :func:`stacked_jet`): their
    parts and exact first derivatives, each with a leading (G,) member axis
    over a (dim, dim) matrix at a point or an (n, dim, dim) stack on a batch.

    For member i: b[i, k] = B_k, da[i, k] = dA/dp_k, db[i, k, l] = dB_k/dp_l,
    dx0[i, k] = dC/dp_k; x0[i] = C (zero for an operator without one).
    """

    a: np.ndarray
    b: np.ndarray
    da: np.ndarray
    db: np.ndarray
    x0: np.ndarray
    dx0: np.ndarray


@dataclass
class Commutator:
    """Normal-ordered commutators on the momentum argument of their jet.

    Carries the x0-linear and x0-quadratic parts separately plus the
    symmetrized second-derivative coefficient norm (the worst over every pair
    and the batch), so callers can check each x0 coefficient on its own and
    that nothing leaks outside first order.  b[k] and x0_b[k] are the parts of
    i d/dp_k.  Each part is a new array with one leading axis over the member
    pairs ``np.triu_indices(G, 1)`` (after the axis k for b and x0_b).
    """

    a: np.ndarray
    b: np.ndarray
    x0_a: np.ndarray
    x0_b: np.ndarray
    x0_sq: np.ndarray
    second_order: float


def _pack(x, nb: int, right: bool = False) -> np.ndarray:
    """x of shape (M..., K, *batch, dim, dim) as the left block operand
    (*batch, |M| dim, K dim), or the right one (*batch, K dim, |M| dim); the
    last nb + 2 axes are the batch and the matrix."""
    m, k = math.prod(x.shape[:x.ndim - nb - 3]), x.shape[x.ndim - nb - 3]
    batch, dim = x.shape[x.ndim - nb - 2:-2], x.shape[-1]
    rows, cols = (1, 0) if right else (0, 1)     # m is axis 0, k axis 1
    xm = x.reshape(m, k, *batch, dim, dim).transpose(
        *range(2, nb + 2), rows, nb + 2, cols, nb + 3)
    return xm.reshape(*batch, xm.shape[nb] * dim, xm.shape[nb + 2] * dim)


def _product(xl, yr, mx: tuple, my: tuple, dim: int) -> np.ndarray:
    """The block GEMM xl @ yr of two packed operands, as a view on axes
    (*mx, *my, *batch, dim, dim): mx and my are the member shapes of the
    rows of xl and the columns of yr."""
    prod = xl @ yr
    nb, i, j = prod.ndim - 2, len(mx), len(my)
    z = prod.reshape(*prod.shape[:-2], *mx, dim, *my, dim)
    rows, cols = range(nb, nb + i), range(nb + i + 1, nb + i + 1 + j)
    return z.transpose(*rows, *cols, *range(nb), nb + i, nb + i + 1 + j)


@functools.lru_cache(maxsize=128)
def _plan(g: int, d: int, slots: tuple, c: tuple) -> SimpleNamespace:
    """The index tables of :func:`diffop_commutator` for g members, d axes,
    the live B slots i*d + k and the live x0 members c: ``at[rows, cols,
    swap]``, the mask of the pairs (i, j) with i live in rows and j in cols
    (swapped: j in rows, i in cols), and the members' places there.  Every
    call on one structure shares these arrays, so they are only ever read."""
    b = np.array(sorted({s // d for s in slots}), int)
    slots, c, (i, j) = np.array(slots, int), np.array(c, int), np.triu_indices(g, 1)
    # each member's place among all, the live B and the live x0 members
    place = {"every": np.arange(g), "b": np.full(g, -1), "c": np.full(g, -1)}
    place["b"][b], place["c"][c] = np.arange(len(b)), np.arange(len(c))
    at = {}
    for rn, cn, swap in itertools.product(place, place, (0, 1)):
        r, s = place[rn][(i, j)[swap]], place[cn][(j, i)[swap]]
        m = (r >= 0) & (s >= 0)
        at[rn, cn, swap] = m, r[m], s[m]
    n, (si, sk) = len(slots), np.divmod(slots, d)
    live = np.full(g * d, n)                # each slot's place among the live
    live[slots] = np.arange(n)
    return SimpleNamespace(slots=slots, b=b, c=c, pairs=len(i), at=at,
                           own=place["b"][si] * d + sk,   # in b_rows
                           rows=live[si[:, None] * d + sk])


def _operands(s: Jet, nb: int, plan: SimpleNamespace) -> SimpleNamespace:
    """A stacked jet packed once for block GEMMs, on its plan's live B slots
    and members: each part as the left (``*l``) or right (``*r``) operand
    that the terms read; ``b_rows``/``b_cols`` (B of the live members) and
    ``s_rows``/``s_cols`` (B at the live slots), read from one packing of B,
    have one slot (i, k) per block, as one factor of a commutator."""
    (*batch, _, dim), one = s.a.shape[1:], lambda x: np.expand_dims(x, -nb - 3)
    left, right = lambda x: _pack(x, nb), lambda x: _pack(x, nb, True)
    bl, cl = s.b[plan.b], one(s.x0[plan.c])
    b_rows = left(one(bl))
    blocks = b_rows.reshape(*batch, -1, dim, dim)
    cols = lambda z: np.swapaxes(z, -3, -2).reshape(*batch, dim, -1)
    s_blocks = blocks[..., plan.own, :, :]
    return SimpleNamespace(
        al=left(one(s.a)), ar=right(one(s.a)), bl=left(bl), b_rows=b_rows,
        b_cols=cols(blocks), s_rows=s_blocks.reshape(*batch, -1, dim),
        s_cols=cols(s_blocks), dar=right(s.da), dbr=right(s.db[plan.b]),
        cl=left(cl), cr=right(cl), dcr=right(s.dx0[plan.c]))


def diffop_commutator(jet: Jet) -> Commutator:
    """[g_i, g_j] for every pair i < j of members of one stacked jet, normal
    ordered with derivatives on the right (the pairs j < i are these negated
    bit for bit, so none is computed).

    Zeroth order:  [Ai,Aj] + sum_k (Bik (i dAj/dpk) - Bjk (i dAi/dpk))
    First order k: [Ai,Bjk] - [Aj,Bik] + sum_l (Bil (i dBjk/dpl) - Bjl (i dBik/dpl))
    The jet is packed once into block operands (:func:`_operands`), and each
    product term is one bare block GEMM over the members (:func:`_product`),
    on members-first axes, read at the pairs: the terms of [Aj,Bik], Bj dAi,
    ... are the blocks at (j, i) of those of [Ai,Bjk], Bi dAj, ....  x0
    parts are carried linearly; the antisymmetrized second-order
    coefficient is reported as a residual (zero, up to rounding, for honest
    first-order algebras), from one commutator of B at the live slots
    (i, k), the member and derivative axes flattened together.

    A term with a B or x0 factor is computed only on the live members (the
    second order on the live B slots): those whose B (or x0) part or its
    derivative has an entry that is not exactly zero (a NaN counts as live,
    so it reaches the result), and written into a zeroed result at the pairs
    it reaches, through the index tables of that structure (:func:`_plan`).
    """
    shape = jet.a.shape[1:]
    g, d, nb, dim = len(jet.a), jet.b.shape[1], len(shape) - 2, shape[-1]
    live = lambda x, dx, n: tuple(np.flatnonzero(
        x.reshape(n, -1).any(1) | dx.reshape(n, -1).any(1)).tolist())
    plan = _plan(g, d, live(jet.b, jet.db, g * d), live(jet.x0, jet.dx0, g))
    x, b, c = _operands(jet, nb, plan), plan.b, plan.c
    mm = lambda l, r, mx, my: _product(l, r, mx, my, dim)
    zeros = lambda *axes: np.zeros((plan.pairs,) + axes + shape, complex)

    def skew(z, rows):
        """The mask of the pairs with both members live in rows, and z at
        (i, j) minus z at (j, i) there: gathered, then subtracted."""
        m, r, s = plan.at[rows, rows, 0]
        return m, z[r, s] - z[s, r]

    def spread(z, rows, cols, *axes):
        """z at (i, j) minus z at (j, i), where live, on zeroed pairs."""
        out = zeros(*axes)
        (m, r, s), (n, t, u) = (plan.at[rows, cols, swap] for swap in (0, 1))
        out[m] = z[r, s]
        out[n] -= z[t, u]
        return out

    def comm(xl, yr, yl, xr, mx, my):
        """[x_I, y_J] from the packed operands of two parts x and y."""
        xy, yx = mm(xl, yr, mx, my), mm(yl, xr, my, mx)
        # yx has axes (*J, *I, ...); np.moveaxis would cost 25x this transpose
        k, n = len(my), len(mx) + len(my)
        return xy - yx.transpose(*range(k, n), *range(k), *range(n, yx.ndim))

    # each part in its own function, so that its temporaries are freed
    # before the next part runs
    def second_order():
        """max |[Bs, Bt] + [B(i,l), B(j,k)]| / 2 over the live slots s =
        (i, k), t = (j, l), from one GEMM; a dead partner reads pad slot n."""
        n, rows = len(plan.slots), plan.rows
        xy = mm(x.s_rows, x.s_cols, (n,), (n,))
        bb = np.zeros((n + 1, n + 1) + shape, complex)
        np.subtract(xy, np.swapaxes(xy, 0, 1), out=bb[:n, :n])
        return 0.5 * mat_max(bb[:n, :n] + bb[rows, rows.T])

    def zeroth_order():
        a = skew(mm(x.al, x.ar, (g,), (g,)), "every")[1]
        a += 1j * spread(mm(x.bl, x.dar, (len(b),), (g,)), "b", "every")
        return a

    def first_order():
        out = spread(comm(x.al, x.b_cols, x.b_rows, x.ar, (g,), (len(b), d)),
                     "every", "b", d)
        m, v = skew(mm(x.bl, x.dbr, (len(b),), (len(b), d)), "b")
        out[m] += 1j * v
        return out

    def x0_parts():
        x0_a = spread(comm(x.al, x.cr, x.cl, x.ar, (g,), (len(c),)),
                      "every", "c")
        x0_a += 1j * spread(mm(x.bl, x.dcr, (len(b),), (len(c),)), "b", "c")
        x0_b = spread(comm(x.cl, x.b_cols, x.b_rows, x.cr, (len(c),),
                           (len(b), d)), "c", "b", d)
        x0_sq = zeros()
        m, v = skew(mm(x.cl, x.cr, (len(c),), (len(c),)), "c")
        x0_sq[m] = v
        return x0_a, x0_b, x0_sq

    second = second_order()
    a, first, (x0_a, x0_b, x0_sq) = zeroth_order(), first_order(), x0_parts()
    return Commutator(a, np.moveaxis(first, -nb - 3, 0), x0_a,
                      np.moveaxis(x0_b, -nb - 3, 0), x0_sq, second)


def require_unitary(name: str, field: OperatorField, points) -> None:
    """The one unitarity gate: raise NotUnitary, naming the first failing
    point, unless ``field`` is unitary to 1e-8 and finite at each of
    ``points`` (no check for none), evaluated on the points' batch."""
    if not points:
        return
    values = field(as_batch(points))
    if not (unitarity_defect(values) <= 1e-8):
        bad = next(q for q, v in zip(points, values)
                   if not (unitarity_defect(v) <= 1e-8))
        raise NotUnitary(f"{name} is not unitary at {bad}")


def conjugate_by_unitary(u: OperatorField, g: DiffOp1) -> DiffOp1:
    """u^-1 g u for a unitary field u (u^-1 = u^dagger).  Unitarity is not
    checked here: a caller checks u once with :func:`require_unitary`.

    Zeroth part u^-1 A u + sum_k u^-1 B_k (i du/dp_k); derivative
    coefficients u^-1 B_k u; the x0 coefficient conjugates like A.
    """
    ud = u.adjoint()
    a = ud @ g.a @ u
    for k in range(g.d):
        a = a + ud @ g.b[k] @ u.partial(k).scale(1j)
    return DiffOp1(a, tuple(ud @ f @ u for f in g.b), ud @ g.x0 @ u)
