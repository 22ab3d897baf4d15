"""Forward-mode dual numbers: exact derivatives of momentum-dependent fields.

A momentum component is a float at one point or an ``(n,)`` array over a
batch of points; every function here accepts either, elementwise, so one
coefficient closure serves both.  Matrix values multiply with ``@``.  A
:func:`seed` puts a leading (d,) axis, one slot per momentum axis, on the
derivative part; the arithmetic broadcasts it unchanged.  Seeds nest: a seed
of seeded components adds its axis in front of theirs, so the eps of the eps
of a twice-seeded evaluation is the (d, d, ...) stack of second derivatives.
A seeded evaluation's value chain performs exactly the plain one's
operations, so it is the plain value bit for bit; ``==`` compares values, so
a coefficient that tests a component reads the numbers under any seed.
"""

import cmath
import math

import numpy as np


class Dual:
    """A value carrying its first derivatives along every momentum axis at
    once, on a leading (d,) axis of ``eps``.

    Both components may themselves be ``Dual``, so nested evaluation yields
    exact higher derivatives, or ndarrays: a whole batch of scalars, or a
    (stack of) matrices.  Only the operations the fields need are implemented.
    ``==`` compares values through every layer, so a Dual is unhashable.
    """

    __slots__ = ("val", "eps")
    # ndarray * Dual (and @) defers to Dual instead of building an object array
    __array_ufunc__ = None

    def __init__(self, val, eps=0.0):
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    def __eq__(self, other):
        return value(self) == value(other)

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.val * other.eps + self.eps * other.val)
        return Dual(self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val @ other.val,
                        self.val @ other.eps + self.eps @ other.val)
        return Dual(self.val @ other, self.eps @ other)

    def __rmatmul__(self, other):
        return Dual(other @ self.val, other @ self.eps)

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val / other.val,
                        (self.eps * other.val - self.val * other.eps)
                        / (other.val * other.val))
        return Dual(self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        # other is a plain scalar: d(c/x) = -c x'/x^2
        return Dual(other / self.val,
                    -other * self.eps / (self.val * self.val))


def value(x):
    """Strip all dual layers, returning the underlying plain scalar."""
    while isinstance(x, Dual):
        x = x.val
    return x


def eps(x):
    """First-derivative part of a possibly-plain scalar (0 for constants)."""
    return x.eps if isinstance(x, Dual) else 0.0


def seed(p):
    """Momentum components with a unit derivative seed on every axis at once
    (vector forward mode): the ``eps`` of component j is the unit vector e_j
    on a leading (d,) axis, so one evaluation carries all d partials.  The
    units get a singleton axis for each derivative axis (and batch axis) the
    components already carry, so seeding seeded components nests, the new
    axis in front.
    """
    d, c = len(p), p[0]
    units = np.eye(d).reshape(
        (d, d) + (1,) * np.ndim(c.eps if isinstance(c, Dual) else c))
    return tuple(Dual(c, units[j]) for j, c in enumerate(p))


def sqrt(x):
    """Square root; a negative real entry raises ValueError, as math.sqrt does."""
    if isinstance(x, Dual):
        s = sqrt(x.val)
        return Dual(s, x.eps / (2.0 * s))
    if isinstance(x, np.ndarray):
        if x.dtype.kind != "c" and np.count_nonzero(x < 0):
            raise ValueError("math domain error")
        return np.sqrt(x)
    if isinstance(x, complex):
        return cmath.sqrt(x)
    return math.sqrt(x)


def atan(x):
    if isinstance(x, Dual):
        return Dual(atan(x.val), x.eps / (1.0 + x.val * x.val))
    if isinstance(x, np.ndarray):
        # math.atan per entry: numpy's arctan may round differently
        return np.array([math.atan(v) for v in x.flat]).reshape(x.shape)
    return math.atan(x)


def sign(x):
    """Sign of the (real) value; derivative-free, undefined at 0 by contract."""
    v = value(x)
    if isinstance(v, np.ndarray):
        v = v.real
        if np.count_nonzero(v) != v.size:
            raise ValueError("singular point: sign of zero")
        return np.where(v > 0, 1.0, -1.0)
    if isinstance(v, complex):
        v = v.real
    if v == 0:
        raise ValueError("singular point: sign of zero")
    return 1.0 if v > 0 else -1.0


def absval(x):
    """|x| for real scalars, with derivative sign(x) away from the origin."""
    return x * sign(x)
