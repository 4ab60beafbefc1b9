"""Truncated Taylor ("jet") arithmetic at a point.

A :class:`Jet` stores the Taylor coefficients c_alpha = (d^alpha f)(p) / alpha!
of a scalar function about a fixed base point, densely in graded
lexicographic order, up to a truncation order.  Because the ordering is
graded, truncating to a lower order is a prefix slice.

Arithmetic between jets of different orders silently truncates to the lower
order; every jet therefore knows how many derivative levels it still carries,
which is what the exterior-derivative budget accounting relies on.

A product with a float or a constant jet only scales the coefficients, so
``Jet.__mul__`` skips the convolution for it; the ``+ 0.0`` there turns a
-0.0 into +0.0, as the convolution's zero-started sum does, which keeps every
finite coefficient bit-identical to the full product.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "Jet", "ncoeffs", "multi_indices", "partial",
    "exp", "ln", "sqrt", "powf", "power", "reciprocal",
    "sin", "cos", "tan", "csc", "cot",
    "sinh", "cosh", "tanh", "sech", "asinh", "atan", "atan2",
]


# ---------------------------------------------------------------------------
# index bookkeeping

def ncoeffs(dim: int, order: int) -> int:
    """Number of monomials of total degree <= order in `dim` variables."""
    return math.comb(dim + order, dim)


def _indices_of_degree(dim, deg):
    if dim == 1:
        return [(deg,)]
    out = []
    for first in range(deg, -1, -1):
        for rest in _indices_of_degree(dim - 1, deg - first):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def multi_indices(dim: int, order: int) -> tuple:
    """All exponent multi-indices with |alpha| <= order, graded lex order."""
    out = []
    for deg in range(order + 1):
        out.extend(_indices_of_degree(dim, deg))
    return tuple(out)


@lru_cache(maxsize=None)
def _rank(dim: int, order: int):
    return {a: i for i, a in enumerate(multi_indices(dim, order))}


@lru_cache(maxsize=None)
def _mul_table(dim: int, order: int):
    # Precomputed gather/scatter triples: product coefficient T gets a[I]*b[J].
    idx = multi_indices(dim, order)
    rank = _rank(dim, order)
    degs = [sum(a) for a in idx]
    I, J, T = [], [], []
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            if degs[i] + degs[j] <= order:
                I.append(i)
                J.append(j)
                T.append(rank[tuple(x + y for x, y in zip(a, b))])
    return (np.asarray(I, dtype=np.intp),
            np.asarray(J, dtype=np.intp),
            np.asarray(T, dtype=np.intp))


@lru_cache(maxsize=None)
def _diff_table(dim: int, order: int, axis: int):
    # Taylor coefficient beta of d/dx_axis is c_{beta+e_axis} * (beta_axis+1).
    idx = multi_indices(dim, order)
    rank_lo = _rank(dim, order - 1)
    src, dst, fac = [], [], []
    for i, a in enumerate(idx):
        if a[axis] == 0:
            continue
        b = list(a)
        b[axis] -= 1
        src.append(i)
        dst.append(rank_lo[tuple(b)])
        fac.append(a[axis])
    return (np.asarray(src, dtype=np.intp),
            np.asarray(dst, dtype=np.intp),
            np.asarray(fac, dtype=float))


# ---------------------------------------------------------------------------
# the jet itself

class Jet:
    """A truncated Taylor expansion at a (implicit) base point.

    Jets are immutable by convention; all operations return fresh instances.
    """

    __slots__ = ("dim", "order", "c")

    def __init__(self, dim: int, order: int, c):
        self.dim = dim
        self.order = order
        self.c = np.asarray(c, dtype=float)
        if self.c.shape != (ncoeffs(dim, order),):
            raise ValueError(
                f"jet coefficient vector has length {self.c.shape}, "
                f"expected {ncoeffs(dim, order)} for dim={dim} order={order}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of(cls, dim: int, order: int, c: np.ndarray) -> "Jet":
        """A jet on a float vector ``c`` already of the right length, without
        re-validating it: the constructor of the jet operations and of the
        coefficient views of a form."""
        j = object.__new__(cls)
        j.dim = dim
        j.order = order
        j.c = c
        return j

    @classmethod
    def constant(cls, value: float, dim: int, order: int) -> "Jet":
        c = np.zeros(ncoeffs(dim, order))
        c[0] = value
        return cls(dim, order, c)

    @classmethod
    def variable(cls, value: float, axis: int, dim: int, order: int) -> "Jet":
        """The coordinate function x_axis seeded at the given value."""
        c = np.zeros(ncoeffs(dim, order))
        c[0] = value
        if order >= 1:
            c[1 + axis] = 1.0
        return cls(dim, order, c)

    # -- basic queries ------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.c[0])

    def coeff(self, alpha) -> float:
        """Taylor coefficient for an exponent multi-index."""
        return float(self.c[_rank(self.dim, self.order)[tuple(alpha)]])

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} jet to {order}")
        if order == self.order:
            return self
        return Jet._of(self.dim, order, self.c[:ncoeffs(self.dim, order)])

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value:.6g})"

    # -- ring operations ----------------------------------------------------

    def _align(self, other):
        if isinstance(other, Jet):
            if other.dim != self.dim:
                raise ValueError("jet dimension mismatch")
            m = min(self.order, other.order)
            return self.truncate(m), other.truncate(m)
        return self, Jet.constant(float(other), self.dim, self.order)

    # A float operand of + and - touches c[0] only; the other coefficients
    # get what adding the constant jet's zeros gives them: "+ 0.0" turns a
    # -0.0 into +0.0, "- 0.0" changes nothing, and "0.0 - c" is the
    # reflected difference.

    def __add__(self, other):
        if not isinstance(other, Jet):
            c = self.c + 0.0
            c[0] = self.c[0] + float(other)
            return Jet._of(self.dim, self.order, c)
        a, b = self._align(other)
        return Jet._of(a.dim, a.order, a.c + b.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet._of(self.dim, self.order, -self.c)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            c = self.c.copy()
            c[0] = self.c[0] - float(other)
            return Jet._of(self.dim, self.order, c)
        a, b = self._align(other)
        return Jet._of(a.dim, a.order, a.c - b.c)

    def __rsub__(self, other):
        if not isinstance(other, Jet):
            c = 0.0 - self.c
            c[0] = float(other) - self.c[0]
            return Jet._of(self.dim, self.order, c)
        a, b = self._align(other)
        return Jet._of(a.dim, a.order, b.c - a.c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet._of(self.dim, self.order, self.c * float(other) + 0.0)
        a, b = self._align(other)
        # count_nonzero is several times cheaper than .any() on these sizes
        if not np.count_nonzero(b.c[1:]):
            return Jet._of(a.dim, a.order, a.c * b.c[0] + 0.0)
        if not np.count_nonzero(a.c[1:]):
            return Jet._of(a.dim, a.order, b.c * a.c[0] + 0.0)
        I, J, T = _mul_table(a.dim, a.order)
        prod = np.bincount(T, weights=a.c[I] * b.c[J],
                           minlength=ncoeffs(a.dim, a.order))
        return Jet._of(a.dim, a.order, prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._align(other)
        return a * reciprocal(b)

    def __rtruediv__(self, other):
        a, b = self._align(other)
        return b * reciprocal(a)

    def __pow__(self, p):
        return power(self, p)


def partial(j: Jet, axis: int) -> Jet:
    """d/dx_axis as a jet one order lower.  Raises at order 0."""
    if j.order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    src, dst, fac = _diff_table(j.dim, j.order, axis)
    c = np.zeros(ncoeffs(j.dim, j.order - 1))
    np.add.at(c, dst, j.c[src] * fac)
    return Jet._of(j.dim, j.order - 1, c)


# ---------------------------------------------------------------------------
# elementary functions via Horner composition on the nilpotent part

def _compose(f: Jet, outer) -> Jet:
    """Evaluate sum_k outer[k] * (f - f0)^k by Horner."""
    u = f - f.value
    acc = Jet.constant(outer[-1], f.dim, f.order)
    for k in range(len(outer) - 2, -1, -1):
        acc = acc * u + outer[k]
    return acc


def _series(f, fn, coeff_fn):
    """Compose with the series whose k-th coefficient is coeff_fn(k).

    A coefficient outside the float range raises DomainError(fn, f0).
    """
    try:
        outer = [coeff_fn(k) for k in range(f.order + 1)]
    except (OverflowError, ZeroDivisionError):
        raise DomainError(fn, f.value) from None
    return _compose(f, outer)


def _as_jet(x, like: Jet) -> Jet:
    if isinstance(x, Jet):
        return x
    return Jet.constant(float(x), like.dim, like.order)


def exp(f: Jet) -> Jet:
    f0 = f.value
    return _series(f, "exp", lambda k: math.exp(f0) / math.factorial(k))


def ln(f: Jet) -> Jet:
    f0 = f.value
    if f0 <= 0.0:
        raise DomainError("ln", f0)
    def ck(k):
        if k == 0:
            return math.log(f0)
        return ((-1.0) ** (k + 1)) / (k * f0 ** k)
    return _series(f, "ln", ck)


def reciprocal(f: Jet) -> Jet:
    f0 = f.value
    if f0 == 0.0:
        raise DomainError("reciprocal", f0)
    return _series(f, "reciprocal", lambda k: ((-1.0) ** k) / f0 ** (k + 1))


def _int_power(f: Jet, n: int) -> Jet:
    if n < 0:
        return reciprocal(_int_power(f, -n))
    result = Jet.constant(1.0, f.dim, f.order)
    base = f
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def powf(f: Jet, p: float) -> Jet:
    """f**p for a real constant exponent.

    Integer exponents work for any nonzero-valued base (and any base when
    p >= 0); non-integer exponents require a positive base value.
    """
    if float(p).is_integer():
        return _int_power(f, int(p))
    f0 = f.value
    if f0 <= 0.0:
        raise DomainError("power", f0)
    return _series(f, "power", lambda k: _binom(p, k) * f0 ** (p - k))


def _binom(p: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= (p - i) / (i + 1)
    return out


def power(f: Jet, g) -> Jet:
    """General power.  Constant exponents take the direct series; a genuinely
    varying exponent goes through exp(g*ln f)."""
    if isinstance(g, Jet):
        if np.any(g.c[1:] != 0.0):
            return exp(g * ln(f))
        g = g.value
    return powf(f, float(g))


def sqrt(f: Jet) -> Jet:
    f0 = f.value
    if f0 < 0.0 or (f0 == 0.0 and f.order >= 1):
        raise DomainError("sqrt", f0)
    if f0 == 0.0:
        return Jet.constant(0.0, f.dim, f.order)
    return _series(f, "sqrt", lambda k: _binom(0.5, k) * f0 ** (0.5 - k))


def sin(f: Jet) -> Jet:
    f0 = f.value
    return _series(f, "sin",
                   lambda k: math.sin(f0 + k * math.pi / 2) / math.factorial(k))


def cos(f: Jet) -> Jet:
    f0 = f.value
    return _series(f, "cos",
                   lambda k: math.cos(f0 + k * math.pi / 2) / math.factorial(k))


def tan(f: Jet) -> Jet:
    c = cos(f)
    if c.value == 0.0:
        raise DomainError("tan", f.value)
    return sin(f) / c


def csc(f: Jet) -> Jet:
    s = sin(f)
    if s.value == 0.0:
        raise DomainError("csc", f.value)
    return reciprocal(s)


def cot(f: Jet) -> Jet:
    s = sin(f)
    if s.value == 0.0:
        raise DomainError("cot", f.value)
    return cos(f) / s


def sinh(f: Jet) -> Jet:
    f0 = f.value
    return _series(f, "sinh", lambda k: (math.sinh(f0) if k % 2 == 0
                                         else math.cosh(f0)) / math.factorial(k))


def cosh(f: Jet) -> Jet:
    f0 = f.value
    return _series(f, "cosh", lambda k: (math.cosh(f0) if k % 2 == 0
                                         else math.sinh(f0)) / math.factorial(k))


def tanh(f: Jet) -> Jet:
    return sinh(f) / cosh(f)


def sech(f: Jet) -> Jet:
    return reciprocal(cosh(f))


def asinh(f: Jet) -> Jet:
    return ln(f + sqrt(f * f + 1.0))


def atan(f: Jet) -> Jet:
    # atan(f) = atan(f0) + atan(u) with u = (f-f0)/(1+f*f0) nilpotent.
    f0 = f.value
    u = (f - f0) / (f * f0 + 1.0)
    outer = [0.0] * (f.order + 1)
    for k in range(1, f.order + 1, 2):
        outer[k] = ((-1.0) ** ((k - 1) // 2)) / k
    return _compose(u, outer) + math.atan(f0)


def atan2(y, x) -> Jet:
    """Two-argument arctangent of jets (angle of the point (x, y)).

    The larger-magnitude coordinate is used as the divisor, so the result is
    smooth across both axes; the branch constant only shifts the value part.
    """
    if not isinstance(y, Jet):
        y = _as_jet(y, x)
    x = _as_jet(x, y)
    y0, x0 = y.value, x.value
    if y0 == 0.0 and x0 == 0.0:
        raise DomainError("atan2", 0.0)
    base = math.atan2(y0, x0)
    if abs(x0) >= abs(y0):
        t = atan(y / x)
        return t + (base - math.atan(y0 / x0))
    t = atan(x / y)
    return (base + math.atan(x0 / y0)) - t
