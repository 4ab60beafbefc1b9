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

A jet can also hold the expansions of one function at N points at once, its
coefficients as an (ncoeffs, N) array whose column p is point p's jet.  The
operations and elementary functions take such jets as they are: products run
as one kernel over all columns (``_product``), series coefficients come per
point from the same ``math`` laws, and each domain check looks at every
point's value.  Every column is bit-equal to the one-point jet.  ``atan2``
runs each of its two branches on the columns that take it.  Where the points
of ``power`` would take different branches, it raises ``_MixedBranches`` and
the caller runs the points one by one.

Every sum goes through ``_sum_into``, one ``np.bincount`` over (target,
point) bins, shared with ``forms``, except a many-point product past
``FLAT_PRODUCT_MAX`` weights x points, whose bins outgrow the cache:
``_rank_sums`` sums it group by group of ``_rank_groups``.  That is the one
grouped loop; a jet product is its one-term case, and ``forms._multiply``
runs it on all the terms of a plan at once.

The product tables are built once per (dim, order) by NumPy array
operations, not loops over index pairs: ``_mul_table`` takes the pairs of
monomials from ``np.nonzero`` of the degree-sum mask (i outer, j inner) and
finds each product's rank through a mixed-radix code of its exponents;
``_rank_groups`` counts each target's pairs with ``np.bincount`` and deals
them out by a stable ``np.argsort``.  ``tests/test_jets.py`` keeps the loops
as the reference the tables must equal.
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
    """Gather/scatter triples (I, J, T): product coefficient T gets
    a[I] * b[J], for every pair of monomials of total degree <= order, i
    outer and j inner.  T is looked up by the mixed-radix code of the
    exponents in base order + 1, which adds without carry since every
    exponent of the product is at most order."""
    idx = np.array(multi_indices(dim, order), dtype=np.intp)
    deg = idx.sum(axis=1)
    I, J = np.nonzero(deg[:, None] + deg[None, :] <= order)
    code = idx @ (order + 1) ** np.arange(dim)
    rank = np.empty((order + 1) ** dim, dtype=np.intp)
    rank[code] = np.arange(len(idx))
    return I, J, rank[code[I] + code[J]]


@lru_cache(maxsize=None)
def _rank_groups(dim: int, order: int) -> tuple:
    """The pairs of ``_mul_table`` grouped by their rank within their
    target, for sums over many points: ``(pos, groups)``, where group s
    holds (I, J) of every target's s-th pair.  Targets are ranked by their
    number of pairs, most first, ties in target order (the order in which
    the pairs of the constant monomial, i = 0, name them), and row
    ``pos[t]`` of the accumulator holds target t, so the targets of group s
    are its first ``len(I)`` rows, in order."""
    I, J, T = _mul_table(dim, order)
    counts = np.bincount(T)
    pos = np.argsort(np.argsort(-counts, kind="stable"))
    # each pair's rank within its target, from the pairs sorted by target
    by_target = np.argsort(T, kind="stable")
    rank = np.empty_like(T)
    rank[by_target] = (np.arange(len(T))
                       - np.repeat(np.cumsum(counts) - counts, counts))
    grouped = np.lexsort((pos[T], rank))
    cuts = np.cumsum(np.bincount(rank))[:-1]
    return pos, tuple(zip(np.split(I[grouped], cuts),
                          np.split(J[grouped], cuts)))


def _scaling_where_nan(out, factors, axis):
    """``out``, the convolution of two coefficient arrays along ``axis``,
    with ``Jet.__mul__``'s scaling path taken where a factor has no
    derivative part and ``out`` holds a NaN.

    There the convolution gives what the scaling path gives unless one of
    its products is NaN: its other products are then +-0, and the
    zero-started sums add them to the one scaled term, as the scaling
    path's "+ 0.0" does.  A NaN product leaves a NaN in the sums (as do
    +inf and -inf both), so only then is ``factors()`` called, for the two
    factor arrays aligned with ``out``."""
    if not np.isnan(out.sum()):
        return out
    a, b = factors()
    lead = (slice(None),) * axis
    first, rest = lead + (slice(0, 1),), lead + (slice(1, None),)
    live_a = a[rest].any(axis=axis, keepdims=True)
    live_b = b[rest].any(axis=axis, keepdims=True)
    return np.where(live_b, np.where(live_a, out, b * a[first] + 0.0),
                    a * b[first] + 0.0)


# weights x points up to which a many-point product bins its pairs flat,
# its weights being its pairs (jets._product) or its terms times their
# pairs (forms._multiply); past it the bins outgrow the cache and
# _rank_sums sums by rank groups.  On a 2-core Xeon (best of 7, 8 to 200
# points), jet products summed faster grouped from 2.7-5.3k at orders 2
# and 3, 12.6k at order 4, 12.9k at 5 and 26k at 6, and 1.2-7x faster from
# 27k on; plans of 3 to 36 form terms at orders 2 to 4 summed grouped
# within 3% of the bins or faster at every size from 670 on, and 1.4-2.9x
# faster past 12k.  One value serves both: 12,000 lies between the jet
# crossovers of orders 3 and 5.  Form plans below it keep their flat bins,
# though warm they sum faster grouped: on the same machine, `fourdim
# fourd_enonzero --points 18` (16 plans, at most 9.7k) ran at the same
# points per second with every stacked form product grouped, in 10
# alternated 35-s runs a side, since each process spends about 1 ms
# building the plans' rank groups, what grouping saves warm, and it held
# 0.5 MB more peak memory in every pair
FLAT_PRODUCT_MAX = 12_000


def _sum_into(bins, weights, shape):
    """``np.bincount`` of ``weights`` by their flat targets ``bins``, as an
    array of ``shape``: each target adds its weights in input order, from
    +0.0.  Weights with a point axis, (len(bins), N), give ``shape + (N,)``,
    each (target, point) binned as bins * N + p, so each column adds its
    terms in the one-point order."""
    if weights.ndim == 2:
        count = weights.shape[1]
        bins = (bins[:, None] * count + np.arange(count)).ravel()
        weights = weights.ravel()
        shape += (count,)
    out = np.bincount(bins, weights, math.prod(shape))
    return out if len(shape) == 1 else out.reshape(shape)


def _product(a: np.ndarray, b: np.ndarray, dim: int, order: int):
    """The product of two coefficient arrays of one order, as
    ``Jet.__mul__`` takes it: (ncoeffs,) for one point, (ncoeffs, N) for N.

    A factor without a derivative part only scales the other.  Otherwise
    ``_sum_into`` bins the pairs of ``_mul_table``, or ``_rank_sums`` sums
    them by ``_rank_groups`` above ``FLAT_PRODUCT_MAX``, each target in the
    one-point order from +0.0, so every column is bit-equal to the
    one-point product; columns with a constant factor take
    ``_scaling_where_nan``."""
    # count_nonzero is several times cheaper than .any() on these sizes
    if not np.count_nonzero(b[1:]):
        return a * b[0] + 0.0
    if not np.count_nonzero(a[1:]) and (a.ndim == 1
                                        or b[1:].any(axis=0).all()):
        return b * a[0] + 0.0
    I, J, T = _mul_table(dim, order)
    if a.ndim == 1:
        return _sum_into(T, a[I] * b[J], (len(a),))
    # the take method gathers rows faster than a[I] and np.take
    if len(T) * a.shape[1] <= FLAT_PRODUCT_MAX:
        out = _sum_into(T, a.take(I, 0) * b.take(J, 0), (len(a),))
    else:
        out = _rank_sums(a, b, *_rank_groups(dim, order))
    return _scaling_where_nan(out, lambda: (a, b), 0)


def _rank_sums(x, y, pos, groups):
    """The sums of a many-point product by rank groups, for rows ``x`` and
    ``y`` with a point axis: group s adds ``x[I] * y[J]`` of its pairs, the
    s-th pair of each target, into the first ``len(I)`` rows of an
    accumulator started at +0.0, whose row ``pos[t]`` ends as target t.
    Each target thus adds its pairs in their order from +0.0, as
    ``_sum_into`` does, and each group is one gather, one multiply and one
    add, in place of bins that outgrow the cache."""
    acc = np.zeros((len(pos), x.shape[1]))
    for I, J in groups:
        prod = x.take(I, 0)
        prod *= y.take(J, 0)
        acc[:len(I)] += prod
    return acc[pos]


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

class _MixedBranches(Exception):
    """The points of a many-point jet would take different branches."""


def _num(x):
    """A float operand, or one value per point as an array."""
    return x if isinstance(x, np.ndarray) else float(x)


class Jet:
    """A truncated Taylor expansion at a (implicit) base point, or at each of
    N points when ``c`` is an (ncoeffs, N) array.

    Jets are immutable by convention; all operations return fresh instances.
    A float operand may be an array of one value per point.
    """

    __slots__ = ("dim", "order", "c")
    # an array operand on the left defers to the jet's reflected operation
    __array_ufunc__ = None

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
    def constant(cls, value, dim: int, order: int) -> "Jet":
        """The constant ``value``, a float, or a sequence of one value per
        point for a many-point jet."""
        c = np.zeros((ncoeffs(dim, order),) + np.shape(value))
        c[0] = value
        return cls._of(dim, order, c)

    @classmethod
    def variable(cls, value, axis: int, dim: int, order: int) -> "Jet":
        """The coordinate function x_axis seeded at the given value, a
        float, or a sequence of one value per point."""
        j = cls.constant(value, dim, order)
        if order >= 1:
            j.c[1 + axis] = 1.0
        return j

    # -- basic queries ------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.c[0])

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} jet to {order}")
        if order == self.order:
            return self
        return Jet._of(self.dim, order, self.c[:ncoeffs(self.dim, order)])

    def __repr__(self):
        shown = ", ".join(f"{v:.6g}" for v in _values(self))
        if self.c.ndim > 1:
            shown = f"[{shown}]"
        return f"Jet(dim={self.dim}, order={self.order}, value={shown})"

    # -- ring operations ----------------------------------------------------

    def _align(self, other):
        if isinstance(other, Jet):
            if other.dim != self.dim:
                raise ValueError("jet dimension mismatch")
            m = min(self.order, other.order)
            return self.truncate(m), other.truncate(m)
        return self, _as_jet(other, self)

    # A float operand of + and - touches c[0] only; the other coefficients
    # get what adding the constant jet's zeros gives them: "+ 0.0" turns a
    # -0.0 into +0.0, "- 0.0" changes nothing, and "0.0 - c" is the
    # reflected difference.

    def __add__(self, other):
        if not isinstance(other, Jet):
            c = self.c + 0.0
            c[0] = self.c[0] + _num(other)
            return Jet._of(self.dim, self.order, c)
        a, b = self._align(other)
        return Jet._of(a.dim, a.order, a.c + b.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet._of(self.dim, self.order, -self.c)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            c = self.c.copy()
            c[0] = self.c[0] - _num(other)
            return Jet._of(self.dim, self.order, c)
        a, b = self._align(other)
        return Jet._of(a.dim, a.order, a.c - b.c)

    def __rsub__(self, other):
        if not isinstance(other, Jet):
            c = 0.0 - self.c
            c[0] = _num(other) - self.c[0]
            return Jet._of(self.dim, self.order, c)
        a, b = self._align(other)
        return Jet._of(a.dim, a.order, b.c - a.c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet._of(self.dim, self.order, self.c * _num(other) + 0.0)
        a, b = self._align(other)
        return Jet._of(a.dim, a.order, _product(a.c, b.c, a.dim, a.order))

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
    terms = j.c[src] * (fac if j.c.ndim == 1 else fac[:, None])
    return Jet._of(j.dim, j.order - 1,
                   _sum_into(dst, terms, (ncoeffs(j.dim, j.order - 1),)))


# ---------------------------------------------------------------------------
# elementary functions via Horner composition on the nilpotent part

def _value(f: Jet):
    """The base value of f: a float for one point, an (N,) array for N."""
    return f.value if f.c.ndim == 1 else f.c[0]


def _values(f: Jet) -> list:
    """The base value of f at each of its points, as floats."""
    v = f.c[0].tolist()
    return v if isinstance(v, list) else [v]


def _per_point(values: list, like: Jet):
    """``values``, one per point of ``like``: a float for one point, an
    array for many."""
    return values[0] if like.c.ndim == 1 else np.array(values)


def _nonzero(fn: str, f: Jet, g: Jet):
    """DomainError(fn, f0) at the first point where g's value is zero."""
    for f0, v in zip(_values(f), _values(g)):
        if v == 0.0:
            raise DomainError(fn, f0)


def _compose(f: Jet, outer) -> Jet:
    """Evaluate sum_k outer[k] * (f - f0)^k by Horner, for k = 0..order.

    acc_k = outer[k] + u * acc_(k+1) is multiplied by u^k in the result,
    so only its degrees <= order - k matter, and step k runs at order
    order - k: an order-6 dim-3 series takes 1,715 pairs where the
    full-order steps took 5,544.  A target sums the same pairs in the same
    order at any truncation, so for finite coefficients the result is
    bit-equal to Horner at full order; where full order meets 0 * inf in a
    degree no later step reads, it gives NaN where this gives a number.
    ``outer[k]`` is a float or one value per point."""
    n, dim = f.order, f.dim
    u = f.c.copy()
    u[0] = f.c[0] - f.c[0]
    acc = np.zeros(f.c.shape)
    acc[0] = outer[n]
    for k in range(n - 1, -1, -1):
        m = ncoeffs(dim, n - k)
        prod = _product(acc[:m], u[:m], dim, n - k)
        acc[:m] = prod + 0.0
        acc[0] = prod[0] + outer[k]
    return Jet._of(dim, n, acc)


def _series(f, fn, law, bad=None):
    """Compose with the series whose k-th coefficient at a point of value
    f0 is law(f0, k).

    A value that ``bad`` flags, or a coefficient outside the float range,
    raises DomainError(fn, f0).
    """
    cols = []
    for f0 in _values(f):
        if bad is not None and bad(f0):
            raise DomainError(fn, f0)
        try:
            cols.append([law(f0, k) for k in range(f.order + 1)])
        except (OverflowError, ZeroDivisionError):
            raise DomainError(fn, f0) from None
    return _compose(f, cols[0] if f.c.ndim == 1 else np.array(cols).T)


def _as_jet(x, like: Jet) -> Jet:
    if isinstance(x, Jet):
        return x
    c = np.zeros(like.c.shape)
    c[0] = _num(x)
    return Jet._of(like.dim, like.order, c)


def exp(f: Jet) -> Jet:
    return _series(f, "exp", lambda f0, k: math.exp(f0) / math.factorial(k))


def _ln_law(f0, k):
    if k == 0:
        return math.log(f0)
    return ((-1.0) ** (k + 1)) / (k * f0 ** k)


def ln(f: Jet) -> Jet:
    return _series(f, "ln", _ln_law, bad=lambda f0: f0 <= 0.0)


def reciprocal(f: Jet) -> Jet:
    return _series(f, "reciprocal",
                   lambda f0, k: ((-1.0) ** k) / f0 ** (k + 1),
                   bad=lambda f0: f0 == 0.0)


def _int_power(f: Jet, n: int) -> Jet:
    if n < 0:
        return reciprocal(_int_power(f, -n))
    result = _as_jet(1.0, f)
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
    return _series(f, "power", lambda f0, k: _binom(p, k) * f0 ** (p - k),
                   bad=lambda f0: f0 <= 0.0)


def _binom(p: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= (p - i) / (i + 1)
    return out


def power(f: Jet, g) -> Jet:
    """General power.  Constant exponents take the direct series; a genuinely
    varying exponent goes through exp(g*ln f)."""
    if isinstance(g, Jet):
        live = np.any(g.c[1:] != 0.0, axis=0)
        if live.all():
            return exp(g * ln(f))
        exponents = set(_values(g))
        if live.any() or len(exponents) > 1:
            raise _MixedBranches("power")
        g = exponents.pop()
    return powf(f, float(g))


def sqrt(f: Jet) -> Jet:
    # at order 0 the series of a zero value is the constant 0.0
    return _series(f, "sqrt", lambda f0, k: _binom(0.5, k) * f0 ** (0.5 - k),
                   bad=lambda f0: f0 < 0.0 or (f0 == 0.0 and f.order >= 1))


def sin(f: Jet) -> Jet:
    return _series(f, "sin", lambda f0, k:
                   math.sin(f0 + k * math.pi / 2) / math.factorial(k))


def cos(f: Jet) -> Jet:
    return _series(f, "cos", lambda f0, k:
                   math.cos(f0 + k * math.pi / 2) / math.factorial(k))


def tan(f: Jet) -> Jet:
    c = cos(f)
    _nonzero("tan", f, c)
    return sin(f) / c


def csc(f: Jet) -> Jet:
    s = sin(f)
    _nonzero("csc", f, s)
    return reciprocal(s)


def cot(f: Jet) -> Jet:
    s = sin(f)
    _nonzero("cot", f, s)
    return cos(f) / s


def sinh(f: Jet) -> Jet:
    return _series(f, "sinh", lambda f0, k: (math.sinh(f0) if k % 2 == 0
                                             else math.cosh(f0))
                   / math.factorial(k))


def cosh(f: Jet) -> Jet:
    return _series(f, "cosh", lambda f0, k: (math.cosh(f0) if k % 2 == 0
                                             else math.sinh(f0))
                   / math.factorial(k))


def tanh(f: Jet) -> Jet:
    return sinh(f) / cosh(f)


def sech(f: Jet) -> Jet:
    return reciprocal(cosh(f))


def asinh(f: Jet) -> Jet:
    return ln(f + sqrt(f * f + 1.0))


def atan(f: Jet) -> Jet:
    # atan(f) = atan(f0) + atan(u) with u = (f-f0)/(1+f*f0) nilpotent.
    values = _values(f)
    f0 = _per_point(values, f)
    u = (f - f0) / (f * f0 + 1.0)
    outer = [0.0] * (f.order + 1)
    for k in range(1, f.order + 1, 2):
        outer[k] = ((-1.0) ** ((k - 1) // 2)) / k
    return _compose(u, outer) + _per_point([math.atan(v) for v in values], f)


def atan2(y, x) -> Jet:
    """Two-argument arctangent of jets (angle of the point (x, y)).

    The larger-magnitude coordinate is used as the divisor, so the result is
    smooth across both axes; the branch constant only shifts the value part.
    Over many points each branch runs on its own columns, which are then put
    back in order, so every column is bit-equal to its one-point jet.
    """
    if not isinstance(y, Jet):
        y = _as_jet(y, x)
    y, x = y._align(x)
    points = list(zip(_values(y), _values(x)))
    if any(y0 == 0.0 and x0 == 0.0 for y0, x0 in points):
        raise DomainError("atan2", 0.0)
    wide = [abs(x0) >= abs(y0) for y0, x0 in points]
    if all(wide) or not any(wide):
        return _atan2_branch(y, x, points, wide[0])
    out = np.empty(y.c.shape)
    for branch in (True, False):
        cols = [k for k, w in enumerate(wide) if w == branch]
        part = _atan2_branch(Jet._of(y.dim, y.order, y.c[:, cols]),
                             Jet._of(x.dim, x.order, x.c[:, cols]),
                             [points[k] for k in cols], branch)
        out[:, cols] = part.c
    return Jet._of(y.dim, y.order, out)


def _atan2_branch(y, x, points, wide) -> Jet:
    """``atan2`` at points that all take one branch: atan(y/x) plus the
    branch constant where |x| >= |y| (``wide``), else the constant minus
    atan(x/y)."""
    if wide:
        t = atan(y / x)
        return t + _per_point([math.atan2(y0, x0) - math.atan(y0 / x0)
                               for y0, x0 in points], y)
    t = atan(x / y)
    return _per_point([math.atan2(y0, x0) + math.atan(x0 / y0)
                       for y0, x0 in points], y) - t
