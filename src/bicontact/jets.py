"""Truncated Taylor ("jet") arithmetic at a list of points.

A :class:`Jet` stores the Taylor coefficients c_alpha = (d^alpha f)(p) / alpha!
of a scalar function about each of N base points p, as an (ncoeffs, N)
array whose column p is point p's expansion, each column densely in graded
lexicographic order up to a truncation order.  That is the one layout: a
single point is a stack of one, N = 1.  Because the ordering is graded,
truncating to a lower order is a prefix slice.

Arithmetic between jets of different orders silently truncates to the lower
order; every jet therefore knows how many derivative levels it still carries,
which is what the exterior-derivative budget accounting relies on.

A product with a float or a constant jet only scales the coefficients, so
``Jet.__mul__`` skips the convolution for it; the ``+ 0.0`` there turns a
-0.0 into +0.0, as the convolution's zero-started sum does, which keeps every
finite coefficient bit-identical to the full product.

The elementary functions run degree recursions (Griewank & Walther,
*Evaluating Derivatives*, ch. 13): the Euler operator E = sum_i x_i d/dx_i
turns g = exp f into E g = g E f, whose degree-k part gives g's degree-k
coefficients from f's and g's lower ones.  Each step ``_series`` takes is
one sum over the pairs of ``_step_plan(dim, k)``, and only the value at the
base point comes from ``math``, once per point, with the domain and range
guards.  sin and cos, and sinh and cosh, run as pairs, one sum per step for
both.

Every product in the package is a ``_Plan``: pair indices I and J into the
rows of two operands, and the output row T of each pair.  A jet product is
``_mul_plan(dim, order)``, a series step ``_step_plan(dim, k)``, and
``forms`` builds its wedges, scalings and frame coefficients as plans of
many terms.  ``_convolve`` is the one entry that sums a plan, over all
columns at once, and the one place that picks the path: up to
``FLAT_PRODUCT_MAX`` weights x points, ``_sum_into`` bins the products
with one ``np.bincount`` over (target, point) bins; past it, where those
bins outgrow the cache, ``_rank_sums`` sums them by the plan's rank groups,
built on first use, in chunks of at most ``FLAT_PRODUCT_MAX`` weights x
points (``_chunks``), each group adding its rows of a chunk with one slice
add.  Both paths add each target's pairs in order from +0.0, so every
column is bit-equal to the same jet computed as a stack of one, and each
domain check looks at every point's value.  ``atan2`` and ``power`` run
each branch on the columns that take it (``_by_branch``).

The monomial order is decided in one place, ``_index(dim, order)``, built
once per (dim, order) by NumPy array operations: each monomial's exponents,
degree and mixed-radix code, and the rank of each code (Neidinger, *Math.
Comp.* 74 (2005) 321-340).  The tables come from it without loops over
monomials or pairs: ``_mul_table`` and ``_step_plan`` take their pairs
from ``np.nonzero`` of a degree mask (i outer, j inner), each product's
rank as ``rank[code_i + code_j]``, and ``_diff_table`` each derivative's
rank by one gather; ``_grouped`` counts each target's pairs with
``np.bincount`` and deals them out by a stable ``np.argsort``.
``tests/test_jets.py`` keeps a recursive enumeration and loops over it as
the reference the index and tables must equal, and the Horner series of
the ``math`` laws as the reference of the recursions.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "Jet", "ncoeffs", "partial",
    "exp", "ln", "sqrt", "powf", "power", "reciprocal",
    "sin", "cos", "tan", "csc", "cot",
    "sinh", "cosh", "tanh", "sech", "asinh", "atan", "atan2",
]


# ---------------------------------------------------------------------------
# index bookkeeping

def ncoeffs(dim: int, order: int) -> int:
    """Number of monomials of total degree <= order in `dim` variables."""
    return math.comb(dim + order, dim)


@lru_cache(maxsize=None)
def _index(dim: int, order: int) -> tuple:
    """The monomials of total degree <= order in ``dim`` variables, in
    graded lexicographic order, as ``(exps, deg, code, rank)``: row r of
    ``exps``, (ncoeffs, dim), holds the exponents of the monomial of rank
    r, ``deg[r]`` its total degree, ``code[r]`` the mixed-radix code of its
    exponents in base order + 1, x_0's the most significant digit, and
    ``rank[code[r]] == r``.  Codes add without carry while every exponent
    of the sum is at most order, so the rank of a product or a derivative
    is one gather.  The order is that of every jet table, and it is the
    same at every order: the index of a lower order is a prefix."""
    base = order + 1
    # row c: the exponents whose code is c, for every code below base^dim
    exps = np.indices((base,) * dim).reshape(dim, -1).T
    deg = exps.sum(axis=1)
    # degree first, then codes descending, which is exponents descending
    # with x_0's first; the degrees <= order come first
    key = deg * base ** dim - np.arange(len(deg))
    code = np.argsort(key)[:ncoeffs(dim, order)]
    rank = np.empty(len(deg), dtype=np.intp)
    rank[code] = np.arange(len(code))
    return exps[code], deg[code], code, rank


@lru_cache(maxsize=None)
def _mul_table(dim: int, order: int):
    """Gather/scatter triples (I, J, T): product coefficient T gets
    a[I] * b[J], for every pair of monomials of total degree <= order, i
    outer and j inner, from the degree-sum mask of ``_index`` and the rank
    of each product's summed code."""
    _, deg, code, rank = _index(dim, order)
    I, J = np.nonzero(deg[:, None] + deg[None, :] <= order)
    return I, J, rank[code[I] + code[J]]


def _grouped(I, J, T) -> tuple:
    """Pairs (I, J) of targets T grouped by their rank within their
    target, for sums over many points: ``(pos, I, J, sizes)``, the pairs
    concatenated group by group, where group s holds every target's s-th
    pair and ``sizes[s]`` is its length.  Targets are ranked by their
    number of pairs, most first, ties in target order (for a product, the
    order in which the pairs of the constant monomial, i = 0, name them),
    and row ``pos[t]`` of the accumulator holds target t, so the targets of
    group s are its first ``sizes[s]`` rows, in order."""
    counts = np.bincount(T)
    pos = np.argsort(np.argsort(-counts, kind="stable"))
    # each pair's rank within its target, from the pairs sorted by target
    by_target = np.argsort(T, kind="stable")
    rank = np.empty_like(T)
    rank[by_target] = (np.arange(len(T))
                       - np.repeat(np.cumsum(counts) - counts, counts))
    grouped = np.lexsort((pos[T], rank))
    return pos, I[grouped], J[grouped], tuple(np.bincount(rank).tolist())


class _Plan:
    """A batch of products, as ``_convolve`` sums it: output row ``T[m]``
    of ``rows`` gets ``x[I[m]] * y[J[m]]``, each row adding its pairs in
    order.  ``groups()`` gives the same pairs by rank groups, as
    ``_rank_sums`` takes them, built the first time a sum needs them, by
    ``_build_groups``: here ``_grouped`` of the pairs."""

    __slots__ = ("I", "J", "T", "rows", "_groups")

    def __init__(self, I, J, T, rows):
        self.I, self.J, self.T, self.rows = I, J, T, rows
        self._groups = None

    def groups(self) -> tuple:
        if self._groups is None:
            self._groups = self._build_groups()
        return self._groups

    def _build_groups(self) -> tuple:
        return _grouped(self.I, self.J, self.T)


@lru_cache(maxsize=None)
def _mul_plan(dim: int, order: int) -> _Plan:
    """The product of two jets of one order: the pairs of ``_mul_table``."""
    return _Plan(*_mul_table(dim, order), ncoeffs(dim, order))


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


# weights x points up to which _convolve bins a plan's pairs flat, its
# weights being its pairs (a jet product or series step) or its terms times
# their pairs (a plan of forms); past it
# the bins outgrow the cache and _rank_sums sums by rank groups, in chunks of
# at most this many weights x points.  On a 2-core Xeon (best of 7, 8 to 200
# points), before the chunks, jet products summed faster grouped from
# 2.7-5.3k at orders 2 and 3, 12.6k at order 4, 12.9k at 5 and 26k at 6, and
# 1.2-7x faster from 27k on; plans of 3 to 36 form terms at orders 2 to 4
# summed grouped within 3% of the bins or faster at every size from 670 on,
# and 1.4-2.9x faster past 12k.  One value serves both: 12,000 lies between
# the jet crossovers of orders 3 and 5.  Form plans below it keep their flat
# bins, though warm they sum faster grouped: on the same machine, `fourdim
# fourd_enonzero --points 18` (16 plans, at most 9.7k) ran at the same points
# per second with every stacked form product grouped, in 10 alternated 35-s
# runs a side, since each process spends about 1 ms building the plans' rank
# groups, what grouping saves warm, and it held 0.5 MB more peak memory in
# every pair
FLAT_PRODUCT_MAX = 12_000


def _sum_into(bins, weights, shape):
    """``np.bincount`` of ``weights``, (len(bins), N), by their flat targets
    ``bins``, as an array of ``shape + (N,)``: each (target, point) is
    binned as bins * N + p, so each column adds its weights in input order,
    from +0.0, as a stack of one does.  At N = 1 those bins are ``bins``
    themselves, and the offsets are skipped."""
    count = weights.shape[1]
    if count > 1:
        bins = (bins[:, None] * count + np.arange(count)).ravel()
    out = np.bincount(bins, weights.ravel(), math.prod(shape) * count)
    return out.reshape(shape + (count,))


def _convolve(x, y, plan: _Plan) -> np.ndarray:
    """The sums of ``plan`` over rows ``x`` and ``y`` with a point axis, an
    (rows, N) array, each row adding its pairs in the plan's order from
    +0.0, so every column is bit-equal to the sums of its stack of one.
    This is the one place a sum picks its path: up to ``FLAT_PRODUCT_MAX``
    weights (pairs) x points, ``_sum_into`` bins the products flat; past
    it, where those bins outgrow the cache, ``_rank_sums`` sums them by the
    plan's rank groups."""
    if len(plan.T) * x.shape[1] <= FLAT_PRODUCT_MAX:
        # the take method gathers rows faster than x[I] and np.take
        w = x.take(plan.I, 0)
        w *= y.take(plan.J, 0)
        return _sum_into(plan.T, w, (plan.rows,))
    return _rank_sums(x, y, *plan.groups())


def _product(a: np.ndarray, b: np.ndarray, dim: int, order: int):
    """The product of two (ncoeffs, N) coefficient arrays of one order, as
    ``Jet.__mul__`` takes it: a factor without a derivative part only
    scales the other; otherwise ``_convolve`` of ``_mul_plan``, where
    columns with a constant factor take ``_scaling_where_nan``."""
    # count_nonzero is several times cheaper than .any() on these sizes
    if not np.count_nonzero(b[1:]):
        return a * b[0] + 0.0
    if not np.count_nonzero(a[1:]) and b[1:].any(axis=0).all():
        return b * a[0] + 0.0
    out = _convolve(a, b, _mul_plan(dim, order))
    return _scaling_where_nan(out, lambda: (a, b), 0)


def _rank_sums(x, y, pos, I, J, sizes):
    """The sums of a product by rank groups, for rows ``x`` and ``y`` with
    a point axis and the pairs of ``_grouped``: group s adds
    ``x[i] * y[j]`` of its pairs, the s-th pair of each target, into the
    first ``sizes[s]`` rows of an accumulator started at +0.0, whose row
    ``pos[t]`` ends as target t.  Each target thus adds its pairs in their
    order from +0.0, as ``_sum_into`` does.  The products are gathered and
    multiplied in the chunks of ``_chunks``, at most ``FLAT_PRODUCT_MAX``
    weights x points each, which stay in cache, and a group adds its rows
    of a chunk with one slice add."""
    acc = np.zeros((len(pos), x.shape[1]))
    for pairs, adds in _chunks(sizes, max(FLAT_PRODUCT_MAX // x.shape[1], 1)):
        prod = x.take(I[pairs], 0)
        prod *= y.take(J[pairs], 0)
        for rows, part in adds:
            acc[rows] += prod[part]
    return acc[pos]


@lru_cache(maxsize=None)
def _chunks(sizes: tuple, step: int) -> tuple:
    """The pairs of rank groups of ``sizes`` in chunks of at most ``step``,
    in order, each as (the slice of its pairs, and per group it meets, the
    slices of accumulator rows and of the chunk that the group adds).  A
    group joins the open chunk whole where it fits, else starts the next
    one, and a group longer than ``step`` is cut every ``step`` pairs."""
    cuts, end = [0], 0
    for size in sizes:
        if end + size - cuts[-1] > step:
            if end > cuts[-1]:
                cuts.append(end)
            cuts.extend(range(end + step, end + size, step))
        end += size
    cuts.append(end)
    firsts = np.cumsum((0,) + sizes).tolist()
    return tuple(
        (slice(lo, hi), tuple(
            (slice(a - first, b - first), slice(a - lo, b - lo))
            for first, size in zip(firsts, sizes)
            for a, b in [(max(lo, first), min(hi, first + size))] if a < b))
        for lo, hi in zip(cuts, cuts[1:]))


@lru_cache(maxsize=None)
def _diff_table(dim: int, order: int, axis: int):
    """(src, dst, fac) of d/dx_axis, whose coefficient beta is
    c_{beta+e_axis} * (beta_axis+1): row ``dst`` one order lower gets
    coefficient ``src`` times ``fac``."""
    exps, _, code, rank = _index(dim, order)
    src = np.flatnonzero(exps[:, axis])
    return (src, rank[code[src] - (order + 1) ** (dim - 1 - axis)],
            exps[src, axis].astype(float))


# ---------------------------------------------------------------------------
# the jet itself

def _num(x):
    """A float operand, or one value per point as an array."""
    return x if isinstance(x, np.ndarray) else float(x)


class Jet:
    """Truncated Taylor expansions at N base points: ``c`` is an
    (ncoeffs, N) array, N >= 1, whose column p is point p's expansion.

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
        n, shape = ncoeffs(dim, order), self.c.shape
        if len(shape) != 2 or shape[0] != n or shape[1] < 1:
            raise ValueError(
                f"jet coefficients have shape {shape}, expected "
                f"(ncoeffs, N) = ({n}, N) with N >= 1 for dim={dim} "
                f"order={order}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of(cls, dim: int, order: int, c: np.ndarray) -> "Jet":
        """A jet on a float array ``c`` already of the right shape, without
        re-validating it: the constructor of the jet operations and of the
        coefficient views of a form."""
        j = object.__new__(cls)
        j.dim = dim
        j.order = order
        j.c = c
        return j

    @classmethod
    def constant(cls, values, dim: int, order: int) -> "Jet":
        """The constant function of the given value at each point, from a
        sequence of one value per point."""
        c = np.zeros((ncoeffs(dim, order), len(values)))
        c[0] = values
        return cls._of(dim, order, c)

    @classmethod
    def variable(cls, values, axis: int, dim: int, order: int) -> "Jet":
        """The coordinate function x_axis seeded at the given values, one
        per point."""
        j = cls.constant(values, dim, order)
        if order >= 1:
            j.c[1 + axis] = 1.0
        return j

    # -- basic queries ------------------------------------------------------

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} jet to {order}")
        if order == self.order:
            return self
        return Jet._of(self.dim, order, self.c[:ncoeffs(self.dim, order)])

    def __repr__(self):
        shown = ", ".join(f"{v:.6g}" for v in _values(self))
        return f"Jet(dim={self.dim}, order={self.order}, value=[{shown}])"

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
    terms = j.c[src] * fac[:, None]
    return Jet._of(j.dim, j.order - 1,
                   _sum_into(dst, terms, (ncoeffs(j.dim, j.order - 1),)))


# ---------------------------------------------------------------------------
# elementary functions by degree recursions

def _value(f: Jet) -> np.ndarray:
    """The base value of f at each of its points, an (N,) array."""
    return f.c[0]


def _values(f: Jet) -> list:
    """The base value of f at each of its points, as floats."""
    return f.c[0].tolist()


def _nonzero(fn: str, f: Jet, g: Jet):
    """DomainError(fn, f0) at the first point where g's value is zero."""
    for f0, v in zip(_values(f), _values(g)):
        if v == 0.0:
            raise DomainError(fn, f0)


def _at_points(fn: str, f: Jet, law) -> list:
    """law(f0) at each point of f, in order.  Where it raises, as ``math``
    does out of its domain or range, DomainError(fn, f0) names the first
    such point, before any array arithmetic."""
    out = []
    for f0 in _values(f):
        try:
            out.append(law(f0))
        except (ArithmeticError, ValueError):
            raise DomainError(fn, f0) from None
    return out


def _by_degree(f: Jet, a: float, b: float, k: int) -> np.ndarray:
    """f's coefficients of degree <= k, each times a * degree + b: with
    (1, 0), those of E f = sum_i x_i df/dx_i, the Euler operator."""
    w = a * _index(f.dim, k)[1] + b
    return f.c[:len(w)] * w[:, None]


@lru_cache(maxsize=None)
def _step_plan(dim: int, k: int) -> _Plan:
    """The pairs of ``_mul_table(dim, k)`` whose target has degree k and
    whose first monomial has degree >= 1, taken from the degree mask of
    ``_index(dim, k)``, one row per monomial of degree k, counted from the
    first.  Ranks are a prefix at every order, so the plan serves every
    order >= k."""
    _, deg, code, rank = _index(dim, k)
    I, J = np.nonzero((deg[:, None] + deg[None, :] == k) & (deg[:, None] > 0))
    low = ncoeffs(dim, k - 1)
    return _Plan(I, J, rank[code[I] + code[J]] - low, len(deg) - low)


def _step_sum(x, y, dim: int, k: int):
    """sum x[i] * y[j] over the pairs of ``_step_plan(dim, k)``, one row
    per monomial of degree k, by ``_convolve``."""
    return _convolve(x, y, _step_plan(dim, k))


def _series(f: Jet, starts: list, step) -> list:
    """The jets of one function g of f, or of a pair, by a degree recursion
    (Griewank & Walther, *Evaluating Derivatives*, ch. 13; Neidinger,
    APL '95).  ``starts`` holds each function's values at the points of f,
    and ``step(k, g)`` gives the degree-k part of the coefficient array g
    from its parts below k.  A pair's array holds the first function's
    columns, then the second's, (ncoeffs, 2N), so that each step takes one
    sum over both.

    Each step reads the degrees below k only, so a result truncated to a
    lower order is bit-equal to the result at that order.  Every part ends
    in "+ 0.0", so an exact zero is never -0.0."""
    dim, n = f.dim, f.order
    g = np.zeros((len(f.c), f.c.shape[1] * len(starts)))
    g[0] = [v for column in starts for v in column]
    g[0] += 0.0
    # cuts[k] is the rank of the first monomial of degree k
    cuts = _index(dim, n)[1].searchsorted(np.arange(n + 2)).tolist()
    for k in range(1, n + 1):
        g[cuts[k]:cuts[k + 1]] = step(k, g) + 0.0
    if len(starts) == 1:
        return [Jet._of(dim, n, g)]
    return [Jet._of(dim, n, np.ascontiguousarray(part))
            for part in np.split(g, len(starts), axis=1)]


def _as_jet(x, like: Jet) -> Jet:
    if isinstance(x, Jet):
        return x
    c = np.zeros(like.c.shape)
    c[0] = _num(x)
    return Jet._of(like.dim, like.order, c)


def exp(f: Jet) -> Jet:
    # E g = g E f:  k g_k = sum_j j f_j g_(k-j)
    starts = _at_points("exp", f, math.exp)
    ef = _by_degree(f, 1.0, 0.0, f.order)
    return _series(f, [starts],
                   lambda k, g: _step_sum(ef, g, f.dim, k) / k)[0]


def ln(f: Jet) -> Jet:
    # E g = E f / f:  k f0 g_k = k f_k - sum_(j>=1) (k - j) f_j g_(k-j)
    n, dim, f0 = f.order, f.dim, _value(f)

    def law(f0):
        if n:
            # the degree-n coefficient is 1/(n f0^n) in size
            1.0 / (n * f0 ** n)
        return math.log(f0)

    starts = _at_points("ln", f, law)

    def step(k, g):
        x = _by_degree(f, -1.0, k, k)
        return (f.c[ncoeffs(dim, k - 1):len(x)]
                - _step_sum(x, g, dim, k) / k) / f0

    return _series(f, [starts], step)[0]


def reciprocal(f: Jet) -> Jet:
    # f g = 1:  g_k = -(sum_(j>=1) f_j g_(k-j)) / f0
    n, f0 = f.order, _value(f)

    def law(f0):
        # the degree-n coefficient is 1/f0^(n+1) in size
        1.0 / f0 ** (n + 1)
        return 1.0 / f0

    starts = _at_points("reciprocal", f, law)
    return _series(f, [starts],
                   lambda k, g: -_step_sum(f.c, g, f.dim, k) / f0)[0]


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


def _real_power(f: Jet, p: float, fn: str, zero_ok: bool) -> Jet:
    """f**p for a non-integer p, by f E g = p g E f:
    k f0 g_k = sum_(j>=1) ((p + 1) j - k) f_j g_(k-j).

    The base value must be positive, or zero where ``zero_ok``; the
    degree-k coefficient is f0^(p-k) in size, largest at k = 0 or at the
    order, which decides whether the series stays in range."""
    n, dim, f0 = f.order, f.dim, _value(f)

    def law(f0):
        if f0 < 0.0 or (f0 == 0.0 and not zero_ok):
            raise ValueError(fn)
        if f0 < 1.0:
            f0 ** (p - n)
        return f0 ** p

    starts = _at_points(fn, f, law)
    return _series(f, [starts], lambda k, g: _step_sum(
        _by_degree(f, p + 1.0, -k, k), g, dim, k) / (k * f0))[0]


def powf(f: Jet, p: float) -> Jet:
    """f**p for a real constant exponent.

    Integer exponents work for any nonzero-valued base (and any base when
    p >= 0); non-integer exponents require a positive base value.
    """
    if float(p).is_integer():
        return _int_power(f, int(p))
    return _real_power(f, float(p), "power", zero_ok=False)


def power(f: Jet, g) -> Jet:
    """General power.  A column whose exponent has a derivative part goes
    through exp(g*ln f); the columns of each constant exponent e take
    ``powf(f, e)``, at f's own order."""
    if not isinstance(g, Jet):
        return powf(f, float(g))
    live = np.any(g.c[1:] != 0.0, axis=0).tolist()
    return _by_branch(
        [None if x else e for x, e in zip(live, _values(g))],
        lambda e, cols: powf(_columns(f, cols), e) if e is not None
        else exp(_columns(g, cols) * ln(_columns(f, cols))))


def sqrt(f: Jet) -> Jet:
    # at order 0 the root of a zero value is the constant 0.0
    return _real_power(f, 0.5, "sqrt", zero_ok=True)


def _pair(f: Jet, fn: str, law, sign: float) -> list:
    """[g, h] with E g = h E f and E h = sign g E f, their values at f0
    ``law(f0)``:  k g_k = sum_j j f_j h_(k-j), k h_k = sign sum_j j f_j
    g_(k-j).  One sum gives sign sum_j j f_j g_(k-j) in g's columns and
    sum_j j f_j h_(k-j) in h's, which the step swaps."""
    starts = list(zip(*_at_points(fn, f, law)))
    ef = _by_degree(f, 1.0, 0.0, f.order)
    both = np.concatenate((sign * ef, ef), axis=1)
    swap = np.roll(np.arange(both.shape[1]), ef.shape[1])

    def step(k, g):
        s = _step_sum(both, g, f.dim, k)
        s /= k
        return s.take(swap, 1)

    return _series(f, starts, step)


def _sin_cos(f: Jet, fn: str) -> list:
    """[sin f, cos f]: E sin f = cos f E f, E cos f = -sin f E f."""
    return _pair(f, fn, lambda f0: (math.sin(f0), math.cos(f0)), -1.0)


def sin(f: Jet) -> Jet:
    return _sin_cos(f, "sin")[0]


def cos(f: Jet) -> Jet:
    return _sin_cos(f, "cos")[1]


def tan(f: Jet) -> Jet:
    s, c = _sin_cos(f, "tan")
    _nonzero("tan", f, c)
    return s / c


def csc(f: Jet) -> Jet:
    s = sin(f)
    _nonzero("csc", f, s)
    return reciprocal(s)


def cot(f: Jet) -> Jet:
    s, c = _sin_cos(f, "cot")
    _nonzero("cot", f, s)
    return c / s


def _sinh_cosh(f: Jet, fn: str) -> list:
    """[sinh f, cosh f]: E sinh f = cosh f E f, E cosh f = sinh f E f."""
    return _pair(f, fn, lambda f0: (math.sinh(f0), math.cosh(f0)), 1.0)


def sinh(f: Jet) -> Jet:
    return _sinh_cosh(f, "sinh")[0]


def cosh(f: Jet) -> Jet:
    return _sinh_cosh(f, "cosh")[1]


def tanh(f: Jet) -> Jet:
    s, c = _sinh_cosh(f, "sinh")
    return s / c


def sech(f: Jet) -> Jet:
    return reciprocal(cosh(f))


def asinh(f: Jet) -> Jet:
    return ln(f + sqrt(f * f + 1.0))


def atan(f: Jet) -> Jet:
    # E g = h E f with h = 1/(1 + f^2):  k g_k = sum_j j f_j h_(k-j)
    h = reciprocal(f * f + 1.0).c
    ef = _by_degree(f, 1.0, 0.0, f.order)
    return _series(f, [_at_points("atan", f, math.atan)],
                   lambda k, g: _step_sum(ef, h, f.dim, k) / k)[0]


def atan2(y, x) -> Jet:
    """Two-argument arctangent of jets (angle of the point (x, y)).

    The larger-magnitude coordinate is used as the divisor, so the result is
    smooth across both axes; the branch constant only shifts the value part.
    Each branch runs on its own columns (``_by_branch``).
    """
    if not isinstance(y, Jet):
        y = _as_jet(y, x)
    y, x = y._align(x)
    points = list(zip(_values(y), _values(x)))
    if any(y0 == 0.0 and x0 == 0.0 for y0, x0 in points):
        raise DomainError("atan2", 0.0)
    return _by_branch([abs(x0) >= abs(y0) for y0, x0 in points],
                      lambda wide, cols: _atan2_branch(
                          _columns(y, cols), _columns(x, cols), wide))


def _atan2_branch(y, x, wide) -> Jet:
    """``atan2`` at points that all take one branch: atan(y/x) plus the
    branch constant where |x| >= |y| (``wide``), else the constant minus
    atan(x/y)."""
    points = list(zip(_values(y), _values(x)))
    if wide:
        t = atan(y / x)
        return t + np.array([math.atan2(y0, x0) - math.atan(y0 / x0)
                             for y0, x0 in points])
    t = atan(x / y)
    return np.array([math.atan2(y0, x0) + math.atan(x0 / y0)
                     for y0, x0 in points]) - t


def _columns(f: Jet, cols) -> Jet:
    """The jet of f's columns ``cols``."""
    return Jet._of(f.dim, f.order, f.c[:, cols])


def _by_branch(branches, run) -> Jet:
    """The jet whose columns take the branches ``branches``, one per
    column: ``run(branch, cols)`` gives the jet at the columns ``cols`` that
    take ``branch``, a list, or ``slice(None)`` where every column takes
    it.  The parts are put back in column order, at the lowest order among
    them, so every column is bit-equal to its stack of one, up to that
    truncation."""
    parts = {}
    for k, branch in enumerate(branches):
        parts.setdefault(branch, []).append(k)
    if len(parts) == 1:
        return run(branches[0], slice(None))
    parts = [(cols, run(branch, cols)) for branch, cols in parts.items()]
    dim = parts[0][1].dim
    order = min(part.order for _, part in parts)
    out = np.empty((ncoeffs(dim, order), len(branches)))
    for cols, part in parts:
        out[:, cols] = part.c[:len(out)]
    return Jet._of(dim, order, out)
