"""Point-local exterior calculus on a coordinate chart.

A :class:`PForm` is a p-form at a base point: one float array ``c`` with a
row per coefficient (per strictly increasing coordinate index tuple, in
``combinations`` order) holding that coefficient's Taylor coefficients, all
at one truncation order, so the form carries enough derivative information
for repeated exterior differentiation.  Building a form from a {key: Jet}
dict truncates every coefficient to the lowest order among them.  Forms are
immutable; ``PForm.coeffs`` is a read-only {key: Jet} view of the rows,
built on first read.  A :class:`CoframeField` is the chart-level family
of raw coframes: it builds one stacked :class:`Coframe` at a whole sample
list from closed-form coefficient expressions, whose tape runs once per
list.  The pipeline drivers hand back the frames they adapt as stacked
blocks in sample order.

Like a jet, a form can hold N points at once: ``c`` then has a trailing
point axis, shape (keys, ncoeffs, N), and its coefficient jets are
many-point jets.  Every kernel below takes such forms as they are.  Every
:class:`Coframe` a :class:`CoframeField` builds carries a point axis, so a
block of frames goes through a stage in one pass, and the frame at one
point (:meth:`CoframeField.at`) is a stack of one.
:meth:`CoframeField.blocks` builds a sample list as one stacked frame and
hands it out ``STACK_BLOCK`` columns at a time, :func:`by_block` runs a
stage once per block, and where a block's pass raises, runs its first half,
then its second, into whichever half raises, down to a stack of one, and
:func:`block_rows` splits a check's table into one row per point.

Every structure-equation check in the pipeline reduces to wedge products,
exterior derivatives, and top-form ratios of these objects.  A coframe keeps
the data derived from it in one memo: :meth:`Coframe.d` is the one place the
exterior derivative of a frame's own covector is taken, and
:meth:`Coframe.d_coeffs` expands it in the frame.  :meth:`Coframe.ratio`
divides a top-degree form by the frame's volume through the cached
reciprocal.  :func:`scalar_d` is :func:`ext_d` of a 0-form, so ``ext_d`` is
the only differentiation kernel here, and a scalar's frame derivatives are
``one_form_coeffs(scalar_d(chart, f), frame)``.

Coefficients in a coframe come from one complement kernel for both degrees:
the coefficient of omega^I in a p-form beta is sign * (beta ^ rest_I) / vol,
with rest_I the wedge of the covectors not in I.  :func:`one_form_coeffs`
and :func:`two_form_coeffs` are that kernel at p = 1 and p = 2; no dual
frame or matrix inverse is formed.

Sums, differences and float multiples of forms are single array operations
on ``c``.  :func:`wedge`, :func:`ext_d`, :meth:`PForm.scaled` by a jet and
the coefficient kernel are array kernels that read ``c`` directly, with
gather/scatter plans cached per (dim, order, degrees): every jet product
goes through one batched convolution of all its terms from
``jets._mul_table`` (``_multiply``), every derivative through one gather
from ``jets._diff_table``, and every other sum through ``jets._sum_into``.
A convolution bins its pairs with one ``np.bincount`` at one point and up
to ``jets.FLAT_PRODUCT_MAX`` weights x points; past that it sums them by
rank groups (``jets._rank_sums``), gathered in chunks of at most that many
weights x points, whose indices, every term's pairs packed group by group,
a plan builds in one broadcast the first time it needs them.  The
coefficient kernel runs the wedges of beta with all complements of a frame
as one such product per truncation order, and divides by the frame's
volume in one more.  Their results are bit-equal to
the per-term ``Jet`` loops they replaced, which the tests keep as the
oracle: both paths add each target's pairs in the loop's order from +0.0,
and a factor without a derivative part gets ``Jet.__mul__``'s scaling
path.  This holds for finite, inf and NaN coefficients alike, with one
exception: which of two NaNs a product or sum keeps (its sign and payload
bits), since NumPy's own choice depends on array length and position, and
CPython's float add may keep either NaN depending on how often the line has
run (``jets._atan2_branch`` adds two NaNs of opposite sign).  Over many
points every column is bit-equal to the one-point kernel, with the same
exception, so a block and its halves give the same columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

import numpy as np

from . import expressions, jets
from .errors import BicontactError, BudgetError, SingularVolumeError
from .jets import Jet

__all__ = [
    "Chart", "PForm", "Coframe", "CoframeField",
    "wedge", "wedge_all", "ext_d", "top_ratio", "top_reciprocal",
    "two_form_coeffs", "one_form_coeffs", "scalar_d",
    "coframe_field_from_expressions", "by_block", "block_rows",
]


@dataclass
class Chart:
    """A named coordinate chart."""

    coords: tuple

    def __post_init__(self):
        self.coords = tuple(self.coords)
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("coordinate names must be distinct")

    @property
    def dim(self) -> int:
        return len(self.coords)


@lru_cache(maxsize=None)
def _keys(dim: int, degree: int) -> tuple:
    """The coefficient keys of a degree-form, in ``combinations`` order."""
    return tuple(combinations(range(dim), degree))


class PForm:
    """A p-form at a point: one float array ``c`` of shape (number of keys,
    ``jets.ncoeffs(dim, order)``), whose row r holds the Taylor coefficients
    of the r-th key in ``combinations`` order, all at one truncation
    ``order``; or at N points, with a trailing point axis, shape (keys,
    ncoeffs, N), built from many-point jets.  Forms are immutable, ``c``
    included."""

    __slots__ = ("chart", "degree", "order", "c", "_coeffs")

    def __init__(self, chart: Chart, degree: int, coeffs: dict):
        """The form with coefficient jets ``coeffs`` ({key: Jet}), each
        truncated to the lowest order among them."""
        dim = chart.dim
        keys = _keys(dim, degree)
        missing = sorted(set(keys) - set(coeffs))
        unexpected = sorted(set(coeffs) - set(keys), key=repr)
        wrong_dim = sorted(k for k, j in coeffs.items()
                           if k in keys and j.dim != dim)
        if missing or unexpected or wrong_dim or not keys:
            raise ValueError(
                f"bad coefficients for a {degree}-form on a {dim}D chart: "
                f"missing keys {missing}, unexpected keys {unexpected}, "
                f"keys whose jet is not of dim {dim} {wrong_dim}")
        order = min(j.order for j in coeffs.values())
        n = jets.ncoeffs(dim, order)
        self._fill(chart, degree, order,
                   np.array([coeffs[k].c[:n] for k in keys]))

    def _fill(self, chart, degree, order, c):
        c.flags.writeable = False
        self.chart = chart
        self.degree = degree
        self.order = order
        self.c = c
        self._coeffs = None

    @classmethod
    def _of(cls, chart, degree, order, c) -> "PForm":
        """The form on a fresh coefficient array ``c`` of the right shape,
        without re-validating it."""
        f = object.__new__(cls)
        f._fill(chart, degree, order, c)
        return f

    @property
    def coeffs(self):
        """Read-only {key: Jet} view of the rows, built on first read."""
        if self._coeffs is None:
            dim, order = self.chart.dim, self.order
            self._coeffs = MappingProxyType({
                k: Jet._of(dim, order, row)
                for k, row in zip(_keys(dim, self.degree), self.c)})
        return self._coeffs

    def _aligned(self, other):
        """The common order and both coefficient arrays truncated to it."""
        if other.degree != self.degree or other.chart.dim != self.chart.dim:
            raise ValueError("sum of forms of different degrees or charts")
        order = min(self.order, other.order)
        n = jets.ncoeffs(self.chart.dim, order)
        return order, self.c[:, :n], other.c[:, :n]

    def __add__(self, other):
        order, a, b = self._aligned(other)
        return PForm._of(self.chart, self.degree, order, a + b)

    def __sub__(self, other):
        order, a, b = self._aligned(other)
        return PForm._of(self.chart, self.degree, order, a - b)

    def __neg__(self):
        return PForm._of(self.chart, self.degree, self.order, -self.c)

    def scaled(self, s):
        """Multiply by a scalar (float or jet): bit-equal to ``j * s`` for
        each coefficient jet j."""
        if not isinstance(s, Jet):
            return PForm._of(self.chart, self.degree, self.order,
                             self.c * float(s) + 0.0)
        dim = self.chart.dim
        if s.dim != dim:
            raise ValueError("jet dimension mismatch")
        order = min(self.order, s.order)
        n = jets.ncoeffs(dim, order)
        prod = _multiply(self.c[:, :n], s.c[None, :n],
                         _scale_plan(dim, order, len(self.c)))
        return PForm._of(self.chart, self.degree, order, prod)

    def max_abs_value(self):
        """The largest |value| over the coefficients, one per point: an (N,)
        array for a form with a point axis."""
        # np.max, unlike the built-in max, lets a NaN coefficient through
        return np.max(np.abs(self.c[:, 0]), axis=0)

    def __repr__(self):
        vals = {k: np.round(jets._value(v), 6).tolist()
                for k, v in self.coeffs.items()}
        return f"PForm(degree={self.degree}, values={vals})"


class _Products:
    """Plan of ``_multiply``: term t multiplies row ``rx[t]`` of x by row
    ``ry[t]`` of y, both of ``n`` coefficients, at truncation ``order`` in
    ``dim`` variables.  ``gx`` and ``gy`` index the flattened x and y with
    the pairs of ``jets._mul_table``, term by term, and ``bins`` holds the
    flat (term, coefficient) target of each pair.  ``ranked()`` gives the
    same pairs packed by rank group for ``jets._rank_sums``, every term's
    in each group, built the first time the plan sums by them
    (``_term_groups``)."""

    __slots__ = ("dim", "order", "rx", "ry", "gx", "gy", "bins", "n",
                 "_ranked")

    def __init__(self, dim, order, rx, ry):
        n = jets.ncoeffs(dim, order)
        I, J, T = jets._mul_table(dim, order)
        self.dim, self.order, self.n = dim, order, n
        self.rx = np.asarray(rx, dtype=np.intp)
        self.ry = np.asarray(ry, dtype=np.intp)
        self.gx = (self.rx[:, None] * n + I).ravel()
        self.gy = (self.ry[:, None] * n + J).ravel()
        self.bins = (np.arange(len(self.rx))[:, None] * n + T).ravel()
        self._ranked = None

    def ranked(self):
        """``_term_groups(self)``, built on first call."""
        if self._ranked is None:
            self._ranked = _term_groups(self)
        return self._ranked


def _term_groups(plan: _Products):
    """``jets._rank_groups`` of the plan's pairs for all its terms at once,
    as ``jets._rank_sums`` takes them, in one broadcast of each index array
    over the terms: accumulator row r * terms + t holds the target of rank r
    of term t, so group s, ``terms`` times as long, holds for every term the
    s-th pair of each target, and its rows are a prefix of the accumulator.
    ``pos`` takes the rows back to (term, coefficient) order."""
    pos, I, J, sizes = jets._rank_groups(plan.dim, plan.order)
    terms = len(plan.rx)
    return ((pos * terms + np.arange(terms)[:, None]).ravel(),
            (I[:, None] + plan.rx * plan.n).ravel(),
            (J[:, None] + plan.ry * plan.n).ravel(),
            tuple(size * terms for size in sizes))


def _flat(a):
    """Coefficient rows ``a`` as one flat axis of (row, coefficient), with
    the point axis of a many-point array kept after it."""
    return a.ravel() if a.ndim == 2 else a.reshape(-1, a.shape[2])


def _per_row(col, like):
    """``col``, one value per leading index of ``like`` (shape (rows,) or
    (rows, 1)), shaped to broadcast over ``like`` and its point axis."""
    return col if col.ndim == like.ndim else col[..., None]


def _multiply(x, y, plan: _Products) -> np.ndarray:
    """The products of the rows of x and y that ``plan`` pairs, one row per
    term, each bit-equal to ``Jet.__mul__`` of the two rows as jets.

    All terms run as one convolution, in which each term sums its pairs in
    ``_mul_table`` order from +0.0 into its own output row, as one
    ``Jet.__mul__`` does, and at each point where x and y carry a point
    axis.  At one point, and while its weights (terms x pairs) x points
    stay at or below ``jets.FLAT_PRODUCT_MAX``, one ``np.bincount`` bins
    them (``jets._sum_into``); past it, where those bins outgrow the cache,
    ``jets._rank_sums`` sums them by the rank groups of ``plan.ranked()``.
    Where a factor has no derivative part, ``jets._scaling_where_nan``
    takes ``Jet.__mul__``'s scaling path instead."""
    n, terms = plan.n, len(plan.rx)
    if x.ndim == 3 and len(plan.gx) * x.shape[2] > jets.FLAT_PRODUCT_MAX:
        out = jets._rank_sums(_flat(x), _flat(y), *plan.ranked())
        out = out.reshape(terms, n, x.shape[2])
    else:
        w = _flat(x)[plan.gx]
        w *= _flat(y)[plan.gy]
        out = jets._sum_into(plan.bins, w, (terms, n))
    return jets._scaling_where_nan(out, lambda: (x[plan.rx], y[plan.ry]), 1)


@lru_cache(maxsize=None)
def _scale_plan(dim, order, rows) -> _Products:
    """Products of each of ``rows`` rows with one jet (row 0 of y)."""
    return _Products(dim, order, range(rows), [0] * rows)


@lru_cache(maxsize=None)
def _wedge_terms(dim, p, q):
    """The terms of the wedge of a p-form a and a q-form b, in the order of
    the loop over the keys of a, then of b: the rows ``ra`` of a and ``rb``
    of b, the output row ``ro`` and the merge sign of each."""
    slot = {k: r for r, k in enumerate(_keys(dim, p + q))}
    ra, rb, ro, sign = [], [], [], []
    for i, ka in enumerate(_keys(dim, p)):
        for j, kb in enumerate(_keys(dim, q)):
            if set(ka) & set(kb):
                continue
            ra.append(i)
            rb.append(j)
            ro.append(slot[tuple(sorted(ka + kb))])
            sign.append(_perm_sign(ka + kb))
    return ra, rb, ro, sign


def _scatter(rows, n):
    """Flat (row, coefficient) targets of whole rows of n coefficients."""
    return (np.asarray(rows)[:, None] * n + np.arange(n)).ravel()


@lru_cache(maxsize=None)
def _wedge_plan(dim, order, p, q):
    """Plan of ``wedge`` of a p-form and a q-form at truncation order
    ``order``: the products of its terms, their signs as a column, and the
    flat (output key, coefficient) target of every term coefficient."""
    ra, rb, ro, sign = _wedge_terms(dim, p, q)
    return (_Products(dim, order, ra, rb), np.asarray(sign)[:, None],
            _scatter(ro, jets.ncoeffs(dim, order)))


def wedge(a: PForm, b: PForm) -> PForm:
    """a ^ b, bit-equal to summing ``(ja * jb) * sign`` term by term, in the
    order of a's keys and then b's, into zero jets of the common order."""
    if a.chart is not b.chart and a.chart != b.chart:
        raise ValueError("wedge of forms on different charts")
    deg = a.degree + b.degree
    if deg > a.chart.dim:
        raise ValueError(f"wedge degree {deg} exceeds chart dimension")
    order = min(a.order, b.order)
    dim = a.chart.dim
    n = jets.ncoeffs(dim, order)
    products, sign, out_bins = _wedge_plan(dim, order, a.degree, b.degree)
    prod = _multiply(a.c[:, :n], b.c[:, :n], products)
    out = jets._sum_into(out_bins, _flat(prod * _per_row(sign, prod)),
                         (len(_keys(dim, deg)), n))
    return PForm._of(a.chart, deg, order, out)


def wedge_all(*forms):
    acc = forms[0]
    for f in forms[1:]:
        acc = wedge(acc, f)
    return acc


@lru_cache(maxsize=None)
def _ext_d_plan(dim, order, degree):
    """Gather/scatter plan of ``ext_d`` for a degree-form at truncation order
    ``order``: per term (key, axis), in the loop's order, the flat source
    index into the coefficient array, the factor ``jets._diff_table`` gives
    times the sign, and the flat (output key, coefficient) target.  With the
    sign s = +-1 on the factor f, x * (f * s) equals the loop's (x * f) * s
    bit for bit."""
    slot = {k: r for r, k in enumerate(_keys(dim, degree + 1))}
    n_hi, n_lo = jets.ncoeffs(dim, order), jets.ncoeffs(dim, order - 1)
    src, fac, dst = [], [], []
    for r, key in enumerate(_keys(dim, degree)):
        for axis in range(dim):
            if axis in key:
                continue
            pos = sum(1 for k in key if k < axis)
            s, d, f = jets._diff_table(dim, order, axis)
            src.append(r * n_hi + s)
            fac.append(f * (-1.0 if pos % 2 else 1.0))
            dst.append(slot[tuple(sorted(key + (axis,)))] * n_lo + d)
    return np.concatenate(src), np.concatenate(fac), np.concatenate(dst)


def ext_d(a: PForm, stage: str = "ext_d") -> PForm:
    """Exterior derivative; consumes one derivative-order level.

    Bit-equal to summing ``jets.partial(j, axis) * sign`` term by term into
    zero jets, in the order of a's keys and then the axes."""
    if a.order < 1:
        raise BudgetError(stage)
    if a.degree == a.chart.dim:
        # top degree: derivative is 0-dimensional, not representable; callers
        # never need it, but guard with a clear message anyway
        raise ValueError("exterior derivative of a top-degree form")
    order = a.order
    dim = a.chart.dim
    src, fac, dst = _ext_d_plan(dim, order, a.degree)
    terms = _flat(a.c)[src]
    rows = len(_keys(dim, a.degree + 1))
    out = jets._sum_into(dst, terms * _per_row(fac, terms),
                         (rows, jets.ncoeffs(dim, order - 1)))
    return PForm._of(a.chart, a.degree + 1, order - 1, out)


def top_ratio(a: PForm, b: PForm) -> Jet:
    """The scalar (as a jet) with a = ratio * b, for top-degree forms."""
    dim = a.chart.dim
    if a.degree != dim or b.degree != dim:
        raise ValueError("top_ratio needs top-degree forms")
    num = a.coeffs[tuple(range(dim))]
    return num * top_reciprocal(b, num.order)


def top_reciprocal(b: PForm, order: int) -> Jet:
    """The reciprocal of a top-degree form's coefficient at ``order``, or at
    b's own order if that is lower, truncated before inverting, by which
    ``top_ratio`` multiplies: ratios over one b can share it.  Raises
    SingularVolumeError at the first point where the coefficient is not
    finite or is zero."""
    dim = b.chart.dim
    if b.degree != dim:
        raise ValueError("top_reciprocal needs a top-degree form")
    denom = b.coeffs[tuple(range(dim))]
    _check_denominator(denom)
    return jets.reciprocal(denom.truncate(min(order, denom.order)))


def _check_denominator(denom: Jet):
    """SingularVolumeError at the first point where the volume coefficient
    is not finite or is zero."""
    for value in jets._values(denom):
        if not math.isfinite(value):
            raise SingularVolumeError(
                f"volume-form denominator {value!r} is non-finite")
        if value == 0.0:
            raise SingularVolumeError(
                f"volume-form denominator {value!r} is numerically zero")


# ---------------------------------------------------------------------------
# coframes

@dataclass
class Coframe:
    """dim independent 1-forms at each of N base points: ``point`` holds
    one (N,) array per coordinate, and every form a point axis."""

    chart: Chart
    point: tuple
    forms: tuple
    eps: int | np.ndarray | None = None     # an int, or one per column
    stage: str = "raw"
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def _cached(self, key, build):
        """The memo entry ``key``, built by ``build()`` on first use.  Every
        datum derived from the frame is kept here, the pipeline's too;
        callers must not mutate it."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def omega(self, i: int) -> PForm:
        """1-based accessor matching the usual superscript numbering."""
        return self.forms[i - 1]

    @property
    def dim(self):
        return self.chart.dim

    def _wedge(self, idx: tuple) -> PForm:
        """Cached wedge of the covectors ``idx`` in order, built from the
        cached wedge of ``idx[:-1]``, so frames share prefixes; bit-equal to
        ``wedge_all`` of them, which associates the same way."""
        if len(idx) == 1:
            return self.forms[idx[0]]
        return self._cached(("wedge", idx), lambda: wedge(
            self._wedge(idx[:-1]), self.forms[idx[-1]]))

    def volume(self) -> PForm:
        """Cached omega^1 ^ ... ^ omega^dim."""
        return self._wedge(tuple(range(self.dim)))

    def replace(self, **kw):
        """A copy with the fields in ``kw``; it keeps the memo's d of each
        covector that stays the same object."""
        out = Coframe(**(dict(chart=self.chart, point=self.point,
                              forms=self.forms, eps=self.eps,
                              stage=self.stage) | kw))
        for i, (new, old) in enumerate(zip(out.forms, self.forms)):
            if new is old and ("d", i) in self._memo:
                out._memo["d", i] = self._memo["d", i]
        return out

    def _volume_reciprocal(self, order: int) -> Jet:
        """Cached ``top_reciprocal`` of the volume at ``order``."""
        return self._cached(("reciprocal", order),
                            lambda: top_reciprocal(self.volume(), order))

    def ratio(self, top: PForm) -> Jet:
        """The jet r with top = r * volume() for a top-degree form: bit-equal
        to ``top_ratio(top, self.volume())``, with the cached reciprocal."""
        dim = self.dim
        if top.degree != dim:
            raise ValueError("ratio needs a top-degree form")
        num = top.coeffs[tuple(range(dim))]
        return num * self._volume_reciprocal(num.order)

    def d(self, i: int, stage: str = "ext_d") -> PForm:
        """Cached ``ext_d(forms[i])``, the 2-form d(omega^(i+1)).  ``stage``
        only labels a BudgetError on a cache miss: a later call on the same
        covector can fail only where the first one did."""
        return self._cached(("d", i), lambda: ext_d(self.forms[i], stage=stage))

    def d_coeffs(self, i: int, stage: str = "ext_d") -> dict:
        """Cached ``two_form_coeffs(self.d(i), self)``: the structure
        functions of the 0-based covector i."""
        return self._cached(("d coeffs", i), lambda: two_form_coeffs(
            self.d(i, stage), self))

    def _complement_rows(self, p: int, order: int):
        """Cached batches of the coefficient kernel for a p-form of truncation
        order ``order``: the keys of ``_complements(p)`` grouped by the order
        of beta ^ rest, with per group that order, its keys, the coefficient
        rows of its rests stacked key by key, and its signs as a column."""
        def build():
            groups = {}
            for key, (sign, rest) in self._complements(p).items():
                groups.setdefault(min(order, rest.order), []).append(
                    (key, sign, rest))
            out = []
            for low, members in groups.items():
                n = jets.ncoeffs(self.dim, low)
                out.append((low, tuple(m[0] for m in members),
                            np.concatenate([m[2].c[:, :n] for m in members]),
                            np.array([[m[1]] for m in members])))
            return out
        return self._cached(("complement rows", p, order), build)

    def _complements(self, p: int):
        """Cached {key: (sign, rest)} over the degree-p keys, with
        omega^key ^ rest = sign * volume(), rest the cached ``_wedge`` of the
        other covectors in order."""
        def build():
            out = {}
            for key in _keys(self.dim, p):
                comp = tuple(i for i in range(self.dim) if i not in key)
                out[key] = (_perm_sign(key + comp), self._wedge(comp))
            return out
        return self._cached(("complements", p), build)


# columns per block of ``CoframeField.blocks``.  The whole list is built as
# one frame and sliced, so this caps only the later stages, whose passes cost
# mostly fixed NumPy call overhead: at 128 in place of 32, cold,
# ``curvature normal_form_3d`` took 33 ms in place of 45 at 100 points and
# 219 in place of 305 at 1,000, and ``normal-form tan(z) --order 3`` 153 in
# place of 201 at 2,000, whose 200-point list peaked at 35.5 MB in place of
# 33.6 (BENCH_31.json)
STACK_BLOCK = 128
# what a many-point build or pass may raise where some point fails; the
# build then goes point by point, and the pass by halves (``by_block``)
_POINT_ERRORS = (BicontactError, ArithmeticError, ValueError,
                 jets._MixedBranches)


class CoframeField:
    """A chart-level family of raw coframes.  ``builder(x, order)`` builds
    the stacked :class:`Coframe` at coordinate values ``x``, an (N,) array
    per coordinate for N points, with ``x`` as its ``point``.
    ``at(point, order)`` is the frame at one point, a stack of one, and
    ``blocks(points, order)`` yields the frames at a sample list stacked."""

    def __init__(self, chart, builder):
        self.chart = chart
        self._builder = builder

    def at(self, point, order) -> Coframe:
        return self._builder(_coordinates([tuple(float(x) for x in point)]),
                             int(order))

    def blocks(self, points, order):
        """An iterator over the frames at ``points`` in sample order, built
        as one stacked frame at the first step and handed out as slices of
        ``STACK_BLOCK`` columns, the last one shorter.  Where that build
        raises on two points or more, each point is built as a stack of one
        (``at``) as it is reached, so a caller that runs a stage on each
        block meets the first failing point's error before a later frame is
        built."""
        return self._blocks([tuple(float(x) for x in p) for p in points],
                            int(order))

    def _blocks(self, points, order):
        # the generator of ``blocks``, which stays a plain call: a profiler
        # counts every step of a generator as one more call
        try:
            frame = self._builder(_coordinates(points), order)
        except _POINT_ERRORS if len(points) > 1 else ():
            for p in points:
                yield self.at(p, order)
            return
        for start in range(0, len(points), STACK_BLOCK):
            yield _columns(frame, start, start + STACK_BLOCK)


def _coordinates(points) -> tuple:
    """The coordinate values of a list of points: one (N,) array per
    coordinate."""
    return tuple(np.array(x) for x in zip(*points))


def _columns(frame, start, stop) -> Coframe:
    """Columns ``start`` to ``stop`` of a stacked frame as a stacked frame of
    its own, with its stage, its eps (the columns' own where it holds one
    per column) and an empty memo."""
    cols = slice(start, stop)
    eps = frame.eps[cols] if isinstance(frame.eps, np.ndarray) else frame.eps
    return Coframe(
        frame.chart, tuple(x[cols] for x in frame.point),
        tuple(PForm._of(f.chart, f.degree, f.order, f.c[..., cols].copy())
              for f in frame.forms),
        eps=eps, stage=frame.stage)


def by_block(blocks, stage):
    """An iterator over (frame, ``stage(frame)``) for the stacked frames
    ``blocks``, in order, each stage run once per block.  Where a block's
    pass raises, its first half runs, then its second, each the same way,
    so a part that raises is halved again down to a stack of one, which
    raises as it is.  The first failing point thus raises its own type and
    text after about 2 log2(N) passes over a block of N columns, every
    column before it yielded in order, in parts; a block that raises only
    as a whole yields every column."""
    return (out for block in blocks for out in _halving(block, stage))


def _halving(block, stage):
    try:
        results = [(block, stage(block))]
    except _POINT_ERRORS:
        n = len(block.point[0])
        if n == 1:
            raise
        results = (out for start, stop in ((0, n // 2), (n // 2, n))
                   for out in _halving(_columns(block, start, stop), stage))
    yield from results


def block_rows(points, blocks, body):
    """An iterator over ``points`` in order, each paired with its row of
    ``body``'s table, which runs once per stacked frame of ``blocks``
    (:func:`by_block`).  It returns a dict whose values are (N,) arrays,
    lists of N values or such dicts; a point's row holds its column of
    each, arrays read as Python scalars.  Where a pass raises, the rows
    before the failing point come first."""
    return _block_rows(iter(points), by_block(blocks, body))


def _block_rows(points, tables):
    for _, table in tables:
        for row in _rows(table):
            yield next(points), row


def _rows(table: dict) -> list:
    """One dict per column of ``table``, nested dicts included."""
    columns = [_rows(v) if isinstance(v, dict)
               else v.tolist() if isinstance(v, np.ndarray) else v
               for v in table.values()]
    return [dict(zip(table, row)) for row in zip(*columns)]


def coframe_field_from_expressions(chart: Chart, rows, params=None):
    """Build a raw CoframeField from per-coordinate coefficient expressions.

    ``rows`` is a sequence (one per coframe covector) of mappings
    {coordinate name or "d"+name: expression string or AST}; missing
    coordinates mean a zero coefficient.  Every coefficient is a root of
    one tape, which a build runs once over all its points.
    """
    params = params or {}
    names = list(chart.coords)
    compiled = []
    for row in rows:
        crow = {}
        for cname, expr in row.items():
            if cname not in names and cname.startswith("d") and cname[1:] in names:
                cname = cname[1:]
            if cname not in names:
                raise ValueError(f"unknown coefficient key {cname!r} for chart "
                                 f"coordinates {tuple(names)}")
            if isinstance(expr, str):
                expr = expressions.parse(expr, names, list(params))
            crow[names.index(cname)] = expr
        compiled.append(crow)
    tape = expressions.Tape([crow[axis] for crow in compiled
                             for axis in sorted(crow)])

    def build(x, order):
        zero = Jet.constant(np.zeros(np.shape(x[0])), chart.dim, order)
        values = iter(tape.run(x, order, names, params))
        return Coframe(chart, x, tuple(
            PForm(chart, 1, {(axis,): next(values) if axis in crow else zero
                             for axis in range(chart.dim)})
            for crow in compiled))

    return CoframeField(chart, build)


# ---------------------------------------------------------------------------
# coefficient extraction against a coframe

def _frame_coeffs(beta: PForm, frame: Coframe, p: int) -> dict:
    """{key: b_key} with beta = sum_key b_key omega^key over the degree-p
    keys, for a p-form beta and 1 <= p < dim.  Each coefficient is bit-equal
    to ``frame.ratio(wedge(beta, rest)) * sign`` over ``frame._complements``:
    per truncation order of beta ^ rest, the terms of every such wedge run as
    one batched product, and their top coefficients as one more against the
    frame's cached volume reciprocal."""
    dim = frame.dim
    if beta.degree != p or not 0 < p < dim:
        raise ValueError(f"expected a {p}-form on a chart of dim > {p}, "
                         f"got a {beta.degree}-form on a {dim}D chart")
    out = {}
    for order, keys, rests, signs in frame._complement_rows(p, beta.order):
        n = jets.ncoeffs(dim, order)
        products, term_sign, bins = _coeffs_plan(dim, p, order, len(keys))
        prod = _multiply(beta.c[:, :n], rests, products)
        top = jets._sum_into(bins, _flat(prod * _per_row(term_sign, prod)),
                             (len(keys), n))
        recip = frame._volume_reciprocal(order)
        m = jets.ncoeffs(dim, recip.order)
        coeffs = _multiply(top[:, :m], recip.c[None],
                           _scale_plan(dim, recip.order, len(keys)))
        coeffs = coeffs * _per_row(signs, coeffs) + 0.0
        out.update((key, Jet._of(dim, recip.order, row))
                   for key, row in zip(keys, coeffs))
    return {key: out[key] for key in _keys(dim, p)}


@lru_cache(maxsize=None)
def _coeffs_plan(dim, p, order, count):
    """Plan of ``_frame_coeffs`` for ``count`` complements of degree-p keys at
    truncation order ``order``: the terms of beta ^ rest for each complement
    in turn, with the rests' rows stacked in that order, their signs as a
    column, and the flat (complement, coefficient) target of every term
    coefficient."""
    ra, rb, _, sign = _wedge_terms(dim, p, dim - p)
    size = len(_keys(dim, dim - p))
    return (_Products(dim, order, ra * count,
                      [r + size * k for k in range(count) for r in rb]),
            np.tile(sign, count)[:, None],
            _scatter(np.repeat(np.arange(count), len(ra)),
                     jets.ncoeffs(dim, order)))


def two_form_coeffs(beta: PForm, frame: Coframe) -> dict:
    """Coefficients b[(a,b)] with beta = sum_{a<b} b[(a,b)] omega^a ^ omega^b.

    In 3D, ``c[(1, 2)], c[(0, 2)], c[(0, 1)]`` are (b23, b13, b12).  The
    complement kernel ``_frame_coeffs`` at degree 2."""
    return _frame_coeffs(beta, frame, 2)


def one_form_coeffs(a: PForm, frame: Coframe) -> list:
    """Coefficients a_i with a = sum_i a_i omega^i (jets), in axis order:
    the complement kernel ``_frame_coeffs`` at degree 1, so a_i is
    ``frame.ratio(wedge(a, rest)) * sign`` with rest the wedge of the other
    covectors."""
    coeffs = _frame_coeffs(a, frame, 1)
    return [coeffs[(i,)] for i in range(frame.dim)]


def _perm_sign(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1.0 if inv % 2 else 1.0


def scalar_d(chart: Chart, f: Jet, stage: str = "scalar_d") -> PForm:
    """The differential of a scalar jet as a 1-form (costs one order level):
    ``ext_d`` of the 0-form f.  Its coefficients in a coframe,
    ``one_form_coeffs(scalar_d(chart, f), frame)``, are the frame derivatives
    of f, read off the complement ratios."""
    return ext_d(PForm(chart, 0, {(): f}), stage=stage)

