"""Point-local exterior calculus on a coordinate chart.

A :class:`PForm` is a p-form *at one base point*: its coefficients (one per
strictly increasing coordinate index tuple) are jets, so it carries enough
derivative information for repeated exterior differentiation.  Chart-level
families of coframes are :class:`CoframeField`s: a raw field builds a
point-local :class:`Coframe` on demand from closed-form coefficient
expressions, and a pipeline driver's field holds the frames it built at its
sample points.

Every structure-equation check in the pipeline reduces to wedge products,
exterior derivatives, and top-form ratios of these objects.  A coframe keeps
the data derived from it in one memo: :meth:`Coframe.d` is the one place the
exterior derivative of a frame's own covector is taken, and
:meth:`Coframe.d_coeffs` expands it in the frame.  :meth:`Coframe.ratio`
divides a top-degree form by the frame's volume through the cached
reciprocal.  :func:`scalar_d` is :func:`ext_d` of a 0-form, so ``ext_d`` is
the only differentiation kernel here, and a scalar's derivatives along the
dual frame vectors are ``one_form_coeffs(scalar_d(chart, f), frame)``.

:func:`wedge` and :func:`ext_d` are array kernels.  They stack the input
coefficients, truncated to the common order, into one array and run a
gather/scatter plan cached per (dim, order, key order of each input): one
batched convolution from ``jets._mul_table`` (or one gather from
``jets._diff_table``) and ``np.bincount`` sums, with a ``Jet`` built only for
each output coefficient.  Their results are bit-equal to the per-term ``Jet``
loops they replaced, which the tests keep as the oracle: ``np.bincount`` adds
in input order, so every sum runs in the loop's order, and a wedge factor
without a derivative part takes ``Jet.__mul__``'s scaling path.  This holds
for finite coefficients at any mix of orders, and for inf and NaN entries
when each form's coefficients share one order.  The one exception is which
of two NaNs a product or sum keeps (its sign and payload bits): NumPy's own
choice depends on array length and position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

import numpy as np

from . import expressions, jets
from .errors import BudgetError, SingularVolumeError
from .jets import Jet

__all__ = [
    "Chart", "PForm", "Coframe", "CoframeField",
    "wedge", "wedge_all", "ext_d", "top_ratio",
    "two_form_coeffs", "one_form_coeffs", "scalar_d",
    "coframe_field_from_expressions",
]


@dataclass
class Chart:
    """A named coordinate chart with an optional parameter table."""

    coords: tuple
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coords = tuple(self.coords)
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("coordinate names must be distinct")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def coordinate_jets(self, point, order):
        return [Jet.variable(float(point[i]), i, self.dim, order)
                for i in range(self.dim)]


class PForm:
    """A p-form at a point with jet coefficients."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart: Chart, degree: int, coeffs: dict):
        self.chart = chart
        self.degree = degree
        self.coeffs = coeffs
        expect = list(combinations(range(chart.dim), degree))
        if sorted(coeffs) != expect:
            missing = set(expect) - set(coeffs)
            raise ValueError(f"bad coefficient slots (missing {missing})")

    @classmethod
    def zero(cls, chart, degree, order):
        dim = chart.dim
        z = {k: Jet.constant(0.0, dim, order)
             for k in combinations(range(dim), degree)}
        return cls(chart, degree, z)

    @classmethod
    def d_coord(cls, chart, axis, order):
        """The coordinate 1-form dx_axis (constant coefficients)."""
        f = cls.zero(chart, 1, order)
        f.coeffs[(axis,)] = Jet.constant(1.0, chart.dim, order)
        return f

    @property
    def order(self) -> int:
        return min(j.order for j in self.coeffs.values())

    def map_coeffs(self, fn):
        return PForm(self.chart, self.degree,
                     {k: fn(v) for k, v in self.coeffs.items()})

    def __add__(self, other):
        return PForm(self.chart, self.degree,
                     {k: self.coeffs[k] + other.coeffs[k] for k in self.coeffs})

    def __sub__(self, other):
        return PForm(self.chart, self.degree,
                     {k: self.coeffs[k] - other.coeffs[k] for k in self.coeffs})

    def __neg__(self):
        return self.map_coeffs(lambda j: -j)

    def scaled(self, s):
        """Multiply by a scalar (float or jet)."""
        return self.map_coeffs(lambda j: j * s)

    def max_abs_value(self) -> float:
        # np.max, unlike the built-in max, lets a NaN coefficient through
        return float(np.max(np.abs([j.value for j in self.coeffs.values()])))

    def __repr__(self):
        vals = {k: round(v.value, 6) for k, v in self.coeffs.items()}
        return f"PForm(degree={self.degree}, values={vals})"


def _stacked(forms, n: int) -> np.ndarray:
    """The coefficients of the forms as rows, in dict order, truncated to n
    (a prefix slice, because the coefficient order is graded)."""
    return np.array([j.c[:n] for f in forms for j in f.coeffs.values()])


def _output(chart, degree, order, keys, rows) -> PForm:
    return PForm(chart, degree, {k: Jet(chart.dim, order, r)
                                 for k, r in zip(keys, rows)})


# Flat entries per convolution batch in ``wedge``.  Larger temporaries cost
# more in fresh memory pages than the batching saves (dim 4, order 6).
_BATCH = 8192


@lru_cache(maxsize=None)
def _wedge_plan(dim, order, keys_a, keys_b):
    """Gather/scatter plan of ``wedge`` for inputs with these coefficient keys
    (in dict order) at truncation order ``order``.

    Its terms run in the order of the loop over the keys of a, then of b, with
    rows ``ra`` and ``rb`` of the coefficients of a and b stacked in that
    order, and merge ``sign``.  Per term, ``gather_a`` and ``gather_b`` index
    the flattened stack with the pairs of ``jets._mul_table``, and
    ``conv_bins`` holds their flat (term, coefficient) targets; ``out_bins``
    flattens (output key, coefficient) for every term coefficient."""
    out_keys = tuple(combinations(range(dim), len(keys_a[0]) + len(keys_b[0])))
    slot = {k: r for r, k in enumerate(out_keys)}
    ra, rb, ro, sign = [], [], [], []
    for i, ka in enumerate(keys_a):
        for j, kb in enumerate(keys_b, start=len(keys_a)):
            if set(ka) & set(kb):
                continue
            ra.append(i)
            rb.append(j)
            ro.append(slot[tuple(sorted(ka + kb))])
            sign.append(_perm_sign(ka + kb))
    n = jets.ncoeffs(dim, order)
    I, J, T = jets._mul_table(dim, order)
    ra, rb = np.asarray(ra), np.asarray(rb)

    def flat(rows, cols):
        return (rows[:, None] * n + cols).ravel()

    return (out_keys, ra, rb, np.asarray(sign)[:, None], flat(ra, I),
            flat(rb, J), flat(np.arange(len(ra)), T),
            flat(np.asarray(ro), np.arange(n)))


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
    (out_keys, ra, rb, sign, gather_a, gather_b, conv_bins,
     out_bins) = _wedge_plan(dim, order, tuple(a.coeffs), tuple(b.coeffs))
    n = jets.ncoeffs(dim, order)
    stack = _stacked((a, b), n)
    flat = stack.ravel()
    pairs = len(conv_bins) // len(ra)
    step = max(1, _BATCH // pairs) * pairs
    prod = np.empty(len(ra) * n)
    for s in range(0, len(conv_bins), step):
        w = flat[gather_a[s:s + step]]
        w *= flat[gather_b[s:s + step]]
        size = len(w) // pairs * n
        lo = s // pairs * n
        prod[lo:lo + size] = np.bincount(conv_bins[:len(w)], weights=w,
                                         minlength=size)
    prod = prod.reshape(len(ra), n)
    # A factor without a derivative part takes Jet.__mul__'s scaling path,
    # which differs from the convolution only for inf and NaN entries.  The
    # "+ 0.0" of Jet.__mul__ is left out here and below: the sums start from
    # +0.0, which turns a -0.0 term into +0.0 all the same.
    live = stack[:, 1:].any(axis=1)
    if not live.all():
        ga, gb = stack[ra], stack[rb]
        prod = np.where(~live[rb, None], ga * gb[:, :1],
                        np.where(~live[ra, None], gb * ga[:, :1], prod))
    out = np.bincount(out_bins, weights=(prod * sign).ravel(),
                      minlength=len(out_keys) * n)
    return _output(a.chart, deg, order, out_keys,
                   out.reshape(len(out_keys), n))


def wedge_all(*forms):
    acc = forms[0]
    for f in forms[1:]:
        acc = wedge(acc, f)
    return acc


@lru_cache(maxsize=None)
def _ext_d_plan(dim, order, keys):
    """Gather/scatter plan of ``ext_d`` for a form with these coefficient keys
    (in dict order) at truncation order ``order``: per term (key, axis), in
    the loop's order, the flat source index into the stacked coefficients,
    the factor ``jets._diff_table`` gives times the sign, and the flat
    (output key, coefficient) target.  With the sign s = +-1 on the factor f,
    x * (f * s) equals the loop's (x * f) * s bit for bit."""
    out_keys = tuple(combinations(range(dim), len(keys[0]) + 1))
    slot = {k: r for r, k in enumerate(out_keys)}
    n_hi, n_lo = jets.ncoeffs(dim, order), jets.ncoeffs(dim, order - 1)
    src, fac, dst = [], [], []
    for r, key in enumerate(keys):
        for axis in range(dim):
            if axis in key:
                continue
            pos = sum(1 for k in key if k < axis)
            s, d, f = jets._diff_table(dim, order, axis)
            src.append(r * n_hi + s)
            fac.append(f * (-1.0 if pos % 2 else 1.0))
            dst.append(slot[tuple(sorted(key + (axis,)))] * n_lo + d)
    return (out_keys, np.concatenate(src), np.concatenate(fac),
            np.concatenate(dst))


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
    out_keys, src, fac, dst = _ext_d_plan(dim, order, tuple(a.coeffs))
    n = jets.ncoeffs(dim, order - 1)
    vals = _stacked((a,), jets.ncoeffs(dim, order)).ravel()[src] * fac
    out = np.bincount(dst, weights=vals, minlength=len(out_keys) * n)
    return _output(a.chart, a.degree + 1, order - 1, out_keys,
                   out.reshape(len(out_keys), n))


def top_ratio(a: PForm, b: PForm) -> Jet:
    """The scalar (as a jet) with a = ratio * b, for top-degree forms."""
    dim = a.chart.dim
    if a.degree != dim or b.degree != dim:
        raise ValueError("top_ratio needs top-degree forms")
    key = tuple(range(dim))
    denom = b.coeffs[key]
    _check_denominator(denom)
    return a.coeffs[key] / denom


def _check_denominator(denom: Jet):
    if denom.value == 0.0 or not np.isfinite(denom.value):
        raise SingularVolumeError(
            f"volume-form denominator {denom.value!r} is numerically zero")


# ---------------------------------------------------------------------------
# coframes

@dataclass
class Coframe:
    """A point-local coframe: dim independent 1-forms at one base point."""

    chart: Chart
    point: tuple
    forms: tuple
    eps: int | None = None
    delta: int = 1
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

    def volume(self) -> PForm:
        """Cached omega^1 ^ ... ^ omega^dim."""
        return self._cached("volume", lambda: wedge_all(*self.forms))

    def replace(self, **kw):
        d = dict(chart=self.chart, point=self.point, forms=self.forms,
                 eps=self.eps, delta=self.delta, stage=self.stage)
        d.update(kw)
        return Coframe(**d)

    def coefficient_matrix(self):
        """W with omega^i = sum_j W[i][j] dx^j (jet entries)."""
        return [[self.forms[i].coeffs[(j,)] for j in range(self.dim)]
                for i in range(self.dim)]

    def dual_matrix(self):
        """Cached inverse of the coefficient matrix (columns = frame vectors)."""
        return self._cached("dual", lambda: jets.jet_matrix_inverse(
            self.coefficient_matrix()))

    def _volume_reciprocal(self, order: int) -> Jet:
        """Cached reciprocal of the volume coefficient at ``order``, or at the
        volume's own order if that is lower, truncated before inverting as
        ``top_ratio`` does.  Raises SingularVolumeError where ``top_ratio``
        would."""
        def build():
            denom = self.volume().coeffs[tuple(range(self.dim))]
            _check_denominator(denom)
            return jets.reciprocal(denom.truncate(min(order, denom.order)))
        return self._cached(("reciprocal", order), build)

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

    def _complements(self):
        """Cached {(a, b): (sign, rest)} with omega^a ^ omega^b ^ rest =
        sign * volume(), rest the wedge of the other covectors in order."""
        def build():
            out = {}
            for pair in combinations(range(self.dim), 2):
                comp = tuple(i for i in range(self.dim) if i not in pair)
                rest = self.forms[comp[0]]
                for c in comp[1:]:
                    rest = wedge(rest, self.forms[c])
                out[pair] = (_perm_sign(pair + comp), rest)
            return out
        return self._cached("complements", build)


def _frame_key(point, order):
    return tuple(float(x) for x in point), int(order)


class CoframeField:
    """A chart-level family of coframes, served by a builder or a frame map.

    A raw field has a ``builder(point, order)`` that returns a
    :class:`Coframe` at any point.  Stage, epsilon and delta describe the
    family as a whole.

    A pipeline driver passes ``builder=None`` and ``frames``, a map from
    ``(point, order)`` to the frame it built and checked at each of its own
    sample points, at its own order.  The map is read-only, and callers must
    not mutate the frames.  Asking such a field for any other point or order
    raises ``KeyError``: the region-wide checks of the driver (constant
    epsilon, constant branch, the detected case) covered only its samples.
    """

    def __init__(self, chart, builder, eps=None, delta=1, stage="raw",
                 frames=None):
        self.chart = chart
        self._builder = builder
        self.eps = eps
        self.delta = delta
        self.stage = stage
        self.frames = MappingProxyType(
            {_frame_key(p, o): cf for (p, o), cf in (frames or {}).items()})

    def at(self, point, order) -> Coframe:
        key = _frame_key(point, order)
        kept = self.frames.get(key)
        if kept is not None:
            return kept
        if self._builder is None:
            raise KeyError(f"the {self.stage} field keeps no frame at point "
                           f"{key[0]} and order {key[1]}")
        return self._builder(*key)


def coframe_field_from_expressions(chart: Chart, rows, params=None, stage="raw"):
    """Build a raw CoframeField from per-coordinate coefficient expressions.

    ``rows`` is a sequence (one per coframe covector) of mappings
    {coordinate name or "d"+name: expression string or AST}; missing
    coordinates mean a zero coefficient.
    """
    params = dict(chart.params if params is None else params)
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

    def build(point, order):
        forms = []
        for crow in compiled:
            f = PForm.zero(chart, 1, order)
            for axis, ast in crow.items():
                f.coeffs[(axis,)] = expressions.eval_jet(
                    ast, point, order, names, params)
            forms.append(f)
        return Coframe(chart, point, tuple(forms), stage=stage)

    return CoframeField(chart, build, stage=stage)


# ---------------------------------------------------------------------------
# coefficient extraction against a coframe

def two_form_coeffs(beta: PForm, frame: Coframe) -> dict:
    """Coefficients b[(a,b)] with beta = sum_{a<b} b[(a,b)] omega^a ^ omega^b.

    Works in any chart dimension via complements and permutation parity.
    In 3D, ``c[(1, 2)], c[(0, 2)], c[(0, 1)]`` are (b23, b13, b12).  Each
    coefficient is ``frame.ratio(beta ^ rest) * sign``.
    """
    return {pair: frame.ratio(wedge(beta, rest)) * sign
            for pair, (sign, rest) in frame._complements().items()}


def _perm_sign(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1.0 if inv % 2 else 1.0


def one_form_coeffs(a: PForm, frame: Coframe):
    """Coefficients a_i with a = sum_i a_i omega^i (jets)."""
    dim = frame.dim
    Winv = frame.dual_matrix()
    v = [a.coeffs[(j,)] for j in range(dim)]
    out = []
    for i in range(dim):
        acc = Winv[0][i] * v[0]
        for j in range(1, dim):
            acc = acc + Winv[j][i] * v[j]
        out.append(acc)
    return out


def scalar_d(chart: Chart, f: Jet, stage: str = "scalar_d") -> PForm:
    """The differential of a scalar jet as a 1-form (costs one order level):
    ``ext_d`` of the 0-form f.  Its coefficients in a coframe,
    ``one_form_coeffs(scalar_d(chart, f), frame)``, are the derivatives of f
    along the dual frame vectors."""
    return ext_d(PForm(chart, 0, {(): f}), stage=stage)

