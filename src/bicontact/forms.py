"""Point-local exterior calculus on a coordinate chart.

A :class:`PForm` is a p-form *at one base point*: its coefficients (one per
strictly increasing coordinate index tuple) are jets, so it carries enough
derivative information for repeated exterior differentiation.  Chart-level
objects — families of coframes defined by closed-form coefficient
expressions or by composed transforms — are :class:`CoframeField`s, which
build a point-local :class:`Coframe` on demand.

Every structure-equation check in the pipeline reduces to wedge products,
exterior derivatives, and top-form ratios of these objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType

import numpy as np

from . import expressions, jets
from .errors import BudgetError, SingularVolumeError
from .jets import Jet

__all__ = [
    "Chart", "PForm", "Coframe", "CoframeField",
    "wedge", "wedge_all", "ext_d", "top_ratio",
    "two_form_coeffs", "one_form_coeffs",
    "frame_derivative", "frobenius_defect", "scalar_d",
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

    @classmethod
    def from_scalar(cls, chart, jet):
        return cls(chart, 0, {(): jet})

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


def _merge_sign(a, b):
    """Sign of sorting the concatenation of two increasing disjoint tuples."""
    inv = sum(1 for i in a for j in b if i > j)
    return -1.0 if inv % 2 else 1.0


def wedge(a: PForm, b: PForm) -> PForm:
    if a.chart is not b.chart and a.chart != b.chart:
        raise ValueError("wedge of forms on different charts")
    deg = a.degree + b.degree
    if deg > a.chart.dim:
        raise ValueError(f"wedge degree {deg} exceeds chart dimension")
    order = min(a.order, b.order)
    out = PForm.zero(a.chart, deg, order)
    for ka, ja in a.coeffs.items():
        for kb, jb in b.coeffs.items():
            if set(ka) & set(kb):
                continue
            key = tuple(sorted(ka + kb))
            term = (ja * jb) * _merge_sign(ka, kb)
            out.coeffs[key] = out.coeffs[key] + term
    return out


def wedge_all(*forms):
    acc = forms[0]
    for f in forms[1:]:
        acc = wedge(acc, f)
    return acc


def ext_d(a: PForm, stage: str = "ext_d") -> PForm:
    """Exterior derivative; consumes one derivative-order level."""
    if a.order < 1:
        raise BudgetError(stage)
    if a.degree == a.chart.dim:
        # top degree: derivative is 0-dimensional, not representable; callers
        # never need it, but guard with a clear message anyway
        raise ValueError("exterior derivative of a top-degree form")
    order = a.order
    out = PForm.zero(a.chart, a.degree + 1, order - 1)
    for key, j in a.coeffs.items():
        j = j.truncate(order)
        for axis in range(a.chart.dim):
            if axis in key:
                continue
            pos = sum(1 for k in key if k < axis)
            newkey = tuple(sorted(key + (axis,)))
            term = jets.partial(j, axis) * (-1.0 if pos % 2 else 1.0)
            out.coeffs[newkey] = out.coeffs[newkey] + term
    return out


def top_ratio(a: PForm, b: PForm, tol: float = 0.0) -> Jet:
    """The scalar (as a jet) with a = ratio * b, for top-degree forms.

    ``tol`` is an absolute threshold on |b|'s value part below which the
    denominator counts as vanishing.
    """
    dim = a.chart.dim
    if a.degree != dim or b.degree != dim:
        raise ValueError("top_ratio needs top-degree forms")
    key = tuple(range(dim))
    denom = b.coeffs[key]
    if abs(denom.value) <= tol or not np.isfinite(denom.value):
        raise SingularVolumeError(
            f"volume-form denominator {denom.value!r} is numerically zero")
    return a.coeffs[key] / denom


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

    def omega(self, i: int) -> PForm:
        """1-based accessor matching the usual superscript numbering."""
        return self.forms[i - 1]

    @property
    def dim(self):
        return self.chart.dim

    def volume(self) -> PForm:
        """Cached omega^1 ^ ... ^ omega^dim; callers must not mutate it."""
        cached = getattr(self, "_vol", None)
        if cached is None:
            cached = wedge_all(*self.forms)
            self._vol = cached
        return cached

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
        cached = getattr(self, "_winv", None)
        if cached is None:
            cached = jets.jet_matrix_inverse(self.coefficient_matrix())
            self._winv = cached
        return cached

    def _complements(self):
        """Cached {(a, b): (sign, rest)} with omega^a ^ omega^b ^ rest =
        sign * volume(), rest the wedge of the other covectors in order."""
        cached = getattr(self, "_comp", None)
        if cached is None:
            cached = {}
            for pair in combinations(range(self.dim), 2):
                comp = tuple(i for i in range(self.dim) if i not in pair)
                rest = self.forms[comp[0]]
                for c in comp[1:]:
                    rest = wedge(rest, self.forms[c])
                cached[pair] = (_perm_sign(pair + comp), rest)
            self._comp = cached
        return cached


def _frame_key(point, order):
    return tuple(float(x) for x in point), int(order)


class CoframeField:
    """A chart-level family of coframes: builds a Coframe at any point.

    ``builder(point, order)`` must return a :class:`Coframe`.  Stage,
    epsilon and delta describe the family as a whole; the builder is expected
    to raise if a requested point is inconsistent with them.

    ``frames`` maps ``(point, order)`` to a Coframe the builder would return
    there.  Only a pipeline driver fills it, with the frames it built for its
    own sample list at its own order, so the map is bounded by that list and
    read-only afterwards; ``at`` returns a kept frame as is, and callers must
    not mutate it.  Any other point or order goes to the builder.
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
        return kept if kept is not None else self._builder(*key)


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

def two_form_coeffs(beta: PForm, frame: Coframe, tol: float = 0.0) -> dict:
    """Coefficients b[(a,b)] with beta = sum_{a<b} b[(a,b)] omega^a ^ omega^b.

    Works in any chart dimension via complements and permutation parity.
    In 3D, ``c[(1, 2)], c[(0, 2)], c[(0, 1)]`` are (b23, b13, b12).
    """
    vol = frame.volume()
    return {pair: top_ratio(wedge(beta, rest), vol, tol=tol) * sign
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


def frame_derivative(f: Jet, frame: Coframe, k: int, stage: str = "frame_derivative") -> Jet:
    """Derivative of a scalar jet along the k-th dual frame vector (0-based)."""
    if f.order < 1:
        raise BudgetError(stage)
    Winv = frame.dual_matrix()
    acc = None
    for j in range(frame.dim):
        term = Winv[j][k] * jets.partial(f, j)
        acc = term if acc is None else acc + term
    return acc


def scalar_d(chart: Chart, f: Jet, stage: str = "scalar_d") -> PForm:
    """The differential of a scalar jet as a 1-form (costs one order level)."""
    if f.order < 1:
        raise BudgetError(stage)
    return PForm(chart, 1, {(j,): jets.partial(f, j) for j in range(chart.dim)})


def frobenius_defect(a: PForm, tol: float = 0.0) -> Jet:
    """(a ^ da) / (coordinate volume): zero iff ker(a) is integrable (3D)."""
    if a.chart.dim != 3:
        raise ValueError("frobenius_defect is 3D-only")
    da = ext_d(a, stage="frobenius_defect")
    vol_key = (0, 1, 2)
    num = wedge(a, da)
    order = num.order
    one = Jet.constant(1.0, 3, order)
    vol = PForm(a.chart, 3, {vol_key: one})
    return top_ratio(num, vol, tol=tol)
