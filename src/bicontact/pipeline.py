"""Adaptation pipeline for a transverse pair of contact forms on a 3D chart.

Stages:

1. ``one_adapt`` scales the pair so the two contact volumes agree up to the
   orientation sign epsilon and completes the coframe.
2. ``compute_C`` / ``compute_C3`` extract the first-order invariant C and its
   frame derivatives.
3. ``case_detect`` decides between constant C, the C3 = 0 case (case 1), the
   generic nonconstant case (case 2), and its degenerate subcase (case 3).
4. ``case1_adapt`` / ``case2_adapt`` finish the adaptation and produce an
   :class:`InvariantRecord` per frame, one value per column when stacked.
   Case 1 kills the torsions A1, A2 by absorption, omega3 -> omega3 +
   b1 omega1 + b2 omega2, with b solved in closed form from the base
   frame's d omega1 and d omega2 tables; both cases read A1-A3 and B1-B3
   off their final frame's tables alike.
5. ``taut_circle_transform`` / ``taut_hyperbola_transform`` build the rotated
   frames whose contact volumes are simultaneously controlled.
6. ``cartan_structure_check`` detects the fully symmetric reduction and its
   curvature function K.
7. ``invariant_coords`` validates the coordinates built from (C, C3, C33).

Point-local functions act on a stacked :class:`~bicontact.forms.Coframe`
(:meth:`~bicontact.forms.CoframeField.blocks`): every value they read
(through ``jets._value``) is an (N,) array, every ``math`` function or
``**`` of a value goes through ``_per_column``, so it rounds as Python
does, each guard checks every column and raises the first failing column's
own error, and a record or table holds one value per column.  The drivers
act on stacked blocks of ``forms.STACK_BLOCK`` frames: ``analyze`` builds
them from a raw :class:`~bicontact.forms.CoframeField` at a sample-point
list and order, runs every stage once per block through
:func:`~bicontact.forms.by_block`, where a block whose pass raises runs
again by halves, into whichever half raises, down to a stack of one, so the
first failing point raises its own type and text, and splits the records
per point only at the end.  The decisions that hold per region, epsilon,
the case, the taut branch and the fully symmetric reduction, are taken over
all columns of all blocks.
Every adapted frame is derived from its input frame by
:meth:`~bicontact.forms.Coframe.replace`, which keeps the d of each covector
that stays the same object.  Each d(omega^i) of a frame's own covector comes
from its cached :meth:`~bicontact.forms.Coframe.d`, and its structure
functions, the coefficients of d(omega^i) in the frame itself, from
:meth:`~bicontact.forms.Coframe.d_coeffs`.  C, dC (built once per frame), the
dC data and the (omega1, omega2, dC/C3) frame are memoized per frame, one
memo per stacked block, so ``compute_C3``, ``case_detect``, ``case1_adapt``
and ``case2_adapt`` share them, and ``analyze`` hands its blocks, memo
included, to the curvature stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import jets
from .errors import (
    AmbiguousCase, BicontactError, BranchError, ContactFailure, CriticalPoint,
    DegenerateB, DegenerateTranslation, EpsilonMismatch, MixedEpsilon,
    StructureMismatch,
)
from .forms import (
    Coframe, CoframeField, PForm, block_rows, by_block, ext_d,
    one_form_coeffs, scalar_d, top_reciprocal, two_form_coeffs, wedge,
    wedge_all,
)
from .jets import Jet, _value

__all__ = [
    "Tolerances", "InvariantRecord", "QuadraticClassification",
    "one_adapt", "compute_C", "cached_C", "compute_C3", "classify",
    "case_detect", "case1_adapt", "case2_adapt",
    "taut_circle_transform", "taut_circle_field", "taut_hyperbola_transform",
    "circle_volume_coefficient", "predicted_circle_coefficient",
    "mixed_circle_coefficient", "hyperbola_residuals",
    "cartan_structure_check", "invariant_coords", "analyze",
]


CONTACT = 1e-10       # |omega ^ d omega| below this = not contact
FLAT_DC = 1e-8        # max |dC| below this = constant C
C3_BAND = 1e-7        # |C3| <= C3_BAND*(1+|dC|) declares C3 = 0
CASE3_BAND = 1e-10    # B1^2+B2^2 below this = case 3
LINEAR_BAND = 1e-9    # | |C|-1 | band for the linear class
CRITICAL = 1e-10      # |dC| below this inside case1/2 = critical point


@dataclass
class Tolerances:
    """Residual tolerances, set from the CLI's --tol-shallow / --tol-deep."""

    shallow: float = 1e-9       # identities within <= 2 derivative levels
    deep: float = 1e-6          # deeper derivative chains


@dataclass
class QuadraticClassification:
    """The plane quadratic a1^2 - eps*a2^2 + 2C a1 a2 and its sign class."""

    coefficients: tuple          # (1, -eps, 2C)
    tag: str                     # elliptic | hyperbolic | linear
    witness: str                 # which taut family realizes the class


@dataclass
class InvariantRecord:
    """Everything the pipeline knows at one sample point."""

    point: tuple
    eps: int
    delta: int = 1
    case: str | None = None
    klass: str | None = None
    C: float | None = None
    C1: float | None = None
    C2: float | None = None
    C3: float | None = None
    C33: float | None = None
    C333: float | None = None
    A1: float | None = None
    A2: float | None = None
    A3: float | None = None
    B1: float | None = None
    B2: float | None = None
    B3: float | None = None
    xi: float | None = None
    zeta: float | None = None
    zeta3: float | None = None
    rho: float | None = None
    W: float | None = None
    residuals: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# stage 1: one-adaptation

def _one_adapt_point(cf: Coframe):
    w1, w2, w3_seed = cf.forms
    dw1 = cf.d(0, stage="one_adapt(d omega1)")
    dw2 = cf.d(1, stage="one_adapt(d omega2)")
    vol1 = wedge(w1, dw1)
    vol2 = wedge(w2, dw2)
    top = (0, 1, 2)
    v1, v2 = _value(vol1.coeffs[top]), _value(vol2.coeffs[top])
    _check(cf, abs(v1) <= CONTACT, lambda p, v: ContactFailure(
        f"omega1 ^ d(omega1) = {v!r} at {p}"), v1)
    _check(cf, abs(v2) <= CONTACT, lambda p, v: ContactFailure(
        f"omega2 ^ d(omega2) = {v!r} at {p}"), v2)
    # both ratios divide by Omega = vol1, through one reciprocal
    per_omega = top_reciprocal(vol1, vol2.order)
    r = vol2.coeffs[top] * per_omega
    eps = _per_column(lambda v: -1 if v > 0 else 1, _value(r))
    # |r| with the branch fixed by the point value, kept smooth as a jet
    scale = jets.reciprocal(jets.sqrt(r * -eps))
    w2h = w2.scaled(scale)
    lam = wedge_all(w1, w2h, w3_seed).coeffs[top] * per_omega
    w3h = w3_seed.scaled(jets.reciprocal(lam))
    return cf.replace(forms=(w1, w2h, w3h), eps=eps, stage="one-adapted")


def one_adapt(fld: CoframeField, points, order) -> tuple:
    """Driver: the one-adapted frames of the raw field at ``points`` and
    ``order``, once epsilon is constant over them, as stacked blocks of
    ``forms.STACK_BLOCK`` columns in sample order
    (:meth:`~bicontact.forms.CoframeField.blocks`), each adapted in one
    pass; each block's eps is then that int.  This is the entry of the 3D
    pipeline, so it rejects other charts."""
    if fld.chart.dim != 3:
        raise BicontactError(
            "the 3D pipeline needs a chart with 3 coordinates; this one "
            f"has {fld.chart.dim}")
    blocks = tuple(out for _, out in by_block(fld.blocks(points, order),
                                              _one_adapt_point))
    eps_seen = {}
    for p, eps in zip(points, (e for cf in blocks for e in _each(cf.eps))):
        eps_seen.setdefault(eps, []).append(tuple(p))
    if len(eps_seen) != 1:
        raise MixedEpsilon(f"epsilon not constant over samples: {eps_seen}")
    (eps,) = eps_seen
    for cf in blocks:
        cf.eps = eps
    return blocks


# ---------------------------------------------------------------------------
# stage 2: the invariant C and its frame derivatives

def compute_C(cf: Coframe) -> Jet:
    """C as a jet: half the ratio of omega1^d(omega2)+omega2^d(omega1) to the volume."""
    w1, w2 = cf.forms[0], cf.forms[1]
    num = wedge(w1, cf.d(1, stage="compute_C")) + \
        wedge(w2, cf.d(0, stage="compute_C"))
    return cf.ratio(num) * 0.5


def cached_C(cf: Coframe) -> Jet:
    """``compute_C(cf)``, computed once per frame."""
    return cf._cached("C", lambda: compute_C(cf))


def _dC(cf: Coframe, stage: str) -> PForm:
    """The differential of the frame's C, taken once per frame.  ``stage``
    labels a BudgetError on the first call."""
    return cf._cached("dC", lambda: scalar_d(cf.chart, cached_C(cf),
                                             stage=stage))


def compute_C3(cf: Coframe):
    """(C3, C1, C2) of the frame's C: the coefficients of dC in the frame."""
    C1, C2, C3 = one_form_coeffs(_dC(cf, "compute_C3"), cf)
    return C3, C1, C2


def classify(C: float, eps: int):
    if eps == -1 and abs(abs(C) - 1.0) <= LINEAR_BAND:
        tag, witness = "linear", "degenerate pair (|C| = 1): zero locus is a line"
    elif eps == -1 and abs(C) < 1.0:
        tag, witness = "elliptic", "taut contact circle after rotation"
    else:
        tag, witness = "hyperbolic", "taut contact hyperbola branch r = +1 or -1"
    return tag, QuadraticClassification((1.0, -float(eps), 2.0 * float(C)), tag, witness)


# ---------------------------------------------------------------------------
# case detection

def _dC_data(cf: Coframe):
    """(C, C3, C1, C2, |dC|) of a frame, computed once per frame; |dC| is
    an (N,) array, one value per column."""
    def build():
        C3, c1, c2 = compute_C3(cf)
        norm = _per_column(lambda a, b, c: math.sqrt(a ** 2 + b ** 2 + c ** 2),
                           _value(c1), _value(c2), _value(C3))
        return cached_C(cf), C3, c1, c2, norm
    return cf._cached("dC data", build)


def _omega3_frame(cf: Coframe, stage: str):
    """(frame, dC, its d(omega3) table) for the frame (omega1, omega2, dC/C3),
    built once per frame; dC's omega3-component is C3, so the volume stays.
    ``stage`` labels a BudgetError."""
    def build():
        C3 = _dC_data(cf)[1]
        new3 = _dC(cf, stage).scaled(jets.reciprocal(C3))
        return cf.replace(forms=(cf.forms[0], cf.forms[1], new3),
                          stage="case2-adapted")
    frame = cf._cached("omega3 frame", build)
    return (frame, _dC(cf, stage),
            frame.d_coeffs(2, stage=f"{stage}(d omega3)"))


def _everywhere(flags, points, what) -> bool:
    """True if every sample is flagged, False if none, else AmbiguousCase."""
    if any(flags) and not all(flags):
        raise AmbiguousCase(f"{what} at some sampled points only",
                            [p for p, f in zip(points, flags) if f])
    return all(flags)


def case_detect(frames) -> str:
    """Classify the region of the one-adapted stacked ``frames`` as
    constantC / case1 / case2 / case3, each decision taken over every column
    of every frame."""
    data = list(by_block(frames, _dC_data))
    pts = [p for cf, _ in data for p in _points(cf)]
    norms = [n for _, d in data for n in _each(d[4])]
    c3 = [v for _, d in data for v in _each(_value(d[1]))]
    if _everywhere([n <= FLAT_DC for n in norms], pts, "dC vanishes"):
        return "constantC"
    if _everywhere([abs(v) <= C3_BAND * (1.0 + n) for v, n in zip(c3, norms)],
                   pts, "C3 = 0"):
        return "case1"
    small_B = [v <= CASE3_BAND
               for _, b in by_block(frames, lambda cf: _omega3_frame(
                   cf, "case_detect")[2])
               for v in _each(_per_column(lambda u, w: u ** 2 + w ** 2,
                                          _value(b[(1, 2)]),
                                          _value(b[(0, 2)])))]
    return "case3" if _everywhere(small_B, pts, "B1 = B2 = 0") else "case2"


# ---------------------------------------------------------------------------
# torsions of a fully adapted frame

def _torsions(out: Coframe, C: Jet, stage: str):
    """({A1, A2, A3, B1, B2, B3} as jets, residuals) of a case-1 or case-2
    final frame: A1 = -(d omega2)_12, A2 = (d omega1)_12, A3 = (d omega1)_13
    + C and (B1, B2, B3) = (d omega3)_(23, 13, 12), read off its structure
    tables, with the residuals of the displayed first structure equations.
    ``stage`` labels each table's BudgetError."""
    k1, k2, b = [out.d_coeffs(i, stage=f"{stage}(d omega{i + 1})")
                 for i in range(3)]
    A3 = k1[(0, 2)] + C
    residuals = {
        "domega1_23_minus_1": abs(_value(k1[(1, 2)]) - 1.0),
        "domega2_13_minus_eps": abs(_value(k2[(0, 2)]) - out.eps),
        "A3_cross_check": abs((_value(k2[(1, 2)]) - _value(C))
                              - _value(A3)),
    }
    return {"A1": -k2[(0, 1)], "A2": k1[(0, 1)], "A3": A3,
            "B1": b[(1, 2)], "B2": b[(0, 2)], "B3": b[(0, 1)]}, residuals


# ---------------------------------------------------------------------------
# case-2 adaptation

def case2_adapt(cf: Coframe):
    """Point-local full adaptation for the generic nonconstant-C case.

    Returns (adapted coframe, record, jets).  The input must be one-adapted;
    the record's values are (N,) arrays, one per column
    (:func:`_split_record` splits it).
    """
    if cf.eps is None:
        raise ValueError("case2_adapt needs a one-adapted coframe")
    eps = cf.eps
    C, C3_pre, _, _, norm = _dC_data(cf)
    _check(cf, norm <= CRITICAL, lambda p: CriticalPoint(f"dC = 0 at {p}"))
    c3 = _value(C3_pre)
    _check(cf, abs(c3) <= C3_BAND * (1.0 + norm), lambda p, v: CriticalPoint(
        f"C3 = {v!r} vanishes at {p}; not a case-2 point"), c3)

    # canonical third covector: omega3 := dC / C3
    frame0, dC, b0 = _omega3_frame(cf, "case2_adapt")
    w1, w2, new3 = frame0.forms
    B1_0, B2_0 = b0[(1, 2)], b0[(0, 2)]
    s2 = B1_0 * B1_0 + B2_0 * B2_0
    _check(cf, _value(s2) <= CASE3_BAND, lambda p, v: DegenerateB(
        f"B1^2+B2^2 = {v!r} at {p}: case-3 data, no rescale"), _value(s2))
    s = jets.sqrt(s2)

    w1h, w2h = w1.scaled(s), w2.scaled(s)
    out = frame0.replace(forms=(w1h, w2h, new3))
    t, shared = _torsions(out, C, "case2_adapt")
    b1, b2, b3 = (_value(t[key]) for key in ("B1", "B2", "B3"))
    _check(cf, abs(b3) > 1e-8 * (1.0 + abs(b1) + abs(b2)),
           lambda p, v: StructureMismatch(
               f"B3 = {v!r} should vanish (forced by d^2 C = 0)"), b3)
    zeta = jets.atan2(t["B2"], t["B1"])

    # C-derivative data relative to the final frame
    C1f, C2f, C3f = one_form_coeffs(dC, out)
    z1, z2, zeta3 = one_form_coeffs(
        scalar_d(cf.chart, zeta, stage="case2_adapt(zeta3)"), out)

    rec = InvariantRecord(
        point=cf.point, eps=eps, case="case2",
        C=_value(C), C1=_value(C1f), C2=_value(C2f), C3=_value(C3f),
        zeta=_value(zeta), zeta3=_value(zeta3), residuals=shared,
        **{key: _value(x) for key, x in t.items()},
    )
    rec.klass = _klass(rec.C, eps)

    res = rec.residuals
    res["B3"] = abs(b3)
    res["B_unit"] = _per_column(lambda u, v: abs(u ** 2 + v ** 2 - 1.0),
                                b1, b2)
    res["C1"] = abs(rec.C1)
    res["C2"] = abs(rec.C2)

    # fitted W of the zeta-derivative display (least squares over 2
    # equations): zeta1 = W cos(zeta) + A2, zeta2 = -W sin(zeta) - A1
    z1, z2 = _value(z1), _value(z2)
    cz, sz = _per_column(math.cos, rec.zeta), _per_column(math.sin, rec.zeta)
    W = cz * (z1 - rec.A2) - sz * (z2 + rec.A1)
    rec.W = W
    res["W_fit"] = _per_column(math.hypot, z1 - (W * cz + rec.A2),
                               z2 - (-W * sz - rec.A1))
    return out, rec, {"C": C, "C3": C3f, "zeta": zeta, "zeta3": zeta3, **t}


# ---------------------------------------------------------------------------
# case-1 adaptation

def case1_adapt(cf: Coframe, tol: Tolerances | None = None):
    """Point-local adaptation for the C3 = 0, dC != 0 case.  The returned
    jets include ``det`` = d(A1, A2)/d(b1, b2) = A3^2 - C^2 - eps.  The
    record's values are (N,) arrays, one per column."""
    tol = tol or Tolerances()
    if cf.eps is None:
        raise ValueError("case1_adapt needs a one-adapted coframe")
    eps = cf.eps
    C, C3_pre, c1_pre, c2_pre, norm = _dC_data(cf)
    _check(cf, norm <= CRITICAL, lambda p: CriticalPoint(f"dC = 0 at {p}"))
    c3 = _value(C3_pre)
    _check(cf, abs(c3) > C3_BAND * (1.0 + norm),
           lambda p, v: StructureMismatch(
               f"C3 = {v!r} is not zero at {p}; not case-1 data"), c3)

    # rescale so C1^2 + C2^2 = 1
    s2 = c1_pre * c1_pre + c2_pre * c2_pre
    _check(cf, _value(s2) <= CRITICAL,
           lambda p: CriticalPoint(f"C1 = C2 = 0 at {p}"))
    s = jets.sqrt(s2)
    w1h, w2h = cf.forms[0].scaled(s), cf.forms[1].scaled(s)
    base = cf.replace(forms=(w1h, w2h, cf.forms[2]), stage="case1-adapted")
    C1h, C2h, _ = one_form_coeffs(_dC(cf, "case1_adapt(dC)"), base)
    xi = jets.atan2(C2h, C1h)

    # kill A1 = -k2_12 and A2 = k1_12 by omega3 -> omega3 + b1 omega1 +
    # b2 omega2 (absorption): d omega1 and d omega2 stay, and in their tables
    # k1, k2 only the (1,2) entry moves, to k_12 - b2 k_13 + b1 k_23, so
    # (A1, A2) = a0 + M b with a0 and M read off the base frame
    k1 = base.d_coeffs(0, stage="case1_adapt(d omega1)")
    k2 = base.d_coeffs(1, stage="case1_adapt(d omega2)")
    a10, a20 = -k2[(0, 1)], k1[(0, 1)]
    m11, m12 = -k2[(1, 2)], k2[(0, 2)]
    m21, m22 = k1[(1, 2)], -k1[(0, 2)]
    det = m11 * m22 - m12 * m21
    size = abs(_value(det))
    _check(cf, size <= tol.deep, lambda p, v: DegenerateTranslation(
        f"translation system is singular at {p}: "
        f"|A3^2 - C^2 - eps| = {v!r}"), size)
    b1 = (m12 * a20 - m22 * a10) / det
    b2 = (m21 * a10 - m11 * a20) / det

    w3h = base.forms[2] + w1h.scaled(b1) + w2h.scaled(b2)
    out = base.replace(forms=(w1h, w2h, w3h))
    t, shared = _torsions(out, C, "case1_adapt")

    x1, x2, xi3 = one_form_coeffs(
        scalar_d(cf.chart, xi, stage="case1_adapt(xi3)"), out)
    x1, x2, xv = _value(x1), _value(x2), _value(xi)
    cx, sx = _per_column(math.cos, xv), _per_column(math.sin, xv)
    rho = -x1 * sx + x2 * cx        # least squares of xi1 = -rho sin, xi2 = rho cos
    rec = InvariantRecord(
        point=cf.point, eps=eps, case="case1",
        C=_value(C), C1=_value(C1h), C2=_value(C2h), C3=c3,
        xi=xv, rho=rho, residuals=shared,
        **{key: _value(x) for key, x in t.items()},
    )
    rec.klass = _klass(rec.C, eps)
    res = rec.residuals
    res["A1"] = abs(rec.A1)
    res["A2"] = abs(rec.A2)
    res["C_unit"] = _per_column(lambda u, v: abs(u ** 2 + v ** 2 - 1.0),
                                rec.C1, rec.C2)
    res["rho_fit"] = _per_column(math.hypot, x1 + rho * sx, x2 - rho * cx)
    closed = [_closed_forms(eps, *v) for v in zip(*map(_each, (
        rec.B3, xv, _value(xi3), rec.C, rec.A3, rho)))]
    for key in dict.fromkeys(k for row in closed for k in row):
        res[key] = [row.get(key) for row in closed]
    return out, rec, {"C": C, "xi": xi, "xi3": xi3, **t, "det": det}


def _closed_forms(eps, B3, xi, xi3, C, A3, rho) -> dict:
    """The closed-form residuals of one case-1 point, available where B3
    vanishes: {} elsewhere."""
    res = {}
    if abs(B3) <= 1e-7:
        xi3_closed = 0.5 * (eps + 1) * math.cos(2 * xi) \
            + C * math.sin(2 * xi) + 0.5 * (1 - eps)
        res["xi3_closed_form"] = abs(xi3 - xi3_closed)
        A3_closed = C * math.cos(2 * xi) - 0.5 * (eps + 1) * math.sin(2 * xi)
        res["A3_closed_form"] = abs(A3 - A3_closed)
        den = xi3 + eps - 1
        if abs(den) > 1e-8:
            res["rho_closed_form"] = abs(rho - math.sin(2 * xi) / den)
    return res


# ---------------------------------------------------------------------------
# taut transforms

def _taut_circle(cf: Coframe):
    """(frame, C jet, (sign(1+C), sign(1-C)) as int arrays, one per column)
    of ``taut_circle_transform``, built once per frame.  Raises BranchError
    at the first column where |C| = 1."""
    def build():
        if cf.eps != -1:
            raise EpsilonMismatch("taut_circle_transform needs eps = -1")
        C = cached_C(cf)
        sp = C + 1.0
        sm = 1.0 - C
        vp, vm = _value(sp), _value(sm)
        _check(cf, (vp == 0.0) | (vm == 0.0), lambda p: BranchError(
            f"|C| = 1 at {p}: transform undefined"))
        here = np.where(vp > 0, 1, -1), np.where(vm > 0, 1, -1)
        w1, w2, w3 = cf.forms
        root2 = math.sqrt(2.0)
        f1 = jets.reciprocal(jets.sqrt(sp * here[0]) * root2)
        f2 = jets.reciprocal(jets.sqrt(sm * here[1]) * root2)
        eta1 = (w1 + w2).scaled(f1)
        eta2 = (w1 - w2).scaled(f2)
        one_minus_C2 = sp * sm * (here[0] * here[1])
        eta3 = w3.scaled(-jets.sqrt(one_minus_C2))
        out = cf.replace(forms=(eta1, eta2, eta3), stage="taut-circle")
        return out, C, here
    return cf._cached("taut circle", build)


def taut_circle_transform(cf: Coframe, branch: tuple | None = None):
    """Rotate an eps = -1 adapted frame into the taut-circle normal frame.

    Returns (frame, C jet, branch), the rotation built once per frame.  The
    sign branch (sign(1+C), sign(1-C)) must be ``branch`` at every column,
    by default the first column's; ``taut_circle_field`` holds it fixed over
    a region.  Raises BranchError at the first column where |C| = 1 or
    where the branch is another.
    """
    out, C, here = _taut_circle(cf)
    if branch is None:
        branch = (int(here[0][0]), int(here[1][0]))
    _check(cf, (here[0] != branch[0]) | (here[1] != branch[1]),
           lambda p, a, b: BranchError(
               f"sign branch of (1+C, 1-C) is {(a, b)} at {p}, "
               f"{branch} elsewhere in the region"), *here)
    return out, C, branch


def taut_circle_field(blocks) -> tuple:
    """Driver: the (1+C, 1-C) sign branch of the one-adapted stacked
    ``blocks``, held fixed over the region.  Each block's frame memoizes
    its taut-circle frame, which ``taut_circle_transform(frame, branch)``
    reads back.  A block whose pass raises runs again by halves, into
    whichever half raises (``forms.by_block``), so BranchError names the
    first column in sample order where |C| = 1 or where the branch is not
    the first column's."""
    branch = None
    # by_block runs each pass as the loop reaches it, so a pass compares
    # against the branch that the passes before it fixed
    for _, (_, _, branch) in by_block(
            blocks, lambda cf: taut_circle_transform(cf, branch)):
        pass
    return branch


def circle_volume_coefficient(cf: Coframe, taut: Coframe, a1: float, a2: float):
    """(eta_a ^ d eta_a) / Omega for a constant coefficient pair (a1, a2)."""
    eta_a = taut.forms[0].scaled(a1) + taut.forms[1].scaled(a2)
    num = wedge(eta_a, ext_d(eta_a, stage="taut_circle(volume)"))
    return cf.ratio(num)


def predicted_circle_coefficient(C: float, C3: float, a1: float, a2: float) -> float:
    """Closed-form volume coefficient of a constant pair (a1, a2) in the
    rotated frame: s+ a1^2 + s- a2^2 + s+ s- a1 a2 C3 / |1-C^2|^(3/2),
    with s+- the signs of 1+-C.  On the unit circle with |C| < 1 the
    quadratic part is 1; on a unit-hyperbola branch with |C| > 1 it is
    the branch sign."""
    sp = 1.0 if 1.0 + C > 0 else -1.0
    sm = 1.0 if 1.0 - C > 0 else -1.0
    kappa = C3 / abs(1.0 - C * C) ** 1.5
    return sp * a1 * a1 + sm * a2 * a2 + sp * sm * a1 * a2 * kappa


def mixed_circle_coefficient(cf: Coframe, taut: Coframe):
    """(eta1 ^ d eta2 + eta2 ^ d eta1) / Omega: the taut-failure scalar,
    equal to sgn(1-C^2) * C3 / |1-C^2|^(3/2)."""
    mixed = wedge(taut.forms[0], taut.d(1, stage="taut_circle(mixed)")) + \
        wedge(taut.forms[1], taut.d(0, stage="taut_circle(mixed)"))
    return cf.ratio(mixed)


def taut_hyperbola_transform(cf: Coframe):
    """Rotate an eps = +1 adapted frame by the hyperbolic half-angle of C."""
    if cf.eps != 1:
        raise EpsilonMismatch("taut_hyperbola_transform needs eps = +1")
    C = cached_C(cf)
    theta = jets.asinh(C)
    ch, sh = jets.cosh(theta * 0.5), jets.sinh(theta * 0.5)
    inv = jets.reciprocal(jets.cosh(theta))
    w1, w2, w3 = cf.forms
    eta1 = (w1.scaled(ch) + w2.scaled(sh)).scaled(inv)
    eta2 = (w1.scaled(-sh) + w2.scaled(ch)).scaled(inv)
    out = cf.replace(forms=(eta1, eta2, w3), stage="taut-hyperbola")
    return out, C, theta


def hyperbola_residuals(cf: Coframe, taut: Coframe, theta: Jet):
    """Residuals of the two displayed volume identities of the hyperbolic
    rotation, one per column, plus the mixed-volume defect, the jet
    (eta1 ^ d eta2 + eta2 ^ d eta1) / volume."""
    Omega = cf.volume()
    w12 = wedge(cf.forms[0], cf.forms[1])
    dtheta = scalar_d(cf.chart, theta, stage="taut_hyperbola(residuals)")
    corr = wedge(w12, dtheta).scaled(
        jets.reciprocal(jets.cosh(theta) * jets.cosh(theta) * 2.0))
    eta1, eta2 = taut.forms[0], taut.forms[1]
    d1 = taut.d(0, stage="taut_hyperbola(v1)")
    d2 = taut.d(1, stage="taut_hyperbola(v2)")
    r1 = cf.ratio(wedge(eta1, d1) - (Omega - corr))
    r2 = cf.ratio(wedge(eta2, d2) - (Omega.scaled(-1.0) - corr))
    mixed = wedge(eta1, d2) + wedge(eta2, d1)
    defect = cf.ratio(mixed)
    return abs(_value(r1)), abs(_value(r2)), defect


# ---------------------------------------------------------------------------
# fully symmetric reduction

def _cartan_asymmetric(cf: Coframe, tol: Tolerances):
    """Per column, whether the frame fails the symmetry test |omega1 ^
    d omega2| <= tol.shallow and |omega2 ^ d omega1| <= tol.shallow (over
    the volume); a NaN fails it."""
    w1, w2, _ = cf.forms
    s1 = _value(cf.ratio(wedge(w1, cf.d(1, stage="cartan_check"))))
    s2 = _value(cf.ratio(wedge(w2, cf.d(0, stage="cartan_check"))))
    return ~(abs(s1) <= tol.shallow) | ~(abs(s2) <= tol.shallow)


def _cartan_row(cf: Coframe) -> dict:
    """K and the residuals of the reduction, one value per column."""
    w1, w2, w3 = cf.forms
    k1 = cf.d_coeffs(0, stage="cartan_check(torsion)")
    k2 = cf.d_coeffs(1, stage="cartan_check(torsion)")
    A1, A2 = -k2[(0, 1)], k1[(0, 1)]
    w3h = w3 + w1.scaled(-A2) + w2.scaled(A1 * (-float(cf.eps)))
    frame = cf.replace(forms=(w1, w2, w3h), stage="cartan")
    c = frame.d_coeffs(2, stage="cartan_check(d omega3)")
    c23, c13, K = c[(1, 2)], c[(0, 2)], c[(0, 1)]
    t1 = cf.d(0, stage="cartan_check(res)") - wedge(w2, w3h)
    t2 = cf.d(1, stage="cartan_check(res)") - \
        wedge(w1, w3h).scaled(float(cf.eps))
    dK = scalar_d(cf.chart, K, stage="cartan_check(dK)")
    return {"K": _value(K), "residuals": {
        "domega1": t1.max_abs_value(),
        "domega2": t2.max_abs_value(),
        "domega3_13": abs(_value(c13)),
        "domega3_23": abs(_value(c23)),
        "dK_wedge_12": abs(_value(frame.ratio(wedge_all(dK, w1, w2)))),
    }}


def cartan_structure_check(blocks, tol: Tolerances | None = None):
    """Detect the reduction with d omega1 = omega2^omega3, d omega2 =
    eps omega1^omega3, d omega3 = K omega1^omega2 on the one-adapted
    stacked ``blocks``.

    Returns None when any column of any block fails the symmetry test,
    before K is taken anywhere; otherwise a dict with the points, K values
    and residuals per point, in sample order.
    """
    tol = tol or Tolerances()
    for _, asymmetric in by_block(blocks,
                                  lambda cf: _cartan_asymmetric(cf, tol)):
        if asymmetric.any():
            return None
    rows = list(block_rows([p for cf in blocks for p in _points(cf)], blocks,
                           _cartan_row))
    return {"eps": blocks[0].eps, "points": [p for p, _ in rows],
            "K": [row["K"] for _, row in rows],
            "residuals": [row["residuals"] for _, row in rows]}


# ---------------------------------------------------------------------------
# invariant coordinates from (C, C3, C33)

def invariant_coords(cf2: Coframe, tol: Tolerances | None = None):
    """On a stacked case-2 adapted frame: the C-coordinate volume identity.

    Returns a dict with C, C3, C33, C333, the honest ratio
    (dC ^ dC3 ^ dC33)/Omega, its closed-form prediction, and the comparison
    of dC ^ dC3 against its displayed coframe expansion, each an (N,) array,
    one value per column.
    """
    tol = tol or Tolerances()
    if cf2.stage != "case2-adapted":
        raise ValueError("invariant_coords needs a case2-adapted frame")
    eps = cf2.eps
    C = cached_C(cf2)
    dC = _dC(cf2, "invariant_coords(dC)")
    C3 = one_form_coeffs(dC, cf2)[2]
    dC3 = scalar_d(cf2.chart, C3, stage="invariant_coords(C33)")
    C33 = one_form_coeffs(dC3, cf2)[2]
    dC33 = scalar_d(cf2.chart, C33, stage="invariant_coords(C333)")
    C333 = one_form_coeffs(dC33, cf2)[2]
    lhs = cf2.ratio(wedge_all(dC, dC3, dC33))

    b = cf2.d_coeffs(2, stage="invariant_coords(d omega3)")
    B1, B2 = b[(1, 2)], b[(0, 2)]
    zeta = jets.atan2(B2, B1)
    zeta3 = one_form_coeffs(
        scalar_d(cf2.chart, zeta, stage="invariant_coords(zeta3)"), cf2)[2]
    C, C3, lhs = _value(C), _value(C3), _value(lhs)
    z = _value(zeta)
    cz, sz = _per_column(math.cos, z), _per_column(math.sin, z)
    predicted = _per_column(lambda v: -v ** 3, C3) * (
        1.0 - (1 + eps) * cz * cz + 2.0 * C * sz * cz + _value(zeta3))

    pair = wedge(dC, dC3)
    pc = two_form_coeffs(pair, cf2)
    C3sq = _per_column(lambda v: v ** 2, C3)
    pair_res = {
        "coeff_13_minus_C3sq_sin": abs(_value(pc[(0, 2)]) - C3sq * sz),
        "coeff_23_minus_delta_C3sq_cos": abs(_value(pc[(1, 2)]) - C3sq * cz),
        "coeff_12": abs(_value(pc[(0, 1)])),
    }
    degenerate = abs(lhs) <= tol.deep * _per_column(
        lambda v: max(1.0, abs(v) ** 3), C3)
    return {
        "C": C, "C3": C3, "C33": _value(C33), "C333": _value(C333),
        "zeta": z, "zeta3": _value(zeta3),
        "volume_ratio": lhs, "predicted": predicted,
        "identity_residual": abs(lhs - predicted),
        "pair_expansion_residuals": pair_res,
        "degenerate": degenerate,
    }


# ---------------------------------------------------------------------------
# umbrella driver

def _dC_record(cf: Coframe, case: str) -> InvariantRecord:
    """The record of a constantC or case-3 frame: C and its derivatives."""
    C, C3, c1, c2, _ = _dC_data(cf)
    rec = InvariantRecord(point=cf.point, eps=cf.eps, case=case,
                          C=_value(C), C1=_value(c1), C2=_value(c2),
                          C3=_value(C3))
    rec.klass = _klass(rec.C, cf.eps)
    return rec


def _split_record(rec: InvariantRecord) -> list:
    """The per-point records of a stacked frame's record, in column order.
    A residual that is a list holds None where a column has no such
    entry."""
    values = {f.name: getattr(rec, f.name).tolist() for f in fields(rec)
              if isinstance(getattr(rec, f.name), np.ndarray)}
    residuals = {key: _each(v) for key, v in rec.residuals.items()}
    return [replace(rec, point=point,
                    residuals={key: v[k] for key, v in residuals.items()
                               if v[k] is not None},
                    **{name: v[k] for name, v in values.items()})
            for k, point in enumerate(zip(*(x.tolist() for x in rec.point)))]


def analyze(fld: CoframeField, points, order, tol: Tolerances | None = None):
    """Run the full pipeline over a sample set, each stage once per stacked
    block of ``forms.STACK_BLOCK`` frames.

    Returns a dict: eps, case, the per-point records in sample order, the
    one-adapted ``blocks`` and, in cases 1 and 2, the fully
    ``adapted_blocks``: stacked frames whose columns are the sample points
    in order, each with the memo its stages filled.  Case-specific
    adaptation failures propagate.
    """
    tol = tol or Tolerances()
    blocks = one_adapt(fld, points, order)
    case = case_detect(blocks)
    result = {"eps": blocks[0].eps, "case": case, "blocks": blocks}
    if case in ("constantC", "case3"):
        records = [rec for _, rec in by_block(
            blocks, lambda cf: _dC_record(cf, case))]
    else:
        outs = [out for _, out in by_block(
            blocks, (lambda cf: case1_adapt(cf, tol)) if case == "case1"
            else case2_adapt)]
        result["adapted_blocks"] = tuple(o[0] for o in outs)
        records = [o[1] for o in outs]
    result["records"] = [one for rec in records for one in _split_record(rec)]
    return result


# ---------------------------------------------------------------------------
# values of stacked frames

def _each(x) -> list:
    """The values of ``x`` per column, as Python numbers: the entries of an
    (N,) array or a list."""
    return x.tolist() if isinstance(x, np.ndarray) else x


def _points(cf: Coframe) -> list:
    """The sample point of each column of a frame, as tuples of floats."""
    return list(zip(*(x.tolist() for x in cf.point)))


def _per_column(fn, *values):
    """``fn`` of each column's floats of the (N,) arrays ``values``, as an
    array: the one-point arithmetic at every point, for the functions
    (``math``, ``**``) whose NumPy form may round otherwise."""
    return np.array([fn(*v) for v in zip(*(x.tolist() for x in values))])


def _klass(C, eps):
    """The ``classify`` tag of each column of C."""
    return _per_column(lambda c: classify(c, eps)[0], C)


def _check(cf: Coframe, fails, error, *values):
    """Raise ``error(point, *values)``, at the first column of ``cf`` where
    ``fails`` holds, with that column's point and values as Python numbers,
    so its text does not depend on the block the column is in."""
    if np.any(fails):
        k = int(np.argmax(fails))
        raise error(_points(cf)[k], *(_each(v)[k] for v in values))
