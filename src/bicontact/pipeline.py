"""Adaptation pipeline for a transverse pair of contact forms on a 3D chart.

Stages:

1. ``one_adapt`` scales the pair so the two contact volumes agree up to the
   orientation sign epsilon and completes the coframe.
2. ``compute_C`` / ``compute_C3`` extract the first-order invariant C and its
   frame derivatives.
3. ``case_detect`` decides between constant C, the C3 = 0 case (case 1), the
   generic nonconstant case (case 2), and its degenerate subcase (case 3).
4. ``case1_adapt`` / ``case2_adapt`` finish the adaptation and produce an
   :class:`InvariantRecord` per point.
5. ``taut_circle_transform`` / ``taut_hyperbola_transform`` build the rotated
   frames whose contact volumes are simultaneously controlled.
6. ``cartan_structure_check`` detects the fully symmetric reduction and its
   curvature function K.
7. ``invariant_coords`` validates the coordinates built from (C, C3, C33).

Point-local functions act on a :class:`~bicontact.forms.Coframe`; drivers act
on a :class:`~bicontact.forms.CoframeField` plus a sample-point list and fix
the global signs (epsilon, branch choices) that must be constant per region.
Drivers return fields that keep the frames they built at their sample points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import jets
from .errors import (
    AmbiguousCase, BranchError, ContactFailure, CriticalPoint, DegenerateB,
    DegenerateTranslation, EpsilonMismatch, MixedEpsilon, StructureMismatch,
)
from .forms import (
    Coframe, CoframeField, PForm, ext_d, frame_derivative,
    one_form_coeffs, scalar_d, top_ratio, two_form_coeffs, wedge, wedge_all,
)
from .jets import Jet

__all__ = [
    "Tolerances", "InvariantRecord", "QuadraticClassification",
    "one_adapt", "compute_C", "compute_C3", "classify",
    "case_detect", "case1_adapt", "case2_adapt",
    "case1_adapt_field", "case2_adapt_field",
    "taut_circle_transform", "taut_circle_field", "taut_hyperbola_transform",
    "circle_volume_coefficient", "predicted_circle_coefficient",
    "hyperbola_residuals", "cartan_structure_check", "invariant_coords",
    "analyze",
]


@dataclass
class Tolerances:
    """Tolerance bands used by the pipeline; all configurable from the CLI."""

    shallow: float = 1e-9       # identities within <= 2 derivative levels
    deep: float = 1e-6          # deeper derivative chains
    contact: float = 1e-10      # |omega ^ d omega| below this = not contact
    flat_dC: float = 1e-8       # max |dC| below this = constant C
    c3_band: float = 1e-7       # |C3| <= c3_band*(1+|dC|) declares C3 = 0
    case3_band: float = 1e-10   # B1^2+B2^2 below this = case 3
    linear_band: float = 1e-9   # | |C|-1 | band for the linear class
    critical: float = 1e-10     # |dC| below this inside case1/2 = critical point


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
    case: str | None = None
    klass: str | None = None
    residuals: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# stage 1: one-adaptation

def _one_adapt_point(cf: Coframe, tol: Tolerances, eps_expected=None):
    w1, w2, w3_seed = cf.forms
    dw1 = ext_d(w1, stage="one_adapt(d omega1)")
    dw2 = ext_d(w2, stage="one_adapt(d omega2)")
    vol1 = wedge(w1, dw1)
    vol2 = wedge(w2, dw2)
    top = (0, 1, 2)
    if abs(vol1.coeffs[top].value) <= tol.contact:
        raise ContactFailure(
            f"omega1 ^ d(omega1) = {vol1.coeffs[top].value!r} at {cf.point}")
    if abs(vol2.coeffs[top].value) <= tol.contact:
        raise ContactFailure(
            f"omega2 ^ d(omega2) = {vol2.coeffs[top].value!r} at {cf.point}")
    r = top_ratio(vol2, vol1)
    eps = -1 if r.value > 0 else 1
    if eps_expected is not None and eps != eps_expected:
        raise MixedEpsilon(
            f"epsilon flips to {eps} at point {cf.point} (region has {eps_expected})")
    # |r| with the branch fixed by the point value, kept smooth as a jet
    scale = jets.reciprocal(jets.sqrt(r * float(-eps)))
    w2h = w2.scaled(scale)
    Omega = vol1
    lam = top_ratio(wedge_all(w1, w2h, w3_seed), Omega, tol=tol.contact)
    w3h = w3_seed.scaled(jets.reciprocal(lam))
    out = Coframe(cf.chart, cf.point, (w1, w2h, w3h), eps=eps,
                  delta=cf.delta, stage="one-adapted")
    return out, r, scale, lam


def one_adapt(fld: CoframeField, points, order, tol: Tolerances | None = None):
    """Driver: fix epsilon over the sample set, return the adapted field."""
    tol = tol or Tolerances()
    eps_seen, kept = {}, {}
    for p in points:
        out, _, _, _ = _one_adapt_point(fld.at(p, order), tol)
        eps_seen.setdefault(out.eps, []).append(tuple(p))
        kept[tuple(p), order] = out
    if len(eps_seen) != 1:
        raise MixedEpsilon(f"epsilon not constant over samples: {eps_seen}")
    eps = next(iter(eps_seen))

    def build(point, order2):
        cf = fld.at(point, order2)
        adapted, _, _, _ = _one_adapt_point(cf, tol, eps_expected=eps)
        return adapted

    return CoframeField(fld.chart, build, eps=eps, delta=fld.delta,
                        stage="one-adapted", frames=kept)


# ---------------------------------------------------------------------------
# stage 2: the invariant C and its frame derivatives

def compute_C(cf: Coframe) -> Jet:
    """C as a jet: half the ratio of omega1^d(omega2)+omega2^d(omega1) to the volume."""
    w1, w2 = cf.forms[0], cf.forms[1]
    num = wedge(w1, ext_d(w2, stage="compute_C")) + \
        wedge(w2, ext_d(w1, stage="compute_C"))
    return top_ratio(num, cf.volume()) * 0.5


def compute_C3(cf: Coframe, C: Jet):
    """(C3, C1, C2): C3 from the volume ratio, C1/C2 from the dual frame."""
    dC = scalar_d(cf.chart, C, stage="compute_C3")
    C3 = top_ratio(wedge_all(dC, cf.forms[0], cf.forms[1]), cf.volume())
    c1, c2, _c3_dual = one_form_coeffs(dC, cf)
    return C3, c1, c2


def classify(C: float, eps: int, band: float = 1e-9):
    if eps == -1 and abs(abs(C) - 1.0) <= band:
        tag, witness = "linear", "degenerate pair (|C| = 1): zero locus is a line"
    elif eps == -1 and abs(C) < 1.0:
        tag, witness = "elliptic", "taut contact circle after rotation"
    else:
        tag, witness = "hyperbolic", "taut contact hyperbola branch r = +1 or -1"
    return tag, QuadraticClassification((1.0, -float(eps), 2.0 * float(C)), tag, witness)


# ---------------------------------------------------------------------------
# case detection

def _dC_data(cf: Coframe, tol: Tolerances):
    C = compute_C(cf)
    C3, c1, c2 = compute_C3(cf, C)
    norm = math.sqrt(c1.value ** 2 + c2.value ** 2 + C3.value ** 2)
    return C, C3, c1, c2, norm


def case_detect(fld: CoframeField, points, order, tol: Tolerances | None = None) -> str:
    """Classify the sampled region as constantC / case1 / case2 / case3."""
    tol = tol or Tolerances()
    flat, c3zero, small_B, data = [], [], [], []
    for p in points:
        cf = fld.at(p, order)
        C, C3, c1, c2, norm = _dC_data(cf, tol)
        data.append((tuple(p), cf, C, C3, c1, c2, norm))
        flat.append(norm <= tol.flat_dC)
        c3zero.append(abs(C3.value) <= tol.c3_band * (1.0 + norm))
    if all(flat):
        return "constantC"
    if any(flat):
        raise AmbiguousCase("dC vanishes at some sampled points only",
                            [d[0] for d, f in zip(data, flat) if f])
    if all(c3zero):
        return "case1"
    if any(c3zero):
        raise AmbiguousCase("C3 = 0 at some sampled points only",
                            [d[0] for d, z in zip(data, c3zero) if z])
    for (p, cf, C, C3, c1, c2, norm) in data:
        new3 = scalar_d(cf.chart, C, stage="case_detect").scaled(
            jets.reciprocal(C3))
        trial = cf.replace(forms=(cf.forms[0], cf.forms[1], new3))
        d3 = ext_d(new3, stage="case_detect(d omega3)")
        b = two_form_coeffs(d3, trial)
        small_B.append(b[(1, 2)].value ** 2 + b[(0, 2)].value ** 2
                       <= tol.case3_band)
    if all(small_B):
        return "case3"
    if any(small_B):
        raise AmbiguousCase("B1 = B2 = 0 at some sampled points only",
                            [d[0] for d, s in zip(data, small_B) if s])
    return "case2"


# ---------------------------------------------------------------------------
# case-2 adaptation

def case2_adapt(cf: Coframe, tol: Tolerances | None = None):
    """Point-local full adaptation for the generic nonconstant-C case.

    Returns (adapted coframe, record).  The input must be one-adapted.
    """
    tol = tol or Tolerances()
    if cf.eps is None:
        raise ValueError("case2_adapt needs a one-adapted coframe")
    eps = cf.eps
    C = compute_C(cf)
    C3_pre, c1_pre, c2_pre = compute_C3(cf, C)
    norm = math.sqrt(c1_pre.value ** 2 + c2_pre.value ** 2 + C3_pre.value ** 2)
    if norm <= tol.critical:
        raise CriticalPoint(f"dC = 0 at {cf.point}")
    if abs(C3_pre.value) <= tol.c3_band * (1.0 + norm):
        raise CriticalPoint(
            f"C3 = {C3_pre.value!r} vanishes at {cf.point}; not a case-2 point")

    # canonical third covector: omega3 := dC / C3  (volume is unchanged
    # because dC's omega3-component is exactly C3)
    w1, w2 = cf.forms[0], cf.forms[1]
    dC = scalar_d(cf.chart, C, stage="case2_adapt(omega3)")
    new3 = dC.scaled(jets.reciprocal(C3_pre))
    frame0 = cf.replace(forms=(w1, w2, new3), stage="case2-adapted")

    d3 = ext_d(new3, stage="case2_adapt(d omega3)")
    b0 = two_form_coeffs(d3, frame0)
    B1_0, B2_0 = b0[(1, 2)], b0[(0, 2)]
    s2 = B1_0 * B1_0 + B2_0 * B2_0
    if s2.value <= tol.case3_band:
        raise DegenerateB(
            f"B1^2+B2^2 = {s2.value!r} at {cf.point}: case-3 data, no rescale")
    s = jets.sqrt(s2)

    w1h, w2h = w1.scaled(s), w2.scaled(s)
    out = Coframe(cf.chart, cf.point, (w1h, w2h, new3), eps=eps,
                  delta=cf.delta, stage="case2-adapted")

    dw1 = ext_d(w1h, stage="case2_adapt(d omega1)")
    dw2 = ext_d(w2h, stage="case2_adapt(d omega2)")
    k1 = two_form_coeffs(dw1, out)
    k2 = two_form_coeffs(dw2, out)
    b = two_form_coeffs(d3, out)
    B1, B2, B3 = b[(1, 2)], b[(0, 2)], b[(0, 1)]
    if abs(B3.value) > 1e-8 * (1.0 + abs(B1.value) + abs(B2.value)):
        raise StructureMismatch(
            f"B3 = {B3.value!r} should vanish (forced by d^2 C = 0)")

    A2 = k1[(0, 1)]
    A1 = -k2[(0, 1)]
    A3 = k1[(0, 2)] + C
    zeta = jets.atan2(B2, B1)

    # C-derivative data relative to the final frame
    C1f, C2f, C3f = one_form_coeffs(dC, out)
    zeta3 = frame_derivative(zeta, out, 2, stage="case2_adapt(zeta3)")

    rec = InvariantRecord(
        point=cf.point, eps=eps, delta=cf.delta, case="case2",
        C=C.value, C1=C1f.value, C2=C2f.value, C3=C3f.value,
        A1=A1.value, A2=A2.value, A3=A3.value,
        B1=B1.value, B2=B2.value, B3=B3.value,
        zeta=zeta.value, zeta3=zeta3.value,
    )
    rec.klass, _ = classify(C.value, eps, tol.linear_band)

    # the displayed first-structure-equation lines as residuals
    res = rec.residuals
    res["domega1_23_minus_1"] = abs(k1[(1, 2)].value - 1.0)
    res["domega2_13_minus_eps"] = abs(k2[(0, 2)].value - eps)
    res["A3_cross_check"] = abs((k2[(1, 2)].value - C.value) - A3.value)
    res["B3"] = abs(B3.value)
    res["B_unit"] = abs(B1.value ** 2 + B2.value ** 2 - 1.0)
    res["C1"] = abs(C1f.value)
    res["C2"] = abs(C2f.value)

    # fitted W of the zeta-derivative display (least squares over 2 equations,
    # delta = +1): zeta1 = W cos(zeta) + A2, zeta2 = -W sin(zeta) - A1
    z1 = frame_derivative(zeta, out, 0, stage="case2_adapt(W fit)").value
    z2 = frame_derivative(zeta, out, 1, stage="case2_adapt(W fit)").value
    cz, sz = math.cos(zeta.value), math.sin(zeta.value)
    W = cz * (z1 - A2.value) - sz * (z2 + A1.value)
    rec.W = W
    res["W_fit"] = math.hypot(z1 - (W * cz + A2.value), z2 - (-W * sz - A1.value))
    return out, rec, {"C": C, "C3": C3f, "zeta": zeta, "zeta3": zeta3,
                      "A1": A1, "A2": A2, "A3": A3, "B1": B1, "B2": B2, "B3": B3}


def case2_adapt_field(fld: CoframeField, points, order, tol=None):
    """Driver: case-2 adapt at each sample; returns (field, records)."""
    tol = tol or Tolerances()
    records, kept = [], {}
    for p in points:
        out, rec, _ = case2_adapt(fld.at(p, order), tol)
        records.append(rec)
        kept[tuple(p), order] = out

    def build(point, order2):
        out, _, _ = case2_adapt(fld.at(point, order2), tol)
        return out

    return CoframeField(fld.chart, build, eps=fld.eps, delta=fld.delta,
                        stage="case2-adapted", frames=kept), records


# ---------------------------------------------------------------------------
# case-1 adaptation

def _torsion_coeffs(frame: Coframe, stage: str):
    dw1 = ext_d(frame.forms[0], stage=stage)
    dw2 = ext_d(frame.forms[1], stage=stage)
    return two_form_coeffs(dw1, frame), two_form_coeffs(dw2, frame)


def case1_adapt(cf: Coframe, tol: Tolerances | None = None):
    """Point-local adaptation for the C3 = 0, dC != 0 case."""
    tol = tol or Tolerances()
    if cf.eps is None:
        raise ValueError("case1_adapt needs a one-adapted coframe")
    eps = cf.eps
    C = compute_C(cf)
    C3_pre, c1_pre, c2_pre = compute_C3(cf, C)
    norm = math.sqrt(c1_pre.value ** 2 + c2_pre.value ** 2 + C3_pre.value ** 2)
    if norm <= tol.critical:
        raise CriticalPoint(f"dC = 0 at {cf.point}")
    if abs(C3_pre.value) > tol.c3_band * (1.0 + norm):
        raise StructureMismatch(
            f"C3 = {C3_pre.value!r} is not zero at {cf.point}; not case-1 data")

    # rescale so C1^2 + C2^2 = 1
    s2 = c1_pre * c1_pre + c2_pre * c2_pre
    if s2.value <= tol.critical:
        raise CriticalPoint(f"C1 = C2 = 0 at {cf.point}")
    s = jets.sqrt(s2)
    w1h, w2h = cf.forms[0].scaled(s), cf.forms[1].scaled(s)
    base = Coframe(cf.chart, cf.point, (w1h, w2h, cf.forms[2]), eps=eps,
                   delta=cf.delta, stage="case1-adapted")
    dC = scalar_d(cf.chart, C, stage="case1_adapt(dC)")
    C1h, C2h, _ = one_form_coeffs(dC, base)
    xi = jets.atan2(C2h, C1h)

    # kill A1, A2 by omega3 -> omega3 + b1 omega1 + b2 omega2.  (A1, A2)
    # depends affinely on the pointwise values of b, so three probes with
    # constant b determine the affine map exactly.
    def probe(b1, b2):
        w3t = base.forms[2] + w1h.scaled(b1) + w2h.scaled(b2)
        trial = base.replace(forms=(w1h, w2h, w3t))
        k1, k2 = _torsion_coeffs(trial, "case1_adapt(probe)")
        return -k2[(0, 1)], k1[(0, 1)]   # (A1, A2) = (-(d omega2)_12, (d omega1)_12)

    dim, order = C.dim, min(f.order for f in base.forms)
    zero = Jet.constant(0.0, dim, order)
    one = Jet.constant(1.0, dim, order)
    a10, a20 = probe(zero, zero)
    a11, a21 = probe(one, zero)
    a12, a22 = probe(zero, one)
    m11, m21 = a11 - a10, a21 - a20
    m12, m22 = a12 - a10, a22 - a20
    det = m11 * m22 - m12 * m21
    if abs(det.value) <= tol.deep:
        raise DegenerateTranslation(
            f"translation system is singular at {cf.point}: "
            f"|A3^2 - C^2 - eps| = {abs(det.value)!r}")
    b1 = (m12 * a20 - m22 * a10) / det
    b2 = (m21 * a10 - m11 * a20) / det

    w3h = base.forms[2] + w1h.scaled(b1) + w2h.scaled(b2)
    out = Coframe(cf.chart, cf.point, (w1h, w2h, w3h), eps=eps,
                  delta=cf.delta, stage="case1-adapted")

    k1, k2 = _torsion_coeffs(out, "case1_adapt(final)")
    A1, A2 = -k2[(0, 1)], k1[(0, 1)]
    A3 = k1[(0, 2)] + C
    d3 = ext_d(w3h, stage="case1_adapt(d omega3)")
    b = two_form_coeffs(d3, out)
    B1, B2, B3 = b[(1, 2)], b[(0, 2)], b[(0, 1)]

    xi3 = frame_derivative(xi, out, 2, stage="case1_adapt(xi3)")
    x1 = frame_derivative(xi, out, 0, stage="case1_adapt(rho fit)").value
    x2 = frame_derivative(xi, out, 1, stage="case1_adapt(rho fit)").value
    cx, sx = math.cos(xi.value), math.sin(xi.value)
    rho = -x1 * sx + x2 * cx        # least squares of xi1 = -rho sin, xi2 = rho cos
    rec = InvariantRecord(
        point=cf.point, eps=eps, delta=cf.delta, case="case1",
        C=C.value, C1=C1h.value, C2=C2h.value, C3=C3_pre.value,
        A1=A1.value, A2=A2.value, A3=A3.value,
        B1=B1.value, B2=B2.value, B3=B3.value,
        xi=xi.value, rho=rho,
    )
    rec.klass, _ = classify(C.value, eps, tol.linear_band)
    res = rec.residuals
    res["domega1_23_minus_1"] = abs(k1[(1, 2)].value - 1.0)
    res["domega2_13_minus_eps"] = abs(k2[(0, 2)].value - eps)
    res["A1"] = abs(A1.value)
    res["A2"] = abs(A2.value)
    res["A3_cross_check"] = abs((k2[(1, 2)].value - C.value) - A3.value)
    res["C_unit"] = abs(C1h.value ** 2 + C2h.value ** 2 - 1.0)
    res["rho_fit"] = math.hypot(x1 + rho * sx, x2 - rho * cx)
    res["translation_det"] = abs(det.value)

    # closed forms available when B3 vanishes
    if abs(B3.value) <= 1e-7:
        xi3_closed = 0.5 * (eps + 1) * math.cos(2 * xi.value) \
            + C.value * math.sin(2 * xi.value) + 0.5 * (1 - eps)
        res["xi3_closed_form"] = abs(xi3.value - xi3_closed)
        A3_closed = C.value * math.cos(2 * xi.value) \
            - 0.5 * (eps + 1) * math.sin(2 * xi.value)
        res["A3_closed_form"] = abs(A3.value - A3_closed)
        den = xi3.value + eps - 1
        if abs(den) > 1e-8:
            res["rho_closed_form"] = abs(rho - math.sin(2 * xi.value) / den)
    return out, rec, {"C": C, "xi": xi, "xi3": xi3,
                      "A1": A1, "A2": A2, "A3": A3,
                      "B1": B1, "B2": B2, "B3": B3, "det": det}


def case1_adapt_field(fld: CoframeField, points, order, tol=None):
    tol = tol or Tolerances()
    records, kept = [], {}
    for p in points:
        out, rec, _ = case1_adapt(fld.at(p, order), tol)
        records.append(rec)
        kept[tuple(p), order] = out

    def build(point, order2):
        return case1_adapt(fld.at(point, order2), tol)[0]

    return CoframeField(fld.chart, build, eps=fld.eps, delta=fld.delta,
                        stage="case1-adapted", frames=kept), records


# ---------------------------------------------------------------------------
# taut transforms

def taut_circle_transform(cf: Coframe, branch=None):
    """Rotate an eps = -1 adapted frame into the taut-circle normal frame.

    ``branch`` optionally pins (sign(1+C), sign(1-C)); the point's own signs
    must match or a BranchError is raised.  Returns (frame, C jet, branch).
    """
    if cf.eps != -1:
        raise EpsilonMismatch("taut_circle_transform needs eps = -1")
    C = compute_C(cf)
    sp = C + 1.0
    sm = 1.0 - C
    here = (1 if sp.value > 0 else -1, 1 if sm.value > 0 else -1)
    if sp.value == 0.0 or sm.value == 0.0:
        raise BranchError(f"|C| = 1 at {cf.point}: transform undefined")
    if branch is not None and branch != here:
        raise BranchError(
            f"sign of (1+C, 1-C) flips to {here} at {cf.point}; region has {branch}")
    w1, w2, w3 = cf.forms
    root2 = math.sqrt(2.0)
    f1 = jets.reciprocal(jets.sqrt(sp * float(here[0])) * root2)
    f2 = jets.reciprocal(jets.sqrt(sm * float(here[1])) * root2)
    eta1 = (w1 + w2).scaled(f1)
    eta2 = (w1 - w2).scaled(f2)
    one_minus_C2 = sp * sm * float(here[0] * here[1])
    eta3 = w3.scaled(-jets.sqrt(one_minus_C2))
    out = Coframe(cf.chart, cf.point, (eta1, eta2, eta3), eps=cf.eps,
                  delta=cf.delta, stage="taut-circle")
    return out, C, here


def taut_circle_field(fld: CoframeField, points, order):
    """Driver: fix the (1+C, 1-C) sign branch over the region."""
    branch, kept = None, {}
    for p in points:
        out, _, here = taut_circle_transform(fld.at(p, order))
        kept[tuple(p), order] = out
        if branch is None:
            branch = here
        elif here != branch:
            raise BranchError(
                f"sign branch of (1+C, 1-C) is {here} at {tuple(p)}, "
                f"{branch} elsewhere in the region")

    def build(point, order2):
        return taut_circle_transform(fld.at(point, order2), branch)[0]

    return CoframeField(fld.chart, build, eps=fld.eps, delta=fld.delta,
                        stage="taut-circle", frames=kept), branch


def circle_volume_coefficient(cf: Coframe, taut: Coframe, a1: float, a2: float):
    """(eta_a ^ d eta_a) / Omega for a constant coefficient pair (a1, a2)."""
    eta_a = taut.forms[0].scaled(a1) + taut.forms[1].scaled(a2)
    num = wedge(eta_a, ext_d(eta_a, stage="taut_circle(volume)"))
    return top_ratio(num, cf.volume())


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
    e1, e2 = taut.forms[0], taut.forms[1]
    mixed = wedge(e1, ext_d(e2, stage="taut_circle(mixed)")) + \
        wedge(e2, ext_d(e1, stage="taut_circle(mixed)"))
    return top_ratio(mixed, cf.volume())


def taut_hyperbola_transform(cf: Coframe):
    """Rotate an eps = +1 adapted frame by the hyperbolic half-angle of C."""
    if cf.eps != 1:
        raise EpsilonMismatch("taut_hyperbola_transform needs eps = +1")
    C = compute_C(cf)
    theta = jets.asinh(C)
    ch, sh = jets.cosh(theta * 0.5), jets.sinh(theta * 0.5)
    inv = jets.reciprocal(jets.cosh(theta))
    w1, w2, w3 = cf.forms
    eta1 = (w1.scaled(ch) + w2.scaled(sh)).scaled(inv)
    eta2 = (w1.scaled(-sh) + w2.scaled(ch)).scaled(inv)
    out = Coframe(cf.chart, cf.point, (eta1, eta2, w3), eps=cf.eps,
                  delta=cf.delta, stage="taut-hyperbola")
    return out, C, theta


def hyperbola_residuals(cf: Coframe, taut: Coframe, C: Jet, theta: Jet):
    """Residuals of the two displayed volume identities of the hyperbolic
    rotation, plus the mixed-volume defect and its ratio to C3."""
    Omega = cf.volume()
    w12 = wedge(cf.forms[0], cf.forms[1])
    dtheta = scalar_d(cf.chart, theta, stage="taut_hyperbola(residuals)")
    corr = wedge(w12, dtheta).scaled(
        jets.reciprocal(jets.cosh(theta) * jets.cosh(theta) * 2.0))
    eta1, eta2 = taut.forms[0], taut.forms[1]
    v1 = wedge(eta1, ext_d(eta1, stage="taut_hyperbola(v1)"))
    v2 = wedge(eta2, ext_d(eta2, stage="taut_hyperbola(v2)"))
    r1 = top_ratio(v1 - (Omega - corr), Omega)
    r2 = top_ratio(v2 - (Omega.scaled(-1.0) - corr), Omega)
    mixed = wedge(eta1, ext_d(eta2, stage="taut_hyperbola(mixed)")) + \
        wedge(eta2, ext_d(eta1, stage="taut_hyperbola(mixed)"))
    defect = top_ratio(mixed, Omega)
    return abs(r1.value), abs(r2.value), defect


# ---------------------------------------------------------------------------
# fully symmetric reduction

def cartan_structure_check(fld: CoframeField, points, order,
                           tol: Tolerances | None = None):
    """Detect the reduction with d omega1 = omega2^omega3, d omega2 =
    eps omega1^omega3, d omega3 = K omega1^omega2.

    Returns None when the region fails the symmetry test; otherwise a dict
    with K values and residuals per point.
    """
    tol = tol or Tolerances()
    out = {"eps": fld.eps, "points": [], "K": [], "residuals": []}
    for p in points:
        cf = fld.at(p, order)
        w1, w2, w3 = cf.forms
        Omega = cf.volume()
        s1 = top_ratio(wedge(w1, ext_d(w2, stage="cartan_check")), Omega)
        s2 = top_ratio(wedge(w2, ext_d(w1, stage="cartan_check")), Omega)
        if abs(s1.value) > tol.shallow or abs(s2.value) > tol.shallow:
            return None
    eps = fld.eps

    for p in points:
        cf = fld.at(p, order)
        w1, w2, w3 = cf.forms
        k1, k2 = _torsion_coeffs(cf, "cartan_check(torsion)")
        A1, A2 = -k2[(0, 1)], k1[(0, 1)]
        w3h = w3 + w1.scaled(-A2) + w2.scaled(A1 * (-float(eps)))
        frame = cf.replace(forms=(w1, w2, w3h), stage="cartan")
        d3 = ext_d(w3h, stage="cartan_check(d omega3)")
        c = two_form_coeffs(d3, frame)
        c23, c13, K = c[(1, 2)], c[(0, 2)], c[(0, 1)]
        dw1 = ext_d(w1, stage="cartan_check(res)")
        dw2 = ext_d(w2, stage="cartan_check(res)")
        t1 = dw1 - wedge(w2, w3h)
        t2 = dw2 - wedge(w1, w3h).scaled(float(eps))
        res = {
            "domega1": t1.max_abs_value(),
            "domega2": t2.max_abs_value(),
            "domega3_13": abs(c13.value),
            "domega3_23": abs(c23.value),
        }
        dK = scalar_d(cf.chart, K, stage="cartan_check(dK)")
        res["dK_wedge_12"] = abs(top_ratio(
            wedge_all(dK, w1, w2), frame.volume()).value)
        out["points"].append(tuple(p))
        out["K"].append(K.value)
        out["residuals"].append(res)
    return out


# ---------------------------------------------------------------------------
# invariant coordinates from (C, C3, C33)

def invariant_coords(cf2: Coframe, tol: Tolerances | None = None):
    """On a case-2 adapted frame: the C-coordinate volume identity.

    Returns a dict with C, C3, C33, C333, the honest ratio
    (dC ^ dC3 ^ dC33)/Omega, its closed-form prediction, and the comparison
    of dC ^ dC3 against its displayed coframe expansion.
    """
    tol = tol or Tolerances()
    if cf2.stage != "case2-adapted":
        raise ValueError("invariant_coords needs a case2-adapted frame")
    eps, delta = cf2.eps, cf2.delta
    C = compute_C(cf2)
    dC = scalar_d(cf2.chart, C, stage="invariant_coords(dC)")
    _c1, _c2, C3 = one_form_coeffs(dC, cf2)
    C33 = frame_derivative(C3, cf2, 2, stage="invariant_coords(C33)")
    C333 = frame_derivative(C33, cf2, 2, stage="invariant_coords(C333)")
    dC3 = scalar_d(cf2.chart, C3, stage="invariant_coords(dC3)")
    dC33 = scalar_d(cf2.chart, C33, stage="invariant_coords(dC33)")
    lhs = top_ratio(wedge_all(dC, dC3, dC33), cf2.volume())

    d3 = ext_d(cf2.forms[2], stage="invariant_coords(d omega3)")
    b = two_form_coeffs(d3, cf2)
    B1, B2 = b[(1, 2)], b[(0, 2)]
    zeta = jets.atan2(B2, B1)
    zeta3 = frame_derivative(zeta, cf2, 2, stage="invariant_coords(zeta3)")
    cz = math.cos(zeta.value)
    sz = math.sin(zeta.value)
    predicted = -C3.value ** 3 * (
        1.0 - (1 + eps) * cz * cz + 2.0 * delta * C.value * sz * cz
        + delta * zeta3.value)

    pair = wedge(dC, dC3)
    pc = two_form_coeffs(pair, cf2)
    pair_res = {
        "coeff_13_minus_C3sq_sin": abs(pc[(0, 2)].value - C3.value ** 2 * sz),
        "coeff_23_minus_delta_C3sq_cos": abs(pc[(1, 2)].value - delta * C3.value ** 2 * cz),
        "coeff_12": abs(pc[(0, 1)].value),
    }
    degenerate = abs(lhs.value) <= tol.deep * max(1.0, abs(C3.value) ** 3)
    return {
        "C": C.value, "C3": C3.value, "C33": C33.value, "C333": C333.value,
        "zeta": zeta.value, "zeta3": zeta3.value,
        "volume_ratio": lhs.value, "predicted": predicted,
        "identity_residual": abs(lhs.value - predicted),
        "pair_expansion_residuals": pair_res,
        "degenerate": degenerate,
    }


# ---------------------------------------------------------------------------
# umbrella driver

def analyze(fld: CoframeField, points, order, tol: Tolerances | None = None):
    """Run the full pipeline over a sample set.

    Returns a dict: eps, case, per-point records, and (for constant C) the
    classification summary.  Case-specific adaptation failures propagate.
    """
    tol = tol or Tolerances()
    adapted = one_adapt(fld, points, order, tol)
    case = case_detect(adapted, points, order, tol)
    result = {"eps": adapted.eps, "delta": adapted.delta, "case": case,
              "records": [], "field": adapted}
    if case in ("constantC", "case3"):
        for p in points:
            cf = adapted.at(p, order)
            C, C3, c1, c2, _ = _dC_data(cf, tol)
            rec = InvariantRecord(point=tuple(p), eps=adapted.eps,
                                  delta=adapted.delta, case=case,
                                  C=C.value, C1=c1.value, C2=c2.value,
                                  C3=C3.value)
            rec.klass, _ = classify(C.value, adapted.eps, tol.linear_band)
            result["records"].append(rec)
    elif case == "case1":
        field1, records = case1_adapt_field(adapted, points, order, tol)
        result["records"] = records
        result["adapted_field"] = field1
    else:
        field2, records = case2_adapt_field(adapted, points, order, tol)
        result["records"] = records
        result["adapted_field"] = field2
    return result
