"""Full adaptation in the two nonconstant-invariant cases, plus the guards
that route degenerate data to the right error."""

import math

import pytest

from bicontact import jets
from bicontact.errors import CriticalPoint, DegenerateB, StructureMismatch
from bicontact.examples import build_example
from bicontact.inputfile import load_coframe
from bicontact.jets import Jet, _value
from bicontact.pipeline import (Tolerances, _dC_data, _points, _split_record,
                                analyze, case1_adapt, case2_adapt,
                                case_detect)
from conftest import DATA, box_points, one_adapted_block

TOL = Tolerances()

CASE2_KEYS = {"domega1_23_minus_1", "domega2_13_minus_eps", "A3_cross_check",
              "B3", "B_unit", "C1", "C2", "W_fit"}
CASE1_KEYS = {"domega1_23_minus_1", "domega2_13_minus_eps", "A1", "A2",
              "A3_cross_check", "C_unit", "rho_fit"}


def _beta(x, y):
    return 0.7 + 0.3 * math.sin(x) * math.cos(y)


@pytest.mark.parametrize("eps", [1, -1])
def test_case2_on_normal_form(eps):
    spec = build_example("normal_form_3d", eps=eps, f="sin(x)", g="exp(x)")
    pts = box_points(spec.box, 4, seed=21)
    out, stacked, extras = case2_adapt(
        one_adapted_block(spec.coframes(), pts, 8))
    assert out.stage == "case2-adapted"
    A3 = _value(extras["A3"]).tolist()
    for k, (p, rec) in enumerate(zip(pts, _split_record(stacked))):
        x = p[0]
        want_C = 1.0 / math.tan(2 * x) if eps == 1 else -1.0 / math.sin(2 * x)
        assert rec.C == pytest.approx(want_C, abs=1e-9)
        assert abs(rec.A1) < 1e-8 and abs(rec.A2) < 1e-8
        assert set(rec.residuals) == CASE2_KEYS
        assert max(rec.residuals.values()) < 1e-7
        assert A3[k] == pytest.approx(rec.A3)


def test_case2_on_eta_frame():
    spec = build_example("eta_frame")
    pts = box_points(spec.box, 4, seed=22)
    _, stacked, extras = case2_adapt(
        one_adapted_block(spec.coframes(), pts, 8))
    B1, B2 = (_value(extras[key]).tolist() for key in ("B1", "B2"))
    for k, (p, rec) in enumerate(zip(pts, _split_record(stacked))):
        x, y, _ = p
        assert rec.C == pytest.approx(1.0 / (math.sin(2 * x) * y), abs=1e-9)
        assert rec.residuals["B_unit"] < 1e-8
        assert rec.residuals["domega1_23_minus_1"] < 1e-8
        assert rec.residuals["domega2_13_minus_eps"] < 1e-8
        assert rec.residuals["A3_cross_check"] < 1e-7
        want = "elliptic" if abs(rec.C) < 1 else "hyperbolic"
        assert rec.klass == want
        # B-phase consistency: (B1, B2) = (cos zeta, sin zeta)
        assert B1[k] == pytest.approx(math.cos(rec.zeta), abs=1e-9)
        assert B2[k] == pytest.approx(math.sin(rec.zeta), abs=1e-9)


def test_case1_fixture_closed_form_invariant():
    fld = load_coframe(DATA / "case1_frame.txt")
    pts = [(0.3, -0.4, 0.2), (-0.5, 0.6, -0.3), (0.1, 0.7, 0.5),
           (-0.2, -0.6, -0.7)]
    adapted = one_adapted_block(fld, pts, 8)
    assert adapted.eps == -1
    assert case_detect([adapted]) == "case1"
    out, stacked, extras = case1_adapt(adapted, TOL)
    assert out.stage == "case1-adapted"
    det = _value(extras["det"]).tolist()
    for k, (p, rec) in enumerate(zip(pts, _split_record(stacked))):
        assert rec.C == pytest.approx(math.cos(_beta(p[0], p[1])), abs=1e-12)
        assert abs(rec.A1) < 1e-12 and abs(rec.A2) < 1e-12
        assert set(rec.residuals) == CASE1_KEYS  # B3 large: no closed forms
        assert rec.residuals["domega1_23_minus_1"] < 1e-12
        assert rec.residuals["domega2_13_minus_eps"] < 1e-12
        assert rec.residuals["A3_cross_check"] < 1e-11
        assert rec.residuals["C_unit"] < 1e-12
        assert rec.residuals["rho_fit"] < 1e-11
        assert abs(det[k]) > 0.1
        assert abs(rec.B3) > 1.0
        assert rec.klass == "elliptic"
        assert det[k] == pytest.approx(
            rec.A3 ** 2 - rec.C ** 2 + 1.0, abs=1e-9)


def _probe_translation(cf):
    """The three-probe solve that the closed form replaced, kept as its
    oracle: (A1, A2) is affine in the constant translation (b1, b2) of
    omega3 -> omega3 + b1 omega1 + b2 omega2, so trial frames at b = (0, 0),
    (1, 0) and (0, 1) fix the map.  Returns (the adapted omega3, det)."""
    _, _, c1, c2, _ = _dC_data(cf)
    s = jets.sqrt(c1 * c1 + c2 * c2)
    w1h, w2h = cf.forms[0].scaled(s), cf.forms[1].scaled(s)
    w3 = cf.forms[2]

    def probe(b1, b2):
        trial = cf.replace(
            forms=(w1h, w2h, w3 + w1h.scaled(b1) + w2h.scaled(b2)))
        k1, k2 = trial.d_coeffs(0), trial.d_coeffs(1)
        return -k2[(0, 1)], k1[(0, 1)]

    order = min(f.order for f in (w1h, w2h, w3))
    zero, one = (Jet.constant([v] * len(cf.point[0]), cf.dim, order)
                 for v in (0.0, 1.0))
    a10, a20 = probe(zero, zero)
    a11, a21 = probe(one, zero)
    a12, a22 = probe(zero, one)
    m11, m21 = a11 - a10, a21 - a20
    m12, m22 = a12 - a10, a22 - a20
    det = m11 * m22 - m12 * m21
    b1 = (m12 * a20 - m22 * a10) / det
    b2 = (m21 * a10 - m11 * a20) / det
    return w3 + w1h.scaled(b1) + w2h.scaled(b2), det


def _rel_dev(got: Jet, want: Jet) -> float:
    """Largest coefficient deviation over the jet's max-norm (at least 1),
    over all its points."""
    return float(abs(got.c - want.c).max() / max(1.0, abs(want.c).max()))


@pytest.mark.parametrize("order", [5, 8])
def test_case1_closed_form_translation_matches_the_probe_solve(order):
    # the closed form reads the same affine map off the base frame's
    # tables, so it agrees with the probe frames to rounding (3.5e-14
    # relative at most on these points)
    fld = load_coframe(DATA / "case1_frame.txt")
    pts = [(0.3, -0.4, 0.2), (-0.5, 0.6, -0.3), (0.1, 0.7, 0.5),
           (-0.2, -0.6, -0.7)]
    cf = one_adapted_block(fld, pts, order)
    out, _, extras = case1_adapt(cf, TOL)
    w3, det = _probe_translation(cf)
    assert _rel_dev(extras["det"], det) <= 1e-12
    assert sorted(out.forms[2].coeffs) == sorted(w3.coeffs)
    for key, coeff in w3.coeffs.items():
        assert _rel_dev(out.forms[2].coeffs[key], coeff) <= 1e-12


def test_analyze_routes_case1():
    fld = load_coframe(DATA / "case1_frame.txt")
    pts = [(0.25, -0.35, 0.15), (-0.45, 0.55, -0.25)]
    out = analyze(fld, pts, 8, TOL)
    assert out["case"] == "case1"
    assert out["eps"] == -1
    assert len(out["records"]) == 2
    assert "adapted_blocks" in out
    (block,) = out["adapted_blocks"]
    assert block.stage == "case1-adapted"
    assert _points(block) == pts


def test_case1_on_case2_data_raises():
    spec = build_example("eta_frame")
    pts = box_points(spec.box, 2, seed=23)
    with pytest.raises(StructureMismatch):
        case1_adapt(one_adapted_block(spec.coframes(), pts, 8), TOL)


def test_case2_on_case1_data_raises():
    fld = load_coframe(DATA / "case1_frame.txt")
    pts = [(0.3, -0.4, 0.2)]
    with pytest.raises(CriticalPoint):
        case2_adapt(one_adapted_block(fld, pts, 8))


def test_case2_on_case3_data_raises():
    spec = build_example("hyp_c3")
    pts = [(0.1, 0.2, 0.4)]
    with pytest.raises(DegenerateB):
        case2_adapt(one_adapted_block(spec.coframes(), pts, 7))


def test_case2_at_critical_point_raises():
    spec = build_example("torus_constC")
    pts = [(0.3, 0.1, 0.2)]
    with pytest.raises(CriticalPoint):
        case2_adapt(one_adapted_block(spec.coframes(), pts, 7))
