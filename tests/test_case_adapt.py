"""Full adaptation in the two nonconstant-invariant cases, plus the guards
that route degenerate data to the right error."""

import math

import pytest

from bicontact import jets
from bicontact.errors import CriticalPoint, DegenerateB, StructureMismatch
from bicontact.examples import build_example
from bicontact.forms import unstack
from bicontact.inputfile import load_coframe
from bicontact.jets import Jet
from bicontact.pipeline import (Tolerances, _dC_data, analyze, case1_adapt,
                                case2_adapt, case_detect)
from conftest import DATA, box_points, one_adapted_frames

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
    frames = one_adapted_frames(spec.coframes(), pts, 8)
    for p, cf in zip(pts, frames):
        out, rec, extras = case2_adapt(cf)
        x = p[0]
        want_C = 1.0 / math.tan(2 * x) if eps == 1 else -1.0 / math.sin(2 * x)
        assert rec.C == pytest.approx(want_C, abs=1e-9)
        assert abs(rec.A1) < 1e-8 and abs(rec.A2) < 1e-8
        assert set(rec.residuals) == CASE2_KEYS
        assert max(rec.residuals.values()) < 1e-7
        assert out.stage == "case2-adapted"
        assert extras["A3"].value == pytest.approx(rec.A3)


def test_case2_on_eta_frame():
    spec = build_example("eta_frame")
    pts = box_points(spec.box, 4, seed=22)
    frames = one_adapted_frames(spec.coframes(), pts, 8)
    for p, cf in zip(pts, frames):
        _, rec, extras = case2_adapt(cf)
        x, y, _ = p
        assert rec.C == pytest.approx(1.0 / (math.sin(2 * x) * y), abs=1e-9)
        assert rec.residuals["B_unit"] < 1e-8
        assert rec.residuals["domega1_23_minus_1"] < 1e-8
        assert rec.residuals["domega2_13_minus_eps"] < 1e-8
        assert rec.residuals["A3_cross_check"] < 1e-7
        want = "elliptic" if abs(rec.C) < 1 else "hyperbolic"
        assert rec.klass == want
        # B-phase consistency: (B1, B2) = (cos zeta, sin zeta)
        assert extras["B1"].value == pytest.approx(math.cos(rec.zeta), abs=1e-9)
        assert extras["B2"].value == pytest.approx(math.sin(rec.zeta), abs=1e-9)


def test_case1_fixture_closed_form_invariant():
    fld = load_coframe(DATA / "case1_frame.txt")
    pts = [(0.3, -0.4, 0.2), (-0.5, 0.6, -0.3), (0.1, 0.7, 0.5),
           (-0.2, -0.6, -0.7)]
    adapted = one_adapted_frames(fld, pts, 8)
    assert all(cf.eps == -1 for cf in adapted)
    assert case_detect(adapted) == "case1"
    for p, cf in zip(pts, adapted):
        out, rec, extras = case1_adapt(cf, TOL)
        assert rec.C == pytest.approx(math.cos(_beta(p[0], p[1])), abs=1e-12)
        assert abs(rec.A1) < 1e-12 and abs(rec.A2) < 1e-12
        assert set(rec.residuals) == CASE1_KEYS  # B3 large: no closed forms
        assert rec.residuals["domega1_23_minus_1"] < 1e-12
        assert rec.residuals["domega2_13_minus_eps"] < 1e-12
        assert rec.residuals["A3_cross_check"] < 1e-11
        assert rec.residuals["C_unit"] < 1e-12
        assert rec.residuals["rho_fit"] < 1e-11
        assert abs(extras["det"].value) > 0.1
        assert abs(rec.B3) > 1.0
        assert rec.klass == "elliptic"
        assert out.stage == "case1-adapted"
        assert extras["det"].value == pytest.approx(
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
    zero, one = (Jet.constant(v, cf.dim, order) for v in (0.0, 1.0))
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
    """Largest coefficient deviation over the jet's max-norm (at least 1)."""
    return float(abs(got.c - want.c).max() / max(1.0, abs(want.c).max()))


@pytest.mark.parametrize("order", [5, 8])
def test_case1_closed_form_translation_matches_the_probe_solve(order):
    # the closed form reads the same affine map off the base frame's
    # tables, so it agrees with the probe frames to rounding (3.5e-14
    # relative at most on these points)
    fld = load_coframe(DATA / "case1_frame.txt")
    pts = [(0.3, -0.4, 0.2), (-0.5, 0.6, -0.3), (0.1, 0.7, 0.5),
           (-0.2, -0.6, -0.7)]
    for cf in one_adapted_frames(fld, pts, order):
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
    assert [cf.point for cf in unstack(block)] == pts


def test_case1_on_case2_data_raises():
    spec = build_example("eta_frame")
    pts = box_points(spec.box, 2, seed=23)
    frames = one_adapted_frames(spec.coframes(), pts, 8)
    with pytest.raises(StructureMismatch):
        case1_adapt(frames[0], TOL)


def test_case2_on_case1_data_raises():
    fld = load_coframe(DATA / "case1_frame.txt")
    pts = [(0.3, -0.4, 0.2)]
    adapted = one_adapted_frames(fld, pts, 8)
    with pytest.raises(CriticalPoint):
        case2_adapt(adapted[0])


def test_case2_on_case3_data_raises():
    spec = build_example("hyp_c3")
    pts = [(0.1, 0.2, 0.4)]
    frames = one_adapted_frames(spec.coframes(), pts, 7)
    with pytest.raises(DegenerateB):
        case2_adapt(frames[0])


def test_case2_at_critical_point_raises():
    spec = build_example("torus_constC")
    pts = [(0.3, 0.1, 0.2)]
    frames = one_adapted_frames(spec.coframes(), pts, 7)
    with pytest.raises(CriticalPoint):
        case2_adapt(frames[0])
