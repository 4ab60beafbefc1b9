"""Invariant extraction, case detection, classification, and their guards."""

import numpy as np
import pytest

from bicontact import pipeline
from bicontact.errors import AmbiguousCase, ContactFailure, MixedEpsilon
from bicontact.examples import build_example
from bicontact.forms import Chart, coframe_field_from_expressions
from bicontact.jets import _value
from bicontact.pipeline import (Tolerances, analyze, case2_adapt, case_detect,
                                classify, compute_C, invariant_coords)
from conftest import box_points, one_adapted_block

TOL = Tolerances()


def _points(spec, n=6, seed=11):
    return box_points(spec.box, n, seed=seed)


def test_classify_truth_table():
    # eps=+1 is hyperbolic for every C; eps=-1 splits at |C|=1
    for c in (-3.0, 0.0, 0.4, 10.0):
        tag, q = classify(c, 1)
        assert tag == "hyperbolic"
        assert q.coefficients == (1.0, -1.0, 2.0 * c)
    assert classify(0.0, -1)[0] == "elliptic"
    assert classify(0.97, -1)[0] == "elliptic"
    assert classify(-2.5, -1)[0] == "hyperbolic"
    for c in (1.0, -1.0, 1.0 + 1e-12, -1.0 + 1e-11):
        tag, q = classify(c, -1)
        assert tag == "linear"
    # just outside the band classifies normally again
    assert classify(1.0 + 1e-6, -1)[0] == "hyperbolic"
    assert classify(1.0 - 1e-6, -1)[0] == "elliptic"


def test_case_tags_across_examples():
    table = {
        "hyp_c3": "case3",
        "torus_constC": "constantC",
        "normal_form_3d": "case2",
        "eta_frame": "case2",
        "sphere_frame": "constantC",
    }
    for name, want in table.items():
        spec = build_example(name)
        out = analyze(spec.coframes(), _points(spec), 6, TOL)
        assert out["case"] == want, name
        assert out["eps"] == spec.expected["eps"], name


def test_invariant_closed_forms():
    spec = build_example("hyp_c3")
    out = analyze(spec.coframes(), _points(spec), 6, TOL)
    for rec in out["records"]:
        assert rec.C == pytest.approx(rec.point[2], abs=1e-10)
        assert rec.eps == -1

    eta = build_example("eta_frame")
    out = analyze(eta.coframes(), _points(eta), 6, TOL)
    for rec in out["records"]:
        x, y, _ = rec.point
        assert rec.C == pytest.approx(1.0 / (np.sin(2 * x) * y), abs=1e-9)

    sph = build_example("sphere_frame")
    out = analyze(sph.coframes(), _points(sph), 6, TOL)
    for rec in out["records"]:
        assert abs(rec.C) < 1e-10


def test_constant_invariant_has_zero_spread():
    spec = build_example("torus_constC", psi=0.3)
    out = analyze(spec.coframes(), _points(spec, n=10), 6, TOL)
    cs = np.array([rec.C for rec in out["records"]])
    assert cs.mean() == pytest.approx(np.sinh(0.6), abs=1e-10)
    assert cs.std() < 1e-12
    assert out["case"] == "constantC"
    assert all(rec.klass == "hyperbolic" for rec in out["records"])


def test_compute_C_on_adapted_frame():
    spec = build_example("hyp_c3", eps=1, c3="1+z^2")
    pts = _points(spec, n=3)
    C = compute_C(one_adapted_block(spec.coframes(), pts, 6))
    assert _value(C) == pytest.approx([p[2] for p in pts], abs=1e-10)


def test_homothety_invariance():
    """Independently rescaling each covector by positive functions leaves
    the invariant, the case tag and the classification unchanged."""
    spec = build_example("hyp_c3")
    scales = ["(1+x^2/4)", "exp(y/5)", "(2+sin(x))"]
    rows2 = [{k: f"({s})*({v})" for k, v in row.items()}
             for s, row in zip(scales, spec.rows)]
    fld1 = spec.coframes()
    fld2 = coframe_field_from_expressions(spec.chart, rows2,
                                          params=spec.params)
    pts = _points(spec, n=8, seed=2)
    out1 = analyze(fld1, pts, 6, TOL)
    out2 = analyze(fld2, pts, 6, TOL)
    assert out1["case"] == out2["case"]
    for a, b in zip(out1["records"], out2["records"]):
        assert abs(a.C - b.C) < 1e-9
        assert a.klass == b.klass


def test_invariant_coordinate_identity():
    spec = build_example("eta_frame")
    pts = box_points(spec.box, 4, seed=7)
    adapted, rec, extras = case2_adapt(
        one_adapted_block(spec.coframes(), pts, 8))
    info = invariant_coords(adapted, TOL)
    assert not info["degenerate"].any()
    assert np.all(info["identity_residual"] < 1e-6)
    assert info["volume_ratio"] == pytest.approx(info["predicted"], abs=1e-6)
    assert info["C"] == pytest.approx(_value(extras["C"]), abs=1e-9)


def _dC_norm(cf):
    return pipeline._dC_data(cf)[4]


def _C3_ratio(cf):
    _, C3, _, _, norm = pipeline._dC_data(cf)
    return abs(_value(C3)) / (1.0 + norm)


def _B_square(cf):
    b = pipeline._omega3_frame(cf, "test")[2]
    return _value(b[(1, 2)]) ** 2 + _value(b[(0, 2)]) ** 2


@pytest.mark.parametrize("band,measure,what", [
    ("FLAT_DC", _dC_norm, "dC vanishes"),
    ("C3_BAND", _C3_ratio, "C3 = 0"),
    ("CASE3_BAND", _B_square, "B1 = B2 = 0"),
], ids=["flat", "C3", "B"])
def test_case_detect_names_the_samples_that_disagree(monkeypatch, band,
                                                     measure, what):
    # a band between the samples' own values flags some of them only
    spec = build_example("normal_form_3d")
    pts = _points(spec, 4)
    adapted = one_adapted_block(spec.coframes(), pts, 6)
    values = measure(adapted).tolist()
    low, high = sorted(values)[1:3]
    monkeypatch.setattr(pipeline, band, 0.5 * (low + high))
    with pytest.raises(AmbiguousCase) as err:
        case_detect([adapted])
    assert str(err.value).startswith(f"{what} at some sampled points only")
    assert err.value.points == [p for p, v in zip(pts, values) if v <= low]


def test_mixed_epsilon_raises():
    ch = Chart(("x", "y", "z"))
    rows = [{"dx": "1", "dz": "y"},
            {"dy": "1", "dx": "z^2/2"},
            {"dz": "1"}]
    fld = coframe_field_from_expressions(ch, rows)
    with pytest.raises(MixedEpsilon):
        analyze(fld, [(0.1, 0.2, 0.5), (0.3, -0.1, -0.5)], 5, TOL)


def test_contact_failure_raises():
    ch = Chart(("x", "y", "z"))
    rows = [{"dx": "1"}, {"dy": "1", "dx": "z^2/2"}, {"dz": "1"}]
    fld = coframe_field_from_expressions(ch, rows)
    with pytest.raises(ContactFailure):
        one_adapted_block(fld, [(0.1, 0.2, 0.5)], 5)


def test_analyze_record_contents():
    spec = build_example("hyp_c3")
    pts = _points(spec, n=4)
    out = analyze(spec.coframes(), pts, 6, TOL)
    assert out["eps"] == -1
    assert len(out["records"]) == len(pts)
    for rec, p in zip(out["records"], pts):
        assert rec.point == tuple(p)
        assert rec.case == "case3"
        assert rec.klass in ("elliptic", "hyperbolic", "linear")
        assert isinstance(rec.residuals, dict)
        if rec.residuals:
            assert max(rec.residuals.values()) < 1e-9
