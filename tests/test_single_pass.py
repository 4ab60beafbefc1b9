"""Drivers keep the frames they build at their sample points.

Every later stage that asks a driver's field for a sample point at the
driver's order gets the kept frame, so expression evaluation, adaptation
and curvature run once per point.  Any other point or order is still built
from scratch and must agree bit for bit with a fresh build.
"""

import io
from contextlib import redirect_stdout

import pytest

from bicontact import cli, curvature, expressions, pipeline
from bicontact.examples import build_example
from bicontact.pipeline import Tolerances, _one_adapt_point, analyze, one_adapt

from conftest import box_points

TOL = Tolerances()


def _counting(monkeypatch, owner, name, *aliases):
    """Count calls of ``owner.name``, also through ``(module, attr)`` aliases."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module, attr in ((owner, name),) + aliases:
        monkeypatch.setattr(module, attr, wrapper)
    return calls


def _frame_bytes(cf):
    return [f.coeffs[k].c.tobytes() for f in cf.forms for k in sorted(f.coeffs)]


def _normal_form_points(n):
    return box_points(build_example("normal_form_3d").box, n, seed=11)


def test_analyze_evaluates_and_adapts_each_point_once(monkeypatch):
    spec = build_example("normal_form_3d")
    pts = _normal_form_points(5)
    evals = _counting(monkeypatch, expressions, "eval_jet")
    adapts = _counting(monkeypatch, pipeline, "case2_adapt")
    result = analyze(spec.coframes(), pts, 6, TOL)
    assert result["case"] == "case2"
    assert len(evals) == 7 * 5
    assert len(adapts) == 5


def test_curvature_command_computes_curvature_once_per_point(monkeypatch):
    calls = _counting(monkeypatch, curvature, "curvature",
                      (cli, "curvature_of"))
    with redirect_stdout(io.StringIO()):
        assert cli.main(["curvature", "normal_form_3d", "--points", "5"]) == 0
    assert len(calls) == 5


def test_kept_frames_are_bounded_by_the_sample_list():
    spec = build_example("normal_form_3d")
    raw = spec.coframes()
    assert len(raw.frames) == 0
    pts = _normal_form_points(3)
    fld = one_adapt(raw, pts, 6, TOL)
    assert set(fld.frames) == {(p, 6) for p in pts}
    fld.at((0.5, 1.0, 0.0), 6)
    fld.at(pts[0], 5)
    assert len(fld.frames) == 3
    with pytest.raises(TypeError):
        fld.frames[((0.5, 1.0, 0.0), 6)] = fld.at(pts[0], 6)
    assert fld.at(pts[1], 6) is fld.frames[(pts[1], 6)]


@pytest.mark.parametrize("point,order", [((0.5, 1.0, 0.0), 6), (None, 5)],
                         ids=["off_sample", "other_order"])
def test_unkept_requests_match_a_fresh_build(point, order):
    spec = build_example("normal_form_3d")
    pts = _normal_form_points(3)
    fld = one_adapt(spec.coframes(), pts, 6, TOL)
    point = pts[0] if point is None else point
    fresh, _, _, _ = _one_adapt_point(spec.coframes().at(point, order), TOL)
    got = fld.at(point, order)
    assert got is not fresh
    assert got.eps == fresh.eps and got.stage == fresh.stage
    assert _frame_bytes(got) == _frame_bytes(fresh)


def test_kept_frames_match_a_fresh_build():
    spec = build_example("normal_form_3d")
    pts = _normal_form_points(3)
    adapted = one_adapt(spec.coframes(), pts, 6, TOL)
    field2, _ = pipeline.case2_adapt_field(adapted, pts, 6, TOL)
    for p in pts:
        one, _, _, _ = _one_adapt_point(spec.coframes().at(p, 6), TOL)
        two, _, _ = pipeline.case2_adapt(one, TOL)
        assert _frame_bytes(adapted.at(p, 6)) == _frame_bytes(one)
        assert _frame_bytes(field2.at(p, 6)) == _frame_bytes(two)
