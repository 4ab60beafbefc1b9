"""Taut rotations: circle frame for eps=-1, hyperbola frame for eps=+1, on
stacked blocks of one-adapted frames."""

import math

import numpy as np
import pytest

from bicontact import forms, pipeline
from bicontact.errors import BranchError, EpsilonMismatch
from bicontact.examples import build_example
from bicontact.jets import _value
from bicontact.pipeline import (circle_volume_coefficient, compute_C3,
                                hyperbola_residuals, mixed_circle_coefficient,
                                one_adapt, predicted_circle_coefficient,
                                taut_circle_field, taut_circle_transform,
                                taut_hyperbola_transform)
from conftest import box_points, one_adapted_block

INSIDE = ((-0.8, 0.8), (-0.8, 0.8), (-0.85, 0.85))
OUTSIDE = ((-0.8, 0.8), (-0.8, 0.8), (1.1, 1.7))

UNIT_AS = [(float(np.cos(t)), float(np.sin(t)))
           for t in np.linspace(0.0, 2 * np.pi, 20, endpoint=False)]


def _adapted(spec, pts, order=7):
    return one_adapted_block(spec.coframes(), pts, order)


def _circle(spec, pts, order=7):
    """The one block of the taut-circle field at ``pts``, its taut frame
    and its branch."""
    cf = _adapted(spec, pts, order)
    branch = taut_circle_field([cf])
    return cf, taut_circle_transform(cf, branch)[0], branch


def test_circle_inside_branch_matches_prediction():
    spec = build_example("hyp_c3")  # C = z, C3 = 1
    pts = box_points(INSIDE, 4, seed=3)
    cf, taut, branch = _circle(spec, pts)
    assert branch == (1, 1)
    for a1, a2 in UNIT_AS:
        got = _value(circle_volume_coefficient(cf, taut, a1, a2)).tolist()
        for p, g in zip(pts, got):
            want = predicted_circle_coefficient(p[2], 1.0, a1, a2)
            assert abs(g - want) < 1e-8


def test_circle_outside_branch():
    spec = build_example("hyp_c3", c3="1+z^2")
    pts = box_points(OUTSIDE, 4, seed=4)
    cf, taut, branch = _circle(spec, pts)
    assert branch == (1, -1)
    # mixed coefficient flips sign outside the unit band
    mixed = _value(mixed_circle_coefficient(cf, taut)).tolist()
    for k, p in enumerate(pts):
        z = p[2]
        c3 = 1.0 + z * z
        for a1, a2 in UNIT_AS[::4]:
            got = _value(circle_volume_coefficient(cf, taut, a1, a2))[k]
            want = predicted_circle_coefficient(z, c3, a1, a2)
            assert abs(got - want) < 1e-8
        assert mixed[k] == pytest.approx(-c3 / (z * z - 1.0) ** 1.5,
                                         abs=1e-8)


def test_circle_mixed_coefficient_inside():
    spec = build_example("hyp_c3", c3="1+z^2")
    pts = box_points(INSIDE, 5, seed=5)
    cf, taut, _ = _circle(spec, pts)
    mixed = _value(mixed_circle_coefficient(cf, taut)).tolist()
    for p, got in zip(pts, mixed):
        z = p[2]
        want = (1.0 + z * z) / (1.0 - z * z) ** 1.5
        assert got == pytest.approx(want, abs=1e-8)


def test_circle_on_eta_frame_spot_check():
    spec = build_example("eta_frame")  # C = csc(2x)/y
    pts = [(0.68, 1.5, 0.1), (0.65, 1.7, -0.4)]
    cf = _adapted(spec, pts, order=8)
    taut, C, branch = taut_circle_transform(cf)
    C = _value(C)
    assert np.all(abs(C) < 1.0) and branch == (1, 1)
    C3 = _value(compute_C3(cf)[0])
    for a1, a2 in UNIT_AS[::5]:
        got = _value(circle_volume_coefficient(cf, taut, a1, a2))
        for k in range(len(pts)):
            want = predicted_circle_coefficient(C[k], C3[k], a1, a2)
            assert abs(got[k] - want) < 1e-8


def test_branch_error_across_unit_invariant():
    spec = build_example("hyp_c3")
    pts = [(0.1, 0.2, 0.5), (0.1, 0.2, 1.5)]
    with pytest.raises(BranchError):
        taut_circle_field([_adapted(spec, pts)])


def _forty(z):
    """40 hyp_c3 points whose k-th has z = z(k), as in the sweep."""
    return [(round(0.02 * k - 0.4, 2), 0.3, z(k)) for k in range(40)]


# |C| = 1 at the 35th point, and the branch flips there
_FAILING_AT_35 = [
    (lambda k: 1.0 if k == 34 else round(0.02 * k, 2),
     "|C| = 1 at (0.28, 0.3, 1.0): transform undefined"),
    (lambda k: round(0.02 * k + 0.33, 2),
     "sign branch of (1+C, 1-C) is (1, -1) at (0.28, 0.3, 1.01), (1, 1) "
     "elsewhere in the region"),
]


@pytest.mark.parametrize("z, text", _FAILING_AT_35)
@pytest.mark.usefixtures("blocks_of_32")
def test_branch_error_names_column_35_of_40(z, text):
    # the 35th point lies in the second block of forms.STACK_BLOCK
    spec = build_example("hyp_c3")
    blocks = one_adapt(spec.coframes(), _forty(z), 3)
    assert [len(b.point[0]) for b in blocks] == \
        [forms.STACK_BLOCK, 40 - forms.STACK_BLOCK]
    with pytest.raises(BranchError) as err:
        taut_circle_field(blocks)
    assert str(err.value) == text


@pytest.mark.parametrize("z, text", _FAILING_AT_35)
def test_a_block_failing_at_its_35th_column_is_searched_by_halving(
        monkeypatch, z, text):
    # at the shipped forms.STACK_BLOCK the 40 points are one block, whose
    # failing pass runs again as its first half, then its second, into
    # whichever half raises: the 35th point raises its own error after at
    # most 2 ceil(log2 40) + 1 passes, where going column by column took 36
    spec = build_example("hyp_c3")
    (block,) = one_adapt(spec.coframes(), _forty(z), 3)
    passes, transform = [], pipeline.taut_circle_transform
    monkeypatch.setattr(
        pipeline, "taut_circle_transform",
        lambda cf, branch: passes.append(len(cf.point[0]))
        or transform(cf, branch))
    with pytest.raises(BranchError) as err:
        taut_circle_field([block])
    assert str(err.value) == text
    assert passes[0] == 40 and passes[-1] == 1
    assert len(passes) <= 2 * math.ceil(math.log2(40)) + 1


def test_branch_error_names_the_first_failing_column_of_a_block():
    # the branch flips at the 4th point and |C| = 1 at the 11th: the
    # block's pass raises at the 11th, and its columns, one by one, at the
    # 4th
    spec = build_example("hyp_c3")
    pts = [(0.1, 0.2, 1.0 if k == 10 else 1.5 if k == 3 else 0.1 * k - 0.5)
           for k in range(12)]
    with pytest.raises(BranchError) as err:
        taut_circle_field([_adapted(spec, pts, 3)])
    assert str(err.value) == ("sign branch of (1+C, 1-C) is (1, -1) at "
                              "(0.1, 0.2, 1.5), (1, 1) elsewhere in the "
                              "region")


def test_epsilon_guards():
    plus = build_example("hyp_c3", eps=1)
    pts = box_points(INSIDE, 2, seed=6)
    with pytest.raises(EpsilonMismatch):
        taut_circle_transform(_adapted(plus, pts))
    minus = build_example("hyp_c3", eps=-1)
    with pytest.raises(EpsilonMismatch):
        taut_hyperbola_transform(_adapted(minus, pts))


def test_hyperbola_identities_constant_invariant():
    spec = build_example("torus_constC", psi=0.4)
    pts = box_points(spec.box, 5, seed=8)
    cf = _adapted(spec, pts)
    taut, C, theta = taut_hyperbola_transform(cf)
    assert _value(C) == pytest.approx([np.sinh(0.8)] * 5, abs=1e-10)
    r1, r2, defect = hyperbola_residuals(cf, taut, theta)
    assert np.all(r1 < 1e-8) and np.all(r2 < 1e-8)
    assert np.all(abs(_value(defect)) < 1e-8)


def test_hyperbola_identities_variable_invariant():
    spec = build_example("normal_form_3d", eps=1, f="sin(x)", g="0")
    pts = box_points(spec.box, 4, seed=9)
    cf = _adapted(spec, pts, order=8)
    taut, C, theta = taut_hyperbola_transform(cf)
    C = _value(C)
    assert C == pytest.approx([1.0 / np.tan(2 * p[0]) for p in pts],
                              abs=1e-9)
    assert _value(theta) == pytest.approx(np.arcsinh(C), abs=1e-12)
    r1, r2, defect = hyperbola_residuals(cf, taut, theta)
    assert np.all(r1 < 1e-8) and np.all(r2 < 1e-8)
    assert np.all(abs(_value(defect)) < 1e-8)
