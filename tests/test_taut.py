"""Taut rotations: circle frame for eps=-1, hyperbola frame for eps=+1."""

import numpy as np
import pytest

from bicontact.errors import BranchError, EpsilonMismatch
from bicontact.examples import build_example
from bicontact.pipeline import (circle_volume_coefficient, compute_C3,
                                hyperbola_residuals,
                                mixed_circle_coefficient,
                                predicted_circle_coefficient,
                                taut_circle_field, taut_circle_transform,
                                taut_hyperbola_transform)
from conftest import box_points, one_adapted_frames

INSIDE = ((-0.8, 0.8), (-0.8, 0.8), (-0.85, 0.85))
OUTSIDE = ((-0.8, 0.8), (-0.8, 0.8), (1.1, 1.7))

UNIT_AS = [(float(np.cos(t)), float(np.sin(t)))
           for t in np.linspace(0.0, 2 * np.pi, 20, endpoint=False)]


def _adapted(spec, pts, order=7):
    return one_adapted_frames(spec.coframes(), pts, order)


def test_circle_inside_branch_matches_prediction():
    spec = build_example("hyp_c3")  # C = z, C3 = 1
    pts = box_points(INSIDE, 4, seed=3)
    frames = _adapted(spec, pts)
    tauts, branch = taut_circle_field(frames)
    assert branch == (1, 1)
    for p, cf, taut in zip(pts, frames, tauts):
        for a1, a2 in UNIT_AS:
            got = circle_volume_coefficient(cf, taut, a1, a2).value
            want = predicted_circle_coefficient(p[2], 1.0, a1, a2)
            assert abs(got - want) < 1e-8


def test_circle_outside_branch():
    spec = build_example("hyp_c3", c3="1+z^2")
    pts = box_points(OUTSIDE, 4, seed=4)
    frames = _adapted(spec, pts)
    tauts, branch = taut_circle_field(frames)
    assert branch == (1, -1)
    for p, cf, taut in zip(pts, frames, tauts):
        z = p[2]
        c3 = 1.0 + z * z
        for a1, a2 in UNIT_AS[::4]:
            got = circle_volume_coefficient(cf, taut, a1, a2).value
            want = predicted_circle_coefficient(z, c3, a1, a2)
            assert abs(got - want) < 1e-8
        # mixed coefficient flips sign outside the unit band
        mixed = mixed_circle_coefficient(cf, taut).value
        assert mixed == pytest.approx(-c3 / (z * z - 1.0) ** 1.5, abs=1e-8)


def test_circle_mixed_coefficient_inside():
    spec = build_example("hyp_c3", c3="1+z^2")
    pts = box_points(INSIDE, 5, seed=5)
    frames = _adapted(spec, pts)
    tauts, _ = taut_circle_field(frames)
    for p, cf, taut in zip(pts, frames, tauts):
        z = p[2]
        mixed = mixed_circle_coefficient(cf, taut).value
        want = (1.0 + z * z) / (1.0 - z * z) ** 1.5
        assert mixed == pytest.approx(want, abs=1e-8)


def test_circle_on_eta_frame_spot_check():
    spec = build_example("eta_frame")  # C = csc(2x)/y
    pts = [(0.68, 1.5, 0.1), (0.65, 1.7, -0.4)]
    for cf in _adapted(spec, pts, order=8):
        taut, C, here = taut_circle_transform(cf)
        assert abs(C.value) < 1.0 and here == (1, 1)
        C3, _, _ = compute_C3(cf)
        for a1, a2 in UNIT_AS[::5]:
            got = circle_volume_coefficient(cf, taut, a1, a2).value
            want = predicted_circle_coefficient(C.value, C3.value, a1, a2)
            assert abs(got - want) < 1e-8


def test_branch_error_across_unit_invariant():
    spec = build_example("hyp_c3")
    pts = [(0.1, 0.2, 0.5), (0.1, 0.2, 1.5)]
    frames = _adapted(spec, pts)
    with pytest.raises(BranchError):
        taut_circle_field(frames)


def test_epsilon_guards():
    plus = build_example("hyp_c3", eps=1)
    pts = box_points(INSIDE, 2, seed=6)
    frames_plus = _adapted(plus, pts)
    with pytest.raises(EpsilonMismatch):
        taut_circle_transform(frames_plus[0])
    minus = build_example("hyp_c3", eps=-1)
    frames_minus = _adapted(minus, pts)
    with pytest.raises(EpsilonMismatch):
        taut_hyperbola_transform(frames_minus[0])


def test_hyperbola_identities_constant_invariant():
    spec = build_example("torus_constC", psi=0.4)
    pts = box_points(spec.box, 5, seed=8)
    for cf in _adapted(spec, pts):
        taut, C, theta = taut_hyperbola_transform(cf)
        assert C.value == pytest.approx(np.sinh(0.8), abs=1e-10)
        r1, r2, defect = hyperbola_residuals(cf, taut, theta)
        assert r1 < 1e-8 and r2 < 1e-8
        assert abs(defect.value) < 1e-8


def test_hyperbola_identities_variable_invariant():
    spec = build_example("normal_form_3d", eps=1, f="sin(x)", g="0")
    pts = box_points(spec.box, 4, seed=9)
    for p, cf in zip(pts, _adapted(spec, pts, order=8)):
        taut, C, theta = taut_hyperbola_transform(cf)
        assert C.value == pytest.approx(1.0 / np.tan(2 * p[0]), abs=1e-9)
        assert theta.value == pytest.approx(np.arcsinh(C.value), abs=1e-12)
        r1, r2, defect = hyperbola_residuals(cf, taut, theta)
        assert r1 < 1e-8 and r2 < 1e-8
        assert abs(defect.value) < 1e-8
