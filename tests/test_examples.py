"""The built-in coframe generators: determinism, registry, oracle tables."""

import math

import numpy as np
import pytest

from bicontact.examples import EXAMPLES, build_example
from bicontact.forms import PForm
from bicontact.inputfile import CoframeSpec, parse_coframe_text
from bicontact.jets import _value
from bicontact.pipeline import (Tolerances, analyze, cartan_structure_check,
                                compute_C3, one_adapt)
from conftest import box_points, one_adapted_block

TOL = Tolerances()
ALL_NAMES = {"hyp_c3", "torus_constC", "normal_form_3d", "eta_frame",
             "fourd_ezero", "fourd_enonzero", "sphere_frame"}


def test_registry_is_complete_and_consistent():
    assert set(EXAMPLES) == ALL_NAMES
    for name in ALL_NAMES:
        spec = build_example(name)
        assert isinstance(spec, CoframeSpec)
        assert spec.name == name
        dim = spec.chart.dim
        assert dim in (3, 4)
        assert len(spec.rows) == dim
        assert len(spec.box) == dim
        for lo, hi in spec.box:
            assert lo < hi
        assert spec.notes


def test_build_example_unknown_name():
    with pytest.raises(KeyError, match="sphere_frame"):
        build_example("no_such_example")


def test_generators_are_deterministic():
    for name in ALL_NAMES:
        a = build_example(name)
        b = build_example(name)
        assert a.rows == b.rows
        assert a.params == b.params
        assert a.expected == b.expected
        assert a.input_text() == b.input_text()


def test_parameters_change_the_rows():
    base = build_example("hyp_c3")
    other = build_example("hyp_c3", c3="1+z^2")
    assert base.rows != other.rows
    assert other.expected["C3"] == "1+z^2"
    assert build_example("torus_constC", psi=0.5).expected["C"] == \
        pytest.approx(math.sinh(1.0))


def test_hyp_c3_third_derivative_table():
    spec = build_example("hyp_c3", c3="1+z^2")
    pts = box_points(spec.box, 4, seed=51)
    C3, _, _ = compute_C3(one_adapted_block(spec.coframes(), pts, 7))
    assert _value(C3) == pytest.approx([1.0 + p[2] ** 2 for p in pts],
                                       abs=1e-9)


def test_sphere_frame_reduces_with_unit_K():
    spec = build_example("sphere_frame")
    pts = box_points(spec.box, 4, seed=52)
    out = cartan_structure_check(
        [one_adapted_block(spec.coframes(), pts, 7)], TOL)
    assert out is not None
    assert out["eps"] == -1
    assert out["points"] == pts
    for K, res in zip(out["K"], out["residuals"]):
        assert K == pytest.approx(1.0, abs=1e-8)
        assert max(res.values()) < 1e-8


@pytest.mark.usefixtures("blocks_of_32")
def test_sphere_frame_reduction_over_two_blocks_is_each_points_own():
    # 40 points span two blocks of forms.STACK_BLOCK; every point's K and
    # residuals are bit-equal to those of the point's stack of one
    spec = build_example("sphere_frame")
    pts = box_points(spec.box, 40, seed=56)
    blocks = one_adapt(spec.coframes(), pts, 7)
    assert len(blocks) == 2
    out = cartan_structure_check(blocks, TOL)
    ones = cartan_structure_check(
        [one_adapted_block(spec.coframes(), [p], 7) for p in pts], TOL)
    assert out["points"] == ones["points"] == pts
    assert np.array(out["K"]).tobytes() == np.array(ones["K"]).tobytes()
    assert out["residuals"] == ones["residuals"]


def test_generic_frames_do_not_reduce():
    spec = build_example("eta_frame")
    pts = box_points(spec.box, 3, seed=53)
    assert cartan_structure_check(
        [one_adapted_block(spec.coframes(), pts, 7)], TOL) is None


@pytest.mark.usefixtures("blocks_of_32")
def test_a_nan_column_fails_the_symmetry_test():
    # omega1 ^ d omega2 is NaN at the 35th of 40 sphere_frame points only,
    # whose volume stays finite: that point is not symmetric, so the region
    # does not reduce
    spec = build_example("sphere_frame")
    pts = box_points(spec.box, 40, seed=57)
    first, second = one_adapt(spec.coframes(), pts, 7)
    assert cartan_structure_check((first, second), TOL) is not None
    w1, w2, w3 = second.forms
    c = w2.c.copy()
    c[:, 1:, 2] = np.nan        # every derivative of omega2 there
    nan_w2 = PForm._of(w2.chart, w2.degree, w2.order, c)
    second = second.replace(forms=(w1, nan_w2, w3))
    assert cartan_structure_check((first, second), TOL) is None


def test_expected_epsilon_matches_analysis():
    for name in ("hyp_c3", "torus_constC", "normal_form_3d", "eta_frame",
                 "sphere_frame"):
        spec = build_example(name)
        pts = box_points(spec.box, 3, seed=54)
        out = analyze(spec.coframes(), pts, 7, TOL)
        assert out["eps"] == spec.expected["eps"], name


def test_input_text_has_all_sections():
    for name in ALL_NAMES:
        spec = build_example(name)
        text = spec.input_text()
        assert text.startswith("[chart]\ncoords = ")
        for i in range(1, spec.chart.dim + 1):
            assert f"[omega{i}]" in text
        if spec.params:
            assert "[params]" in text


@pytest.mark.parametrize("name", sorted(ALL_NAMES))
def test_input_text_parses_back_to_the_same_coframe(name):
    spec = build_example(name)
    back = parse_coframe_text(spec.input_text())
    assert back.chart.coords == spec.chart.coords
    assert back.params == spec.params
    assert back.rows == [{k: v for k, v in row.items()
                          if v not in ("0", "0.0")} for row in spec.rows]
    centre = tuple((lo + hi) / 2 for lo, hi in spec.box)
    got, want = (s.coframes().at(centre, 4).forms for s in (back, spec))
    for a, b in zip(got, want, strict=True):
        assert a.c.view(np.int64).tolist() == b.c.view(np.int64).tolist()
