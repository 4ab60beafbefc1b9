"""Levi-Civita connection, curvature, and leaf geometry of adapted frames."""

import math

import numpy as np
import pytest

from bicontact.curvature import (ConnectionMatrix, _integrability_defect,
                                 curvature, leaf_geometry, levi_civita,
                                 pfaffian_coefficient, scalar_curvature)
from bicontact.errors import NotIntegrable
from bicontact.examples import build_example
from bicontact.forms import (Chart, Coframe, _columns,
                             coframe_field_from_expressions, one_form_coeffs,
                             wedge)
from bicontact.fourdim import symp_structure
from bicontact.jets import _value
from bicontact.pipeline import (Tolerances, _split_record, analyze,
                                case1_adapt, case2_adapt)
from conftest import DATA, box_points, load_coframe, one_adapted_block

TOL = Tolerances()


def _conn_rows(conn, frame, i, j):
    """The coefficients of omega^i_j in ``frame``, one row per column."""
    return np.array([_value(c) for c in
                     one_form_coeffs(conn.form(i, j), frame)]).T


def test_torus_curvature_constants():
    psi = 0.3
    want = math.cosh(2 * psi) ** 2
    spec = build_example("torus_constC", psi=psi)
    pts = box_points(spec.box, 4, seed=31)
    cf = one_adapted_block(spec.coframes(), pts, 7)
    conn = levi_civita(cf)
    assert np.all(conn.structure_residual < 1e-10)
    curv = curvature(conn)
    assert _value(curv.coefficient(0, 1, 0, 1)) == pytest.approx(want, abs=1e-7)
    assert _value(curv.coefficient(0, 2, 0, 2)) == pytest.approx(-want, abs=1e-7)
    assert _value(curv.coefficient(1, 2, 1, 2)) == pytest.approx(-want, abs=1e-7)
    assert _value(scalar_curvature(curv)) == pytest.approx(-2 * want, abs=1e-6)


def test_torus_leaves_minimal_and_flat():
    psi = 0.3
    spec = build_example("torus_constC", psi=psi)
    pts = box_points(spec.box, 4, seed=32)
    leaf = leaf_geometry(one_adapted_block(spec.coframes(), pts, 7))
    assert not leaf.not_integrable.any()
    assert np.all(abs(leaf.H) < 1e-8)
    assert np.all(abs(leaf.K_leaf) < 1e-8)
    det = leaf.shape[0][0] * leaf.shape[1][1] \
        - leaf.shape[0][1] * leaf.shape[1][0]
    assert det == pytest.approx(-math.cosh(2 * psi) ** 2, abs=1e-7)


def test_sphere_constant_sectional_curvature():
    spec = build_example("sphere_frame")
    pts = box_points(spec.box, 4, seed=33)
    cf = one_adapted_block(spec.coframes(), pts, 7)
    conn = levi_civita(cf)
    curv = curvature(conn)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert _value(curv.coefficient(i, j, i, j)) == pytest.approx(
            0.25, abs=1e-9)
    assert _value(scalar_curvature(curv)) == pytest.approx(1.5, abs=1e-9)
    # no leaves anywhere: every column is marked
    assert leaf_geometry(cf, conn).not_integrable.all()


def test_case2_connection_displays():
    spec = build_example("eta_frame")
    pts = box_points(spec.box, 3, seed=34)
    eps = -1
    out, stacked, _ = case2_adapt(one_adapted_block(spec.coframes(), pts, 8))
    conn = levi_civita(out)
    rows = [_conn_rows(conn, out, i, j) for i, j in ((0, 1), (2, 0), (2, 1))]
    for k, rec in enumerate(_split_record(stacked)):
        np.testing.assert_allclose(
            rows[0][k], [-rec.A2, rec.A1, 0.5 * (1 - eps)], atol=1e-9)
        np.testing.assert_allclose(
            rows[1][k], [rec.A3 - rec.C, 0.5 * (1 + eps), math.sin(rec.zeta)],
            atol=1e-9)
        np.testing.assert_allclose(
            rows[2][k], [0.5 * (1 + eps), rec.A3 + rec.C, math.cos(rec.zeta)],
            atol=1e-9)


def test_case1_connection_displays():
    fld = load_coframe(DATA / "case1_frame.txt")
    pts = [(0.3, -0.4, 0.2), (-0.5, 0.6, -0.3)]
    eps = -1
    out, stacked, _ = case1_adapt(one_adapted_block(fld, pts, 8), TOL)
    conn = levi_civita(out)
    rows = [_conn_rows(conn, out, i, j) for i, j in ((0, 1), (2, 0), (2, 1))]
    for k, rec in enumerate(_split_record(stacked)):
        np.testing.assert_allclose(
            rows[0][k], [0.0, 0.0, 0.5 * (1 - eps - rec.B3)], atol=1e-10)
        np.testing.assert_allclose(
            rows[1][k], [rec.A3 - rec.C, 0.5 * (1 + eps + rec.B3), rec.B2],
            atol=1e-10)
        np.testing.assert_allclose(
            rows[2][k], [0.5 * (1 + eps - rec.B3), rec.A3 + rec.C, rec.B1],
            atol=1e-10)
    assert leaf_geometry(out, conn).not_integrable.all()


def test_case2_leaf_shape_and_mean_curvature():
    for name, eps in (("eta_frame", -1), ("normal_form_3d", 1)):
        spec = build_example(name)
        pts = box_points(spec.box, 3, seed=35)
        out, rec, _ = case2_adapt(one_adapted_block(spec.coframes(), pts, 8))
        leaf = leaf_geometry(out)
        assert not leaf.not_integrable.any()
        assert leaf.H == pytest.approx(rec.A3, abs=1e-10)
        det = leaf.shape[0][0] * leaf.shape[1][1] \
            - leaf.shape[0][1] * leaf.shape[1][0]
        assert det == pytest.approx(
            rec.A3 ** 2 - rec.C ** 2 - 0.5 * (1 + eps), abs=1e-8)
        if name == "normal_form_3d":
            assert np.all(abs(leaf.K_leaf) < 1e-8)


def test_eta_leaf_curvature_regression():
    spec = build_example("eta_frame")
    frozen = {(0.5, 1.2, 0.3): -2.417232713187019,
              (0.6, 0.9, -0.2): -3.457840160272326}
    out, _, _ = case2_adapt(one_adapted_block(spec.coframes(), list(frozen),
                                              8))
    assert leaf_geometry(out).K_leaf == pytest.approx(list(frozen.values()),
                                                      abs=1e-9)


def test_first_bianchi_identity():
    for name in ("torus_constC", "eta_frame"):
        spec = build_example(name)
        p = box_points(spec.box, 1, seed=36)[0]
        cf = one_adapted_block(spec.coframes(), [p], 8)
        conn = levi_civita(cf)
        curv = curvature(conn)
        for i in range(3):
            total = None
            for j in range(3):
                if j == i:
                    continue
                term = wedge(curv.entry(i, j), cf.omega(j + 1))
                total = term if total is None else total + term
            assert total.max_abs_value() < 1e-9


@pytest.mark.parametrize("name,point", [
    ("normal_form_3d", (0.3, 0.6, 0.1)),
    ("fourd_enonzero", (0.3, 0.6, 0.1, 0.4)),
], ids=["normal_form_3d", "fourd_enonzero"])
def test_diagonal_christoffel_symbols_are_positive_zero(name, point):
    conn = levi_civita(build_example(name).coframes().at(point, 4))
    dim = len(point)
    for i in range(dim):
        for k in range(dim):
            c = conn.gamma[i][i][k].c
            assert c.tobytes() == np.zeros_like(c).tobytes()


def test_structure_residual_detects_perturbation():
    spec = build_example("torus_constC")
    p = (0.4, 0.2, 0.1)
    cf = one_adapted_block(spec.coframes(), [p], 7)
    conn = levi_civita(cf)
    (base,) = conn.residual()
    assert base < 1e-12
    bumped = [[list(row) for row in plane] for plane in conn.gamma]
    bump = bumped[0][1][2] + 1e-3
    bumped[0][1][2] = bump
    bumped[1][0][2] = bump * -1.0
    # the coordinate-basis residual sees the bump through the frame
    # coefficients: order 1e-3, and far above the clean baseline
    (perturbed,) = ConnectionMatrix(conn.frame, bumped).residual()
    assert 1e-4 < perturbed < 1e-2
    assert perturbed > 1e6 * base


def test_sectional_curvature_is_rotation_invariant():
    psi = 0.3
    spec = build_example("torus_constC", psi=psi)
    p = (0.5, -0.3, 0.2)
    cf = one_adapted_block(spec.coframes(), [p], 7)
    alpha = 0.3
    c, s = math.cos(alpha), math.sin(alpha)
    w1, w2, w3 = cf.forms
    rotated = Coframe(cf.chart, cf.point,
                      (w1.scaled(c) + w2.scaled(s),
                       w1.scaled(-s) + w2.scaled(c), w3),
                      eps=cf.eps, stage=cf.stage)
    (k0,) = _value(curvature(levi_civita(cf)).coefficient(0, 1, 0, 1))
    (k1,) = _value(curvature(levi_civita(rotated)).coefficient(0, 1, 0, 1))
    assert k1 == pytest.approx(k0, abs=1e-9)
    assert k0 == pytest.approx(math.cosh(2 * psi) ** 2, abs=1e-9)


def test_4d_leaf_shape_matrix():
    spec = build_example("fourd_enonzero")
    pts = box_points(spec.box, 3, seed=37)
    (block,) = spec.coframes().blocks(pts, 6)
    rec = symp_structure(block)
    leaf = leaf_geometry(rec.frame, normal=2)
    shape = np.moveaxis(np.array(leaf.shape), -1, 0)
    for k, C in enumerate(_value(rec.C).tolist()):
        want = [[-C, 1.0, 0.0], [1.0, C, 0.0], [0.0, 0.0, 0.0]]
        np.testing.assert_allclose(shape[k], want, atol=1e-9)
    assert np.all(abs(leaf.trace) < 1e-10)
    assert np.all(abs(leaf.H) < 1e-10)
    assert leaf.K_leaf is None


def test_a_4d_frame_without_leaves_raises_at_its_first_column():
    # omega1 ^ d omega1 = omega1 ^ omega2 ^ omega3 on the 4D pattern: where
    # a 3D frame marks its leafless columns, a 4D one raises
    spec = build_example("fourd_enonzero")
    pts = box_points(spec.box, 3, seed=39)
    (block,) = spec.coframes().blocks(pts, 3)
    first = _integrability_defect(block, 0).tolist()[0]
    with pytest.raises(NotIntegrable) as err:
        leaf_geometry(block, normal=0)
    assert err.value.defect == first
    assert str(err.value).startswith(
        f"omega^1 is not integrable: defect {first!r}")


def _geometry(frame) -> dict:
    """Every table the curvature module computes on ``frame``, by name: the
    coefficient arrays of the jets and forms, and the values, with the
    point axis last."""
    conn = levi_civita(frame)
    curv = curvature(conn)
    dim = frame.dim
    out = {"structure_residual": conn.structure_residual,
           "scalar": scalar_curvature(curv).c}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                out[f"gamma {i}{j}{k}"] = conn.gamma[i][j][k].c
            if i != j:
                out[f"omega {i}{j}"] = conn.form(i, j).c
            if i < j:
                out[f"theta {i}{j}"] = curv.entry(i, j).c
                for pair, c in curv.coeffs[i, j].items():
                    out[f"theta {i}{j} {pair}"] = c.c
    if dim == 4:
        out["pfaffian"] = pfaffian_coefficient(curv).c
    leaf = leaf_geometry(frame, conn, curv, normal=2 if dim == 4 else None)
    out.update(defect=leaf.defect, not_integrable=leaf.not_integrable,
               shape=leaf.shape, H=leaf.H, trace=leaf.trace)
    if dim == 3:
        out["K_leaf"] = leaf.K_leaf
    return out


def _bits(value) -> bytes:
    return np.ascontiguousarray(value, dtype=float).tobytes()


# omega3 = dz + x^2 dy: omega3 ^ d(omega3) = 2x dz^dx^dy, integrable at
# x = 0 only
_MIXED_ROWS = [{"dx": "1"}, {"dy": "1"}, {"dz": "1", "dy": "x^2"}]


def _stacked_and_frames(name):
    """A stacked frame of four or five points and the stack of one of each
    of its points: the raw block of a field and the frames ``at`` builds,
    or the one adapted block of ``analyze`` with a fresh memo and its
    columns."""
    if name == "mixed":
        fld = coframe_field_from_expressions(Chart(("x", "y", "z")),
                                             _MIXED_ROWS)
        pts = [(0.5, 0.2, 0.1), (0.0, -0.3, 0.4), (-0.7, 0.6, -0.2),
               (0.0, 0.8, 0.9)]
    else:
        spec = build_example(name)
        fld, pts = spec.coframes(), box_points(spec.box, 5, seed=38)
    if name == "mixed" or name.startswith("fourd"):
        return next(fld.blocks(pts, 3)), [fld.at(p, 3) for p in pts]
    result = analyze(fld, pts, 6, TOL)
    (block,) = result.get("adapted_blocks", result["blocks"])
    return (Coframe(block.chart, block.point, block.forms, block.eps,
                    block.stage),
            [_columns(block, k, k + 1) for k in range(len(pts))])


@pytest.mark.parametrize("name,leafless", [
    ("fourd_enonzero", [False] * 5),
    ("fourd_ezero", [False] * 5),
    ("normal_form_3d", [False] * 5),
    ("sphere_frame", [True] * 5),
    ("mixed", [True, False, True, False]),
])
def test_a_stacked_frame_gives_each_frames_own_geometry(name, leafless):
    # connection, structure residual, curvature, scalar curvature, the
    # Pfaffian (4D) and the leaf data of each column are bit-equal to those
    # of the point's stack of one; a 3D frame marks a column without leaves
    # and keeps its defect
    block, frames = _stacked_and_frames(name)
    stacked = _geometry(block)
    assert stacked["not_integrable"].tolist() == leafless
    for k, frame in enumerate(frames):
        own = _geometry(frame)
        assert own["not_integrable"].tolist() == [leafless[k]]
        for key, value in own.items():
            column = np.asarray(stacked[key], dtype=float)[..., k]
            assert _bits(column) == _bits(np.asarray(value)[..., 0]), (k, key)
