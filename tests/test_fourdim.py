"""4D pattern frames: structure extraction, quadratic identities, curvature
oracles, the vertical ODE, and the constructed normal form."""

import math

import numpy as np
import pytest

from bicontact import cli, expressions, forms, fourdim
from bicontact.errors import DegenerateH, DomainError, SingularVolumeError
from bicontact.examples import build_example
from bicontact.forms import (STACK_BLOCK, Chart, _columns,
                             coframe_field_from_expressions)
from bicontact.fourdim import (QOde, compute_E,
                               curvature4, e_expansion, normal_form_4d,
                               normal_form_residual_rows,
                               normal_form_residuals, q_jets, solve_q,
                               symp_structure, symplectic_quadratic,
                               symplectic_quadratic_check, verify_normal_form)
from bicontact.jets import Jet, _value, partial
from conftest import box_points, coeff
from test_jets import _full_horner

GOOD_H = (("1", "0"), ("x^2/2", "1"))
BOX4 = ((-0.8, 0.8), (-0.8, 0.8), (-0.9, 0.9), (0.2, 1.8))


def _expected_E(p):
    x, y, z, w = p
    return math.exp(2 * w - y * (x + z)) / y


def _block(spec, count, seed):
    """``count`` points of the example's box and their one stacked frame."""
    pts = box_points(spec.box, count, seed=seed)
    (cf,) = spec.coframes().blocks(pts, 6)
    return pts, cf


def test_symp_structure_closed_forms():
    pts, cf = _block(build_example("fourd_ezero"), 4, 41)
    rec = symp_structure(cf)
    assert rec.eps.tolist() == [-1] * 4
    assert np.all(rec.max_residual < 1e-9)
    assert _value(rec.C) == pytest.approx([p[2] for p in pts], abs=1e-10)
    assert np.all(abs(_value(rec.E)) < 1e-10)

    pts, cf = _block(build_example("fourd_enonzero"), 4, 42)
    rec = symp_structure(cf)
    assert rec.eps.tolist() == [1] * 4
    assert np.all(rec.max_residual < 1e-9)
    assert _value(rec.C) == pytest.approx([-math.tan(p[2]) for p in pts],
                                          abs=1e-9)
    assert _value(rec.E) == pytest.approx([_expected_E(p) for p in pts],
                                          rel=1e-9)


def test_compute_E_directly():
    pts, cf = _block(build_example("fourd_enonzero"), 3, 43)
    assert _value(compute_E(cf)) == pytest.approx(
        [_expected_E(p) for p in pts], rel=1e-9)


def test_e_expansion_flags_constant_nonzero_E():
    ch = Chart(("x", "y", "z", "w"))
    rows = [{"dx": "1"}, {"dy": "1"}, {"dz": "1"}, {"dw": "1", "dy": "x"}]
    fld = coframe_field_from_expressions(ch, rows)
    cf = fld.at((0.2, 0.4, 0.1, 0.6), 5)
    assert _value(compute_E(cf)) == pytest.approx([1.0], abs=1e-12)
    out = e_expansion(cf)
    assert abs(_value(out["E1"])) < 1e-12 and abs(_value(out["E2"])) < 1e-12
    # dE = 0 misses the required 2E slot by exactly 2
    assert out["residual"] == pytest.approx([2.0], abs=1e-12)


def test_e_expansion_consistent_on_pattern_frame():
    _, cf = _block(build_example("fourd_enonzero"), 3, 44)
    assert np.all(e_expansion(cf)["residual"] < 1e-9)


def test_symplectic_quadratic_identities():
    samples = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, -0.7), (2.0, 0.5)]
    for name in ("fourd_ezero", "fourd_enonzero"):
        _, cf = _block(build_example(name), 3, 45)
        out = symplectic_quadratic_check(symp_structure(cf), samples)
        assert np.all(out["closed"] < 1e-9)
        assert np.all(out["quad11"] < 1e-9)
        assert np.all(out["quad22"] < 1e-9)
        assert np.all(out["quad12"] < 1e-9)
        assert np.all(out["sampled"] < 1e-8)
    assert symplectic_quadratic(1.0, 0.0, 0.7, 1) == 2.0
    assert symplectic_quadratic(0.0, 1.0, 0.7, -1) == 2.0
    assert symplectic_quadratic(1.0, 1.0, 0.5, 1) == pytest.approx(2.0 * 1.0)


def test_curvature4_report_closed_forms():
    _, cf = _block(build_example("fourd_enonzero"), 3, 46)
    F = symp_structure(cf)
    rep = curvature4(F)
    assert np.all(rep.max_residual < 1e-8)
    eps, C, E = 1.0, _value(F.C), _value(F.E)
    assert _value(rep.S) == pytest.approx(
        -(0.5 * E * E + 2.0 * C * C + 7.0 + eps), abs=1e-7)
    assert _value(rep.pfaffian) == pytest.approx(
        2.0 * ((1 + eps) + 2.0 * C * C), abs=1e-7)
    assert np.all(rep.residuals["theta34"] < 1e-7)
    assert np.all(rep.residuals["leaf_trace"] < 1e-8)


def test_curvature4_flat_E_values():
    ez = build_example("fourd_ezero")
    # eps = -1, E = 0, C = z
    at_zero = (0.3, -0.2, 0.0, 0.4)
    rep0 = curvature4(symp_structure(ez.coframes().at(at_zero, 6)))
    assert _value(rep0.S) == pytest.approx([-6.0], abs=1e-8)
    assert _value(rep0.pfaffian) == pytest.approx([0.0], abs=1e-8)
    at_half = (0.1, 0.5, 0.5, -0.3)
    rep5 = curvature4(symp_structure(ez.coframes().at(at_half, 6)))
    assert _value(rep5.S) == pytest.approx([-6.5], abs=1e-8)
    assert _value(rep5.pfaffian) == pytest.approx([1.0], abs=1e-8)


@pytest.mark.parametrize("c_text,eps,f1,f2,lo", [
    ("0", -1, math.sin, math.cos, 0.0),
    ("0", 1, math.sinh, math.cosh, 0.0),
    ("0.5", -1, math.sin, math.cos, -1.0),
    ("0.5", 1, math.sinh, math.cosh, -1.0),
], ids=["-1-sin-cos", "1-sinh-cosh", "C=0.5--1-sin-cos", "C=0.5-1-sinh-cosh"])
def test_qode_matches_analytic_solutions(c_text, eps, f1, f2, lo):
    # constant C: u = C^2 + eps is constant, so with w = sqrt|u| the
    # solutions are Q1 = f1(w z) / w and Q2 = f2(w z); a span with lo < 0
    # checks the backward steps too
    w = math.sqrt(abs(float(c_text) ** 2 + eps))
    ode = QOde(c_text, eps)
    assert ode.W0 == -1.0
    sol = solve_q(ode, (lo, 1.0))
    zs = np.linspace(lo, 1.0, 21)
    for z in zs:
        q1, dq1, q2, dq2 = sol.state(float(z))
        assert abs(q1 - f1(w * z) / w) < 1e-8
        assert abs(q2 - f2(w * z)) < 1e-8
        assert abs(dq1 - f2(w * z)) < 1e-8
        assert abs(dq2 - eps * w * f1(w * z)) < 1e-8
    assert sol.wronskian_drift(zs) < 1e-8


def test_q_jets_satisfy_the_equation():
    ode = QOde("tan(z)", -1)
    sol = solve_q(ode, (-1.2, 1.2))
    zs = np.array([-0.7, 0.0, 0.45])
    j1, j2 = q_jets(sol, zs, ode.c_jet(zs, 6))
    for k, z in enumerate(zs.tolist()):
        u = ode.u_jet(ode.c_jet(z, 1)).value
        s = sol.state(z)
        for j, (q, dq) in ((j1, s[0:2]), (j2, s[2:4])):
            assert _value(j)[k] == pytest.approx(q, abs=1e-12)
            assert _value(partial(j, 2))[k] == pytest.approx(dq, abs=1e-12)
            # second derivative reproduces u * Q coefficient-for-coefficient
            assert _value(partial(partial(j, 2), 2))[k] == pytest.approx(
                u * q, abs=1e-10)


def test_q_jets_match_the_leibniz_recursion():
    # oracle: derivatives Q^(n+2) = sum_k binom(n, k) u^(k) Q^(n-k), then
    # Taylor coefficients Q^(m) / m!
    ode = QOde("tan(z)", -1)
    sol = solve_q(ode, (-1.2, 1.2))
    zs = np.array([-0.7, 0.0, 0.45])
    lifts = q_jets(sol, zs, ode.c_jet(zs, 8))
    for col, z in enumerate(zs.tolist()):
        u = ode.u_jet(ode.c_jet(z, 7))
        uder = [coeff(u, (k,)) * math.factorial(k) for k in range(7)]
        state = sol.state(z)
        for j, der in zip(lifts, ([state[0], state[1]], [state[2], state[3]])):
            one = Jet._of(j.dim, j.order, j.c[:, col])
            for n in range(7):
                der.append(sum(math.comb(n, k) * uder[k] * der[n - k]
                               for k in range(n + 1)))
            for m in range(9):
                want = der[m] / math.factorial(m)
                assert coeff(one, (0, 0, m, 0)) == pytest.approx(
                    want, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("order", range(9))
def test_z_series_placed_on_its_monomials_is_bitwise_horner(order):
    # the lift of a univariate series in z writes coefficient k onto z^k;
    # Horner in the jet of z at each point gives the same bits, at one
    # point (floats) and at five at once (arrays), and each of its steps
    # turns a -0.0 into +0.0 (at order 0 it takes none)
    rng = np.random.default_rng(30 + order)
    zs = rng.uniform(-1.0, 1.0, 5)
    coeffs = rng.standard_normal((order + 1, 5))
    if order:
        coeffs[order - 1:, 2] = -0.0
    many = fourdim._on_z(list(coeffs), order)
    for p, z in enumerate(zs.tolist()):
        column = coeffs[:, p].tolist()
        want = _full_horner(Jet.variable(z, 2, 4, order), column).c
        assert fourdim._on_z(column, order).c.tobytes() == want.tobytes()
        assert many.c[:, p].tobytes() == want.tobytes(), p


@pytest.mark.parametrize("profile", ["tan(z)", "z^2", "sin(z)*exp(z)/(1+z^2)",
                                     "sqrt(2+z)", "atan(z)-cosh(z)"])
def test_c_jet_truncates_to_the_lower_order_jet_bit_for_bit(profile):
    # q_jets reads u from the C jet of the lift truncated one order lower;
    # that is C's own lower-order jet bit for bit, since each coefficient of
    # a truncated product sums the same pairs in the same order
    ode = QOde(profile, -1)
    for z in np.linspace(-1.1, 1.1, 23):
        for p in range(1, 9):
            low = ode.c_jet(z, p).truncate(p - 1).c
            assert low.view(np.int64).tolist() == \
                ode.c_jet(z, p - 1).c.view(np.int64).tolist(), (z, p)


def test_normal_form_4d_with_compatible_h():
    ode = QOde("tan(z)", -1)
    fld = normal_form_4d(solve_q(ode, (-1.2, 1.2)), h=GOOD_H)
    pts = box_points(BOX4, 5, seed=47)
    worst = verify_normal_form(fld, ode, pts, order=6)
    for key in ("domega1", "domega2", "domega3", "domega4"):
        assert worst[key] < 1e-8, key
    assert worst["C"] < 1e-8
    assert worst["eps"] < 1e-8
    assert worst["E_vs_w"] < 1e-8


def test_normal_form_4d_other_invariant_and_sign():
    ode = QOde("0.3*z", 1)
    fld = normal_form_4d(solve_q(ode, (-1.2, 1.2)), h=GOOD_H)
    pts = box_points(BOX4, 2, seed=48)
    worst = verify_normal_form(fld, ode, pts, order=6)
    assert max(worst[k] for k in ("domega1", "domega2", "domega3",
                                  "domega4")) < 1e-6
    assert worst["E_vs_w"] < 1e-6


def test_normal_form_identity_h_breaks_round_trip():
    """The identity matrix satisfies the first three structure equations but
    produces a frame whose scale invariant is 0, not w."""
    ode = QOde("tan(z)", -1)
    fld = normal_form_4d(solve_q(ode, (-1.2, 1.2)), h=(("1", "0"), ("0", "1")))
    pts = box_points(BOX4, 3, seed=49)
    worst = verify_normal_form(fld, ode, pts, order=6)
    for key in ("domega1", "domega2", "domega3", "domega4"):
        assert worst[key] < 1e-10, key
    assert worst["E_vs_w"] > 0.19


def test_normal_form_guards():
    ode = QOde("0", -1)
    degenerate = normal_form_4d(solve_q(ode, (-1.2, 1.2)),
                                h=(("1", "1"), ("1", "1")))
    with pytest.raises(DegenerateH):
        degenerate.at((0.1, 0.2, 0.0, 0.5), 4)
    good = normal_form_4d(solve_q(ode, (-1.2, 1.2)), h=GOOD_H)
    with pytest.raises(DomainError):
        good.at((0.1, 0.2, 0.0, -0.5), 4)
    with pytest.raises(DomainError):
        solve_q(ode, (0.5, 1.0))  # z0 = 0 outside the span
    sol = solve_q(ode, (0.0, 1.0))
    with pytest.raises(DomainError):
        sol.state(1.5)


def _form_bytes(frame):
    return [(f.order, f.c.tobytes()) for f in frame.forms]


@pytest.mark.parametrize("profile,eps,h,order,count", [
    ("tan(z)", -1, GOOD_H, 3, 12),
    ("tan(z)", -1, GOOD_H, 6, 12),
    ("0.3*z", 1, (("1", "x*y"), ("sin(x)", "2+y")), 4, 12),
    ("tan(z)", -1, GOOD_H, 3, 1),
    ("tan(z)", -1, GOOD_H, 3, 33),
    ("tan(z)", -1, GOOD_H, 3, 40),
], ids=["tan(z)--1-h0-3", "tan(z)--1-h1-6", "0.3*z-1-h2-4",
        "1 point", "33 points", "40 points"])
def test_normal_form_builds_many_points_in_one_go(monkeypatch, profile, eps,
                                                  h, order, count):
    # one build over all the points, handed out in blocks of
    # forms.STACK_BLOCK columns, the last one shorter, whose columns are
    # bit-equal to each point's stack of one: h's tape and C's tape run
    # once each, and at() is never called
    assert STACK_BLOCK == 32
    fld = normal_form_4d(solve_q(QOde(profile, eps), (-1.2, 1.2)), h=h)
    pts = box_points(BOX4, count, seed=50 + order)
    want = [_form_bytes(fld.at(p, order)) for p in pts]
    monkeypatch.setattr(forms.CoframeField, "at", None)
    runs = []
    run = expressions.Tape.run
    monkeypatch.setattr(expressions.Tape, "run",
                        lambda *args: runs.append(1) or run(*args))
    blocks = list(fld.blocks(pts, order))
    assert len(runs) == 2
    assert [len(b.point[0]) for b in blocks] == \
        [min(32, count - start) for start in range(0, count, 32)]
    got = [_columns(block, k, k + 1) for block in blocks
           for k in range(len(block.point[0]))]
    assert [tuple(float(x[0]) for x in f.point) for f in got] == pts
    assert [_form_bytes(f) for f in got] == want
    assert {f.stage for f in got} == {"normal_form_4d"}


def _rows_then_error(rows):
    """The (point, residuals) rows an iterator yields, and the type and text
    of the error it then raises, or None."""
    out = []
    try:
        for row in rows:
            out.append(row)
    except (DegenerateH, SingularVolumeError) as exc:
        return out, (type(exc), str(exc))
    return out, None


def _one_by_one(fld, pts, order, body):
    """The rows of ``body`` over the frames of ``fld`` at ``pts``, each
    point's frame built and checked on its own, as a stack of one."""
    return _rows_then_error(row for p in pts for row in forms.block_rows(
        [p], [fld.at(p, order)], body))


def _frame_by_frame(fld, ode, pts, order):
    """The rows of ``normal_form_residual_rows``, each frame built and
    checked on its own."""
    return _one_by_one(fld, pts, order,
                       lambda frame: normal_form_residuals(frame, ode))


@pytest.mark.parametrize("count,bad", [(40, 34), (33, None)],
                         ids=["fails at point 35 of 40", "33 points"])
def test_residual_rows_over_blocks_equal_each_frames_own(count, bad):
    # det h = x vanishes at the bad point only: 32 rows of a full block and
    # 2 of the next come before its DegenerateH.  33 points end in a block
    # of one column.
    assert STACK_BLOCK == 32
    ode = QOde("tan(z)", -1)
    fld = normal_form_4d(solve_q(ode, (-1.2, 1.2)),
                         h=(("x", "0"), ("0", "1")))
    pts = box_points(BOX4, count, seed=61)
    if bad is not None:
        pts[bad] = (0.0, *pts[bad][1:])
    got = _rows_then_error(normal_form_residual_rows(fld, ode, pts, 3))
    # repr tells the values' bits and types apart, and shows a NaN equal
    assert repr(got) == repr(_frame_by_frame(fld, ode, pts, 3))
    rows, error = got
    assert len(rows) == (count if bad is None else bad)
    if bad is not None:
        assert error == (DegenerateH, f"det h = 0.0 at {pts[bad]!r}")


def test_a_failing_stacked_pass_goes_frame_by_frame():
    # omega4 = x dw: the volume vanishes at the third point, so the stacked
    # pass raises, and the block's frames are checked one by one up to it
    ode = QOde("tan(z)", -1)
    fld = coframe_field_from_expressions(
        Chart(("x", "y", "z", "w")),
        [{"dx": "1"}, {"dy": "1", "dz": "y"}, {"dz": "1"}, {"dw": "x"}])
    pts = box_points(BOX4, 5, seed=62)
    pts[2] = (0.0, *pts[2][1:])
    got = _rows_then_error(normal_form_residual_rows(fld, ode, pts, 3))
    assert repr(got) == repr(_frame_by_frame(fld, ode, pts, 3))
    assert [p for p, _ in got[0]] == pts[:2]
    assert got[1] == (SingularVolumeError,
                      "volume-form denominator 0.0 is numerically zero")


@pytest.mark.parametrize("body", [cli._fourdim, cli._curvature4],
                         ids=["fourdim", "curvature"])
def test_a_failing_stacked_block_of_4d_rows_goes_frame_by_frame(body):
    # the rows of the fourdim and 4D curvature commands: omega4 = x dw, so
    # the volume vanishes at the third point, the stacked pass raises, and
    # the block's frames run one by one up to it, each as its own frame
    # would
    fld = coframe_field_from_expressions(
        Chart(("x", "y", "z", "w")),
        [{"dx": "1"}, {"dy": "1", "dz": "y"}, {"dz": "1"}, {"dw": "x"}])
    pts = box_points(BOX4, 5, seed=63)
    pts[2] = (0.0, *pts[2][1:])
    got = _rows_then_error(forms.block_rows(pts, fld.blocks(pts, 2), body))
    want = _one_by_one(fld, pts, 2, body)
    assert repr(got) == repr(want)
    assert [p for p, _ in got[0]] == pts[:2]
    assert got[1] == (SingularVolumeError,
                      "volume-form denominator 0.0 is numerically zero")


@pytest.mark.parametrize("entry,det", [("1e200*1e200", "inf"),
                                       ("-1e200*1e200", "-inf"),
                                       ("0*(1e200*1e200)", "nan")])
def test_a_non_finite_det_h_is_degenerate(entry, det):
    fld = normal_form_4d(solve_q(QOde("tan(z)", -1), (-1.2, 1.2)),
                         h=((entry, "0"), ("0", "1")))
    p = (0.1, 0.2, 0.3, 0.5)
    text = rf"^det h = {det} at \(0.1, 0.2, 0.3, 0.5\)$"
    with np.errstate(all="ignore"):
        with pytest.raises(DegenerateH, match=text):
            fld.at(p, 3)
        # the one build over many points raises too, and the frames are
        # then built point by point
        with pytest.raises(DegenerateH, match=text):
            list(fld.blocks([p] * 2, 3))


def test_normal_form_command_reports_a_non_finite_det_h():
    with np.errstate(all="ignore"):
        rep = cli.run(cli.RunConfig(
            "normal-form", "tan(z)", points=3,
            extra={"eps": 1, "z0": 0.0, "span": (-1.2, 1.2),
                   "h": (("1e200*1e200", "0"), ("0", "1"))}))
    assert rep.records == []
    assert [(e["type"], e["message"].split(" at ")[0]) for e in rep.errors] \
        == [("DegenerateH", "det h = inf")]
