"""Acceptance gate: every numbered deliverable check, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Each test prints its PASS/FAIL line *before* asserting, so a red criterion
still reports its measured numbers.  The leaf curvature ``K_leaf`` is the
intrinsic one (criterion 7 pins it on flat leaves); criterion 8 holds the
shape-operator determinant to the paper's case-2 formula and ties the two by
the Gauss equation.
"""

import math
import time

import numpy as np

from bicontact.curvature import curvature, leaf_geometry, levi_civita
from bicontact.examples import build_example
from bicontact.expressions import parse
from bicontact.forms import (Chart, Coframe, PForm, coframe_field_from_expressions,
                             ext_d, one_form_coeffs, scalar_d, top_ratio,
                             wedge)
from bicontact.fourdim import (QOde, compute_E, curvature4, normal_form_4d,
                               solve_q, symp_structure,
                               symplectic_quadratic_check, verify_normal_form)
from bicontact.jets import Jet, _value
from bicontact.pipeline import (Tolerances, analyze, case2_adapt,
                                cartan_structure_check, circle_volume_coefficient,
                                compute_C, hyperbola_residuals,
                                invariant_coords, mixed_circle_coefficient,
                                predicted_circle_coefficient,
                                taut_circle_field, taut_circle_transform,
                                taut_hyperbola_transform)
from conftest import box_points, eval_jet, one_adapted_block, zero_form

TOL = Tolerances()
THREE_D = ("hyp_c3", "torus_constC", "normal_form_3d", "eta_frame",
           "sphere_frame")
UNIT_AS = [(float(np.cos(t)), float(np.sin(t)))
           for t in np.linspace(0.0, 2 * np.pi, 20, endpoint=False)]


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _finish(num, name, ok, detail, elapsed, budget):
    _verdict(num, name, ok, f"{detail}; {elapsed:.2f}s of {budget:.0f}s")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def test_criterion_01_invariant_equals_z():
    t0 = time.perf_counter()
    worst = 0.0
    for eps in (-1, 1):
        for c3 in ("1", "1+z^2"):
            spec = build_example("hyp_c3", eps=eps, c3=c3)
            pts = box_points(spec.box, 5, seed=101)
            cf = one_adapted_block(spec.coframes(), pts, 6)
            for p, C in zip(pts, _value(compute_C(cf)).tolist()):
                worst = max(worst, abs(C - p[2]))
    _finish(1, "mixed-family invariant", worst <= 1e-9,
            f"max |C - z| = {worst:.2e}", time.perf_counter() - t0, 1.0)


def test_criterion_02_one_adaptation_volumes():
    t0 = time.perf_counter()
    worst = 0.0
    for name in THREE_D:
        spec = build_example(name)
        pts = box_points(spec.box, 4, seed=102)
        cf = one_adapted_block(spec.coframes(), pts, 6)
        vol = cf.volume()
        r1 = top_ratio(wedge(cf.forms[0], ext_d(cf.forms[0])) - vol, vol)
        r2 = top_ratio(wedge(cf.forms[1], ext_d(cf.forms[1]))
                       + vol.scaled(float(cf.eps)), vol)
        worst = max(worst, *abs(_value(r1)).tolist(),
                    *abs(_value(r2)).tolist())
    _finish(2, "unit self-volumes", worst <= 1e-9,
            f"max residual = {worst:.2e}", time.perf_counter() - t0, 1.0)


def test_criterion_03_taut_circle_both_regions():
    t0 = time.perf_counter()
    spec = build_example("hyp_c3")        # eps = -1, C = z, C3 = 1
    worst_a, worst_mixed = 0.0, 0.0
    regions = [(((-0.8, 0.8), (-0.8, 0.8), (-0.85, 0.85)), +1),
               (((-0.8, 0.8), (-0.8, 0.8), (1.1, 1.6)), -1)]
    for box, sign in regions:
        pts = box_points(box, 3, seed=103)
        cf = one_adapted_block(spec.coframes(), pts, 7)
        branch = taut_circle_field([cf])
        taut = taut_circle_transform(cf, branch)[0]
        got = [_value(circle_volume_coefficient(cf, taut, a1, a2)).tolist()
               for a1, a2 in UNIT_AS]
        mixed = _value(mixed_circle_coefficient(cf, taut)).tolist()
        for k, p in enumerate(pts):
            z = p[2]
            for (a1, a2), column in zip(UNIT_AS, got):
                want = predicted_circle_coefficient(z, 1.0, a1, a2)
                worst_a = max(worst_a, abs(column[k] - want))
            want_mixed = sign / abs(1.0 - z * z) ** 1.5
            worst_mixed = max(worst_mixed, abs(mixed[k] - want_mixed))
    ok = worst_a <= 1e-8 and worst_mixed <= 1e-8
    _finish(3, "taut circle volumes", ok,
            f"per-a {worst_a:.2e}, mixed {worst_mixed:.2e}",
            time.perf_counter() - t0, 2.0)


def test_criterion_04_taut_hyperbola_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for name, params in (("hyp_c3", {"eps": 1}), ("torus_constC", {})):
        spec = build_example(name, **params)
        pts = box_points(spec.box, 4, seed=104)
        cf = one_adapted_block(spec.coframes(), pts, 7)
        taut, C, theta = taut_hyperbola_transform(cf)
        r1, r2, defect = hyperbola_residuals(cf, taut, theta)
        worst = max(worst, *r1.tolist(), *r2.tolist(),
                    *abs(_value(defect)).tolist())
    _finish(4, "taut hyperbola volumes", worst <= 1e-8,
            f"max residual = {worst:.2e}", time.perf_counter() - t0, 2.0)


def test_criterion_05_normal_form_family():
    t0 = time.perf_counter()
    worst_res, worst_A, worst_C = 0.0, 0.0, 0.0
    for eps in (1, -1):
        for f in ("0", "sin(x)"):
            for g in ("0", "exp(x)"):
                spec = build_example("normal_form_3d", eps=eps, f=f, g=g)
                pts = box_points(spec.box, 3, seed=105)
                cf = one_adapted_block(spec.coframes(), pts, 8)
                _, rec, _ = case2_adapt(cf)
                res = rec.residuals
                worst_res = max(worst_res,
                                *res["domega1_23_minus_1"].tolist(),
                                *res["domega2_13_minus_eps"].tolist())
                worst_A = max(worst_A, *abs(rec.A1).tolist(),
                              *abs(rec.A2).tolist())
                for p, C in zip(pts, rec.C.tolist()):
                    x = p[0]
                    want = (1.0 / math.tan(2 * x) if eps == 1
                            else -1.0 / math.sin(2 * x))
                    worst_C = max(worst_C, abs(C - want))
    ok = worst_res <= 1e-7 and worst_A <= 1e-7 and worst_C <= 1e-7
    _finish(5, "adapted normal-form family", ok,
            f"struct {worst_res:.2e}, torsion {worst_A:.2e}, C {worst_C:.2e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_06_eta_frame_invariants():
    t0 = time.perf_counter()
    spec = build_example("eta_frame")
    pts = box_points(spec.box, 4, seed=106)
    out, rec, _ = case2_adapt(one_adapted_block(spec.coframes(), pts, 8))
    res = rec.residuals
    worst_B = max(res["B_unit"].tolist())
    worst_res = max(*res["domega1_23_minus_1"].tolist(),
                    *res["domega2_13_minus_eps"].tolist())
    worst_C = max(abs(C - 1.0 / (math.sin(2 * x) * y))
                  for (x, y, _z), C in zip(pts, rec.C.tolist()))
    worst_id = max(invariant_coords(out, TOL)["identity_residual"].tolist())
    ok = (worst_B <= 1e-8 and worst_res <= 1e-7 and worst_C <= 1e-8
          and worst_id <= 1e-6)
    _finish(6, "eta-frame invariants", ok,
            f"B {worst_B:.2e}, struct {worst_res:.2e}, C {worst_C:.2e}, "
            f"coords {worst_id:.2e}", time.perf_counter() - t0, 3.0)


def test_criterion_07_constant_invariant_curvature():
    t0 = time.perf_counter()
    psi = 0.3
    spec = build_example("torus_constC", psi=psi)
    pts = box_points(spec.box, 10, seed=107)
    cf = one_adapted_block(spec.coframes(), pts, 7)
    cs = _value(compute_C(cf))
    cosh2 = math.cosh(2 * psi) ** 2
    # the first four points
    curv = curvature(levi_civita(cf))
    worst_curv = max(
        *abs(_value(curv.coefficient(0, 1, 0, 1))[:4] - cosh2).tolist(),
        *abs(_value(curv.coefficient(0, 2, 0, 2))[:4] + cosh2).tolist(),
        *abs(_value(curv.coefficient(1, 2, 1, 2))[:4] + cosh2).tolist())
    leaf = leaf_geometry(cf)
    worst_leaf = max(*abs(leaf.H[:4]).tolist(), *abs(leaf.K_leaf[:4]).tolist())
    ok = (cs.std() <= 1e-10 and abs(cs.mean() - math.sinh(2 * psi)) <= 1e-10
          and worst_curv <= 1e-7 and worst_leaf <= 1e-8)
    _finish(7, "constant-C curvature", ok,
            f"std {cs.std():.2e}, curv {worst_curv:.2e}, leaf {worst_leaf:.2e}",
            time.perf_counter() - t0, 3.0)


def test_criterion_08_leaf_curvature_oracles():
    """Case-2 leaves of omega^3: H = A3 and det S = A3^2 - C^2 - (1+eps)/2.

    Three clauses: the mean curvature equals A3; the determinant of the
    shape matrix (the extrinsic Gauss-Kronecker curvature) equals the
    paper's formula; and the reported intrinsic ``K_leaf`` satisfies the
    Gauss equation K_leaf = theta_12 + det S, with theta_12 the ambient
    sectional curvature of the leaf plane.
    """
    t0 = time.perf_counter()
    worst_H, worst_det, worst_gauss = 0.0, 0.0, 0.0
    for name, eps in (("eta_frame", -1), ("normal_form_3d", 1)):
        spec = build_example(name)
        pts = box_points(spec.box, 3, seed=108)
        out, rec, _ = case2_adapt(one_adapted_block(spec.coframes(), pts, 8))
        conn = levi_civita(out)
        curv = curvature(conn)
        leaf = leaf_geometry(out, conn, curv)
        want = rec.A3 ** 2 - rec.C ** 2 - 0.5 * (1 + eps)
        (s11, s12), (s21, s22) = leaf.shape
        theta = _value(curv.coefficient(0, 1, 0, 1))
        worst_H = max(worst_H, *abs(leaf.H - rec.A3).tolist())
        worst_det = max(worst_det,
                        *abs(s11 * s22 - s12 * s21 - want).tolist())
        worst_gauss = max(worst_gauss,
                          *abs(leaf.K_leaf - theta - want).tolist())
    ok = worst_H <= 1e-6 and worst_det <= 1e-6 and worst_gauss <= 1e-6
    _finish(8, "case-2 leaf oracles", ok,
            f"|H - A3| {worst_H:.2e}, |detS - formula| {worst_det:.2e}, "
            f"|K_leaf - theta12 - formula| {worst_gauss:.2e}",
            time.perf_counter() - t0, 3.0)


def test_criterion_09_fourdim_pattern():
    t0 = time.perf_counter()
    worst_E0, worst_E, worst_quad, worst_curv = 0.0, 0.0, 0.0, 0.0
    for name in ("fourd_ezero", "fourd_enonzero"):
        spec = build_example(name)
        pts = box_points(spec.box, 3, seed=109)
        (cf,) = spec.coframes().blocks(pts, 6)
        F = symp_structure(cf)
        for p, E in zip(pts, _value(compute_E(cf)).tolist()):
            if name == "fourd_ezero":
                worst_E0 = max(worst_E0, abs(E))
            else:
                x, y, z, w = p
                want = math.exp(2 * w - y * (x + z)) / y
                worst_E = max(worst_E, abs(E - want) / abs(want))
        quad = symplectic_quadratic_check(F, [(1.0, 0.0), (0.3, -0.7)])
        worst_quad = max(worst_quad, *quad["quad11"].tolist(),
                         *quad["quad22"].tolist(), *quad["quad12"].tolist())
        res = curvature4(F).residuals
        worst_curv = max(worst_curv, *(v for key in ("scalar", "pfaffian",
                                                     "theta34", "leaf_trace")
                                       for v in res[key].tolist()))
    ok = (worst_E0 <= 1e-10 and worst_E <= 1e-9 and worst_quad <= 1e-9
          and worst_curv <= 1e-6)
    _finish(9, "4D pattern identities", ok,
            f"E(flat) {worst_E0:.2e}, E(rel) {worst_E:.2e}, "
            f"pairings {worst_quad:.2e}, curvature {worst_curv:.2e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_10_profile_ode_and_build():
    t0 = time.perf_counter()
    worst_ode, worst_drift = 0.0, 0.0
    zs = np.linspace(0.0, 1.0, 41)
    for eps, f1, f2 in ((-1, np.sin, np.cos), (1, np.sinh, np.cosh)):
        sol = solve_q(QOde("0", eps), (0.0, 1.0))
        for z in zs:
            q1, _, q2, _ = sol.state(float(z))
            worst_ode = max(worst_ode, abs(q1 - f1(z)), abs(q2 - f2(z)))
        worst_drift = max(worst_drift, sol.wronskian_drift(zs))
    ode = QOde("tan(z)", -1)
    fld = normal_form_4d(solve_q(ode, (-1.2, 1.2)),
                         h=(("1", "0"), ("x^2/2", "1")))
    pts = box_points(((-0.8, 0.8), (-0.8, 0.8), (-0.9, 0.9), (0.2, 1.8)),
                     4, seed=110)
    worst = verify_normal_form(fld, ode, pts, order=6)
    worst_struct = max(worst[k] for k in ("domega1", "domega2", "domega3",
                                          "domega4"))
    ok = (worst_ode <= 1e-8 and worst_drift <= 1e-8
          and worst_struct <= 1e-6 and worst["E_vs_w"] <= 1e-6)
    _finish(10, "profile ODE and 4D build", ok,
            f"ode {worst_ode:.2e}, drift {worst_drift:.2e}, "
            f"struct {worst_struct:.2e}, E vs w {worst['E_vs_w']:.2e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_11_calculus_infrastructure():
    t0 = time.perf_counter()
    ch = Chart(("x", "y", "z"))
    point = (0.4, -0.3, 0.8)

    def scalar(text, order=6):
        return eval_jet(parse(text, coords=ch.coords), point, order, ch.coords)

    def one_form(texts, order=6):
        return PForm(ch, 1, {(i,): scalar(t, order)
                             for i, t in enumerate(texts)})

    a = one_form(("y*z", "x^2", "sin(x)"))
    b = one_form(("cos(y)", "z", "x*y"))
    dd = ext_d(ext_d(a)).max_abs_value()
    leibniz = (ext_d(wedge(a, b))
               - (wedge(ext_d(a), b) - wedge(a, ext_d(b)))).max_abs_value()

    node = parse("exp(x)*sin(y*z)+x^2*z", coords=ch.coords)
    h = 1e-5
    fd_worst = 0.0
    df = scalar_d(ch, eval_jet(node, point, 3, ch.coords))
    for axis in range(3):
        lo, hi = list(point), list(point)
        lo[axis] -= h
        hi[axis] += h
        fd = (eval_jet(node, tuple(hi), 0, ch.coords).value
              - eval_jet(node, tuple(lo), 0, ch.coords).value) / (2 * h)
        got = df.coeffs[(axis,)].value
        fd_worst = max(fd_worst, abs(got - fd) / max(1.0, abs(fd)))

    rng = np.random.default_rng(111)
    mat = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    forms = [PForm(ch, 1, {(j,): Jet.constant(float(mat[i, j]), 3, 6)
                           + scalar(f"0.1*sin(x+{j}*y)")
                           for j in range(3)}) for i in range(3)]
    frame = Coframe(ch, point, tuple(forms))
    cs = one_form_coeffs(a, frame)
    rebuilt = zero_form(ch, 1, a.order)
    for c, w in zip(cs, frame.forms):
        rebuilt = rebuilt + w.scaled(c)
    recon = (rebuilt - a).max_abs_value()

    spec = build_example("hyp_c3")
    scales = ["(1+x^2/4)", "exp(y/5)", "(2+sin(x))"]
    rows2 = [{k: f"({s})*({v})" for k, v in row.items()}
             for s, row in zip(scales, spec.rows)]
    pts = box_points(spec.box, 5, seed=112)
    out1 = analyze(spec.coframes(), pts, 6, TOL)
    out2 = analyze(coframe_field_from_expressions(spec.chart, rows2), pts, 6,
                   TOL)
    homothety = max(abs(r1.C - r2.C) for r1, r2
                    in zip(out1["records"], out2["records"]))
    same_tags = (out1["case"] == out2["case"] and
                 all(r1.klass == r2.klass for r1, r2
                     in zip(out1["records"], out2["records"])))

    ok = (dd <= 1e-12 and leibniz <= 1e-10 and fd_worst <= 1e-6
          and recon <= 1e-10 and homothety <= 1e-9 and same_tags)
    _finish(11, "calculus infrastructure", ok,
            f"dd {dd:.2e}, Leibniz {leibniz:.2e}, FD {fd_worst:.2e}, "
            f"recon {recon:.2e}, homothety {homothety:.2e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_12_sphere_reduction():
    t0 = time.perf_counter()
    spec = build_example("sphere_frame")
    pts = box_points(spec.box, 4, seed=113)
    cf = one_adapted_block(spec.coframes(), pts, 7)
    out = cartan_structure_check([cf], TOL)
    assert out is not None
    worst_K = max(abs(k - 1.0) for k in out["K"])
    worst_dK = max(r["dK_wedge_12"] for r in out["residuals"])
    worst_C = max(abs(_value(compute_C(cf))).tolist())
    ok = worst_K <= 1e-8 and worst_C <= 1e-10 and worst_dK <= 1e-10
    _finish(12, "sphere-frame reduction", ok,
            f"K {worst_K:.2e}, C {worst_C:.2e}, dK {worst_dK:.2e}",
            time.perf_counter() - t0, 1.0)
