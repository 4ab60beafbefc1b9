"""Invariance under coordinate changes: an oracle independent of the kernels.

Every quantity the pipeline reports is built from the coframe by
coordinate-free operations (wedge, d, ratios of top forms), so pulling the
coframe back by a diffeomorphism phi must give, at a point q, the values the
original coframe gives at phi(q).  The pullback is built here on the
expression level, from a substitution of the coordinates and a Jacobian
taken with ``expressions.differentiate``:

    (phi* omega)_k = sum_j (a_j o phi) * d phi^j / d y_k

for omega = sum_j a_j dx^j.  ``hypothesis`` draws near-identity maps
phi^j = y_j + delta_j * f_j(y_(j+1)) * y_(j+2), |delta_j| <= 0.05, on built-in
examples and on the case-1 definition file ``tests/data/case1_frame.txt``.  Jet
arithmetic on the pulled-back coefficients shares no intermediate value with
the original, so agreement to 1e-9 relative holds whatever way the forms
layer rounds, except for theta13 of ``normal_form_3d`` (see
``CURVATURE_TOL``).  The draws are derandomized, so every run checks the
same maps.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from bicontact import cli
from bicontact.examples import build_example
from bicontact.expressions import (BinOp, Call, Neg, Num, Var, differentiate,
                                   eval_number, parse)
from bicontact.curvature import curvature, levi_civita, scalar_curvature
from bicontact.forms import block_rows, coframe_field_from_expressions
from bicontact.fourdim import curvature4, symp_structure
from bicontact.inputfile import load_definition
from bicontact.jets import _value
from bicontact.pipeline import analyze

from conftest import DATA, box_points

TOL = 1e-9
FUNCS = ("sin", "cos", "tanh")
# The curvature of normal_form_3d comes at the end of an order-6 chain (raw
# frame, one_adapt, C, dC, the omega3 frame, case2_adapt, the connection and
# its d).  Shifting the evaluation point by a few ulps moves the exact values
# by about 1e-15, so the spread of the computed values over such shifts is
# rounding noise.  Over +-2 ulps, summed over the pulled-back and the
# original evaluation, the largest relative noise in two sets of 80 random
# draws was 4.1e-9 for theta13, 4.5e-10 for theta12, 8.9e-11 for theta23
# and 3.8e-10 for the scalar curvature; over +-4 ulps theta13 reached 2.8e-9
# at the pinned draw of test_adapted_frame_curvature_pulls_back, where the
# two sides differ by 1.3e-9.  The differences stayed within 2.4 times the
# noise (median about 0.2 of it), as rounding would give.  So theta13 of
# normal_form_3d is held to about five times its largest noise; the other
# three keys, whose noise and differences (at most 8.4e-11) stay under TOL,
# and the case-1 fixture (noise 2.5e-13) keep TOL.
CURVATURE_TOL = {("normal_form_3d", "theta13"): 2e-8}


def _substitute(node, env):
    """``node`` with every Var named in ``env`` replaced by its AST."""
    if isinstance(node, Var):
        return env.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(_substitute(node.arg, env))
    if isinstance(node, BinOp):
        return BinOp(node.op, _substitute(node.left, env),
                     _substitute(node.right, env))
    if isinstance(node, Call):
        return Call(node.name, tuple(_substitute(a, env) for a in node.args))
    return node


def _near_identity(coords, deltas, funcs):
    """The map phi as one AST per coordinate, in the coordinates ``coords``."""
    n = len(coords)
    return [BinOp("+", Var(c), BinOp("*", BinOp("*", Num(d), Call(
        f, (Var(coords[(j + 1) % n]),))), Var(coords[(j + 2) % n])))
        for j, (c, d, f) in enumerate(zip(coords, deltas, funcs))]


def _source(name):
    """(chart, rows, params, box) of a built-in example, or of a definition
    file under ``tests/data``, sampled in the CLI's default cube."""
    if name.endswith(".txt"):
        defn = load_definition(DATA / name)
        half = cli.DEFAULT_HALF_WIDTH
        return (defn.chart, defn.rows, defn.params,
                ((-half, half),) * defn.chart.dim)
    spec = build_example(name)
    return spec.chart, spec.rows, spec.params, spec.box


def _pullback_rows(coords, rows, params, phi):
    """The coefficient rows of phi* omega, one {coordinate: AST} per
    covector."""
    env = dict(zip(coords, phi))
    jac = [[differentiate(p, c) for c in coords] for p in phi]
    pulled_rows = []
    for row in rows:
        a = {}
        for key, text in row.items():
            name = key if key in coords else key[1:]
            a[coords.index(name)] = _substitute(
                parse(text, coords, list(params)), env)
        pulled = {}
        for k, name in enumerate(coords):
            acc = None
            for j, aj in sorted(a.items()):
                d = jac[j][k]
                if d == Num(0.0):
                    continue
                term = aj if d == Num(1.0) else BinOp("*", aj, d)
                acc = term if acc is None else BinOp("+", acc, term)
            if acc is not None:
                pulled[name] = acc
        pulled_rows.append(pulled)
    return pulled_rows


def _fields(name, deltas, funcs, seed, shrink):
    """(original field, pulled-back field, points q, points phi(q)); q is
    drawn from the source's box shrunk by ``shrink``, so that phi(q), at
    most 0.05 max|y| away, stays inside it."""
    chart, rows, params, box = _source(name)
    coords = chart.coords
    phi = _near_identity(coords, deltas, funcs)
    orig = coframe_field_from_expressions(chart, rows, params=params)
    pulled = coframe_field_from_expressions(
        chart, _pullback_rows(coords, rows, params, phi), params=params)
    box = [(lo + shrink, hi - shrink) for lo, hi in box]
    qs = box_points(box, 2, seed=seed)
    images = [tuple(eval_number(p, dict(zip(coords, q))) for p in phi)
              for q in qs]
    return orig, pulled, qs, images


def _assert_close(got, want, what, tol=TOL):
    assert math.isfinite(got) and math.isfinite(want), what
    assert abs(got - want) <= tol * max(1.0, abs(want)), (what, got, want)


def _maps(dim):
    return st.tuples(
        st.lists(st.floats(-0.05, 0.05), min_size=dim, max_size=dim),
        st.lists(st.sampled_from(FUNCS), min_size=dim, max_size=dim),
        st.integers(0, 2 ** 16))


INVARIANTS_3D = ("C", "C1", "C2", "C3", "A1", "A2", "A3", "B1", "B2", "B3",
                 "zeta", "zeta3", "W")
INVARIANTS_CASE1 = ("C", "C1", "C2", "C3", "A1", "A2", "A3", "B1", "B2", "B3",
                    "xi", "rho")
CASE1_FILE = "case1_frame.txt"


@given(_maps(3))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_normal_form_3d_invariants_pull_back(drawn):
    deltas, funcs, seed = drawn
    orig, pulled, qs, images = _fields("normal_form_3d", deltas, funcs, seed,
                                       0.1)
    order = cli.ORDER_NEEDED["invariants", 3]
    got = analyze(pulled, qs, order)
    want = analyze(orig, images, order)
    assert (got["case"], got["eps"]) == (want["case"], want["eps"]) \
        == ("case2", want["eps"])
    for g, w in zip(got["records"], want["records"]):
        assert g.klass == w.klass
        for key in INVARIANTS_3D:
            _assert_close(getattr(g, key), getattr(w, key), key)


@given(_maps(3))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_case1_fixture_invariants_pull_back(drawn):
    deltas, funcs, seed = drawn
    orig, pulled, qs, images = _fields(CASE1_FILE, deltas, funcs, seed, 0.1)
    order = cli.ORDER_NEEDED["invariants", 3]
    got = analyze(pulled, qs, order)
    want = analyze(orig, images, order)
    assert (got["case"], got["eps"]) == (want["case"], want["eps"]) \
        == ("case1", -1)
    for g, w in zip(got["records"], want["records"]):
        assert g.klass == w.klass
        for key in INVARIANTS_CASE1:
            _assert_close(getattr(g, key), getattr(w, key), key)


def _adapted_curvature(fld, points, order):
    """(theta12, theta13, theta23, scalar curvature) of each adapted frame,
    as the ``curvature`` command reports them."""
    def table(cf):
        curv = curvature(levi_civita(cf))
        return {"theta12": _value(curv.coefficient(0, 1, 0, 1)),
                "theta13": _value(curv.coefficient(0, 2, 0, 2)),
                "theta23": _value(curv.coefficient(1, 2, 1, 2)),
                "scalar": _value(scalar_curvature(curv))}

    result = analyze(fld, points, order)
    return result["case"], [row for _, row in block_rows(
        points, result["adapted_blocks"], table)]


@given(_maps(3))
@example(([0.046875, 0.0, 0.0], ["sin", "sin", "sin"], 0))
@settings(max_examples=4, deadline=None, derandomize=True)
@pytest.mark.parametrize("name", ["normal_form_3d", CASE1_FILE])
def test_adapted_frame_curvature_pulls_back(name, drawn):
    deltas, funcs, seed = drawn
    orig, pulled, qs, images = _fields(name, deltas, funcs, seed, 0.1)
    order = cli.ORDER_NEEDED["curvature", 3]
    got_case, got = _adapted_curvature(pulled, qs, order)
    want_case, want = _adapted_curvature(orig, images, order)
    assert got_case == want_case
    for g, w in zip(got, want):
        for key in ("theta12", "theta13", "theta23", "scalar"):
            _assert_close(g[key], w[key], key,
                          CURVATURE_TOL.get((name, key), TOL))


@given(_maps(4))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_fourd_enonzero_pattern_and_curvature_pull_back(drawn):
    deltas, funcs, seed = drawn
    orig, pulled, qs, images = _fields("fourd_enonzero", deltas, funcs, seed,
                                       0.08)
    order = cli.ORDER_NEEDED["fourdim", 4]
    for q, p in zip(qs, images):
        got, want = (symp_structure(fld.at(x, order))
                     for fld, x in ((pulled, q), (orig, p)))
        assert got.eps.tolist() == want.eps.tolist()
        got4, want4 = curvature4(got), curvature4(want)
        for key, g, w in (
                ("C", got.C, want.C), ("E", got.E, want.E),
                ("E1", got.expansion["E1"], want.expansion["E1"]),
                ("E2", got.expansion["E2"], want.expansion["E2"]),
                ("S", got4.S, want4.S),
                ("pfaffian", got4.pfaffian, want4.pfaffian)):
            (g,), (w,) = _value(g), _value(w)
            _assert_close(g, w, key)


def test_pullback_by_the_identity_rebuilds_the_frame():
    orig, pulled, qs, images = _fields("normal_form_3d", (0.0,) * 3,
                                       FUNCS, 1, 0.1)
    assert images == qs
    for q in qs:
        for a, b in zip(pulled.at(q, 3).forms, orig.at(q, 3).forms):
            assert (a - b).max_abs_value() <= 1e-14
