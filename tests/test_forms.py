"""Exterior calculus on jet-coefficient forms: wedge, d, ratios, coframes."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicontact.curvature import _integrability_defect
from bicontact.errors import BudgetError, SingularVolumeError
from bicontact import forms, jets
from bicontact.examples import build_example
from bicontact.expressions import parse
from bicontact.forms import (Chart, Coframe, PForm, coframe_field_from_expressions,
                             ext_d, one_form_coeffs, scalar_d, top_ratio,
                             two_form_coeffs, wedge, wedge_all)
from bicontact.fourdim import QOde, normal_form_4d, solve_q
from bicontact.jets import Jet, _value, ncoeffs, partial, reciprocal
from bicontact.pipeline import analyze, cached_C

from conftest import (DATA, TEST_BLOCK, box_points, eval_jet, load_coframe,
                      value, zero_form)

CH3 = Chart(("x", "y", "z"))


def _at(point):
    """A point as the base point of a frame, a stack of one: one (1,)
    array per coordinate."""
    return forms._coordinates([point])


def _scalar(text, point, order=5, chart=CH3):
    return eval_jet(parse(text, coords=chart.coords), point, order,
                    chart.coords)


def _one_form(texts, point, order=5, chart=CH3):
    coeffs = {(i,): _scalar(t, point, order, chart)
              for i, t in enumerate(texts)}
    return PForm(chart, 1, coeffs)


def _d_coord(chart, axis, order):
    """The coordinate 1-form dx_axis, with constant coefficients."""
    return PForm(chart, 1, {(k,): Jet.constant([float(k == axis)], chart.dim,
                                               order)
                            for k in range(chart.dim)})


POINT = (0.4, -0.3, 0.8)


def test_wedge_antisymmetry():
    a = _one_form(("y*z", "x^2", "sin(x)"), POINT)
    b = _one_form(("1", "exp(z)", "x*y"), POINT)
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert (ab + ba).max_abs_value() < 1e-14
    assert wedge(a, a).max_abs_value() < 1e-14


def test_wedge_associativity():
    a = _one_form(("y", "z", "x"), POINT)
    b = _one_form(("x*y", "1", "0"), POINT)
    c = _one_form(("0", "z^2", "cos(y)"), POINT)
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert (lhs - rhs).max_abs_value() < 1e-13


def test_d_after_d_vanishes():
    for texts in [("y*z", "x^2", "sin(x)*z"),
                  ("exp(x+y)", "cos(z)", "x*y*z")]:
        a = _one_form(texts, POINT, order=6)
        dda = ext_d(ext_d(a))
        assert dda.max_abs_value() < 1e-12
    f = _scalar("sin(x*y)+z^3", POINT, order=6)
    ddf = ext_d(ext_d(scalar_d(CH3, f)))
    assert ddf.max_abs_value() < 1e-12


def test_leibniz_rule():
    a = _one_form(("y*z", "x^2", "sin(x)"), POINT, order=6)
    b = _one_form(("cos(y)", "z", "x*y"), POINT, order=6)
    lhs = ext_d(wedge(a, b))
    rhs = wedge(ext_d(a), b) - wedge(a, ext_d(b))
    assert (lhs - rhs).max_abs_value() < 1e-10

    f = _scalar("exp(x)*y", POINT, order=6)
    lhs2 = ext_d(a.scaled(f))
    rhs2 = ext_d(a).scaled(f) + wedge(scalar_d(CH3, f), a)
    assert (lhs2 - rhs2).max_abs_value() < 1e-10


def test_scalar_d_matches_partials():
    f = _scalar("x^2*y+cos(z)", POINT)
    df = scalar_d(CH3, f)
    x, y, z = POINT
    assert value(df.coeffs[(0,)]) == pytest.approx(2 * x * y, abs=1e-13)
    assert value(df.coeffs[(1,)]) == pytest.approx(x * x, abs=1e-13)
    assert value(df.coeffs[(2,)]) == pytest.approx(-math.sin(z), abs=1e-13)


def test_jet_derivative_matches_finite_differences():
    """Exterior-derivative coefficients vs central differences, rel 1e-6."""
    text = "exp(x)*sin(y*z)+x^2*z"
    node = parse(text, coords=CH3.coords)
    h = 1e-5

    def val(p):
        return value(eval_jet(node, p, 0, CH3.coords))

    f = _scalar(text, POINT, order=3)
    df = scalar_d(CH3, f)
    for axis in range(3):
        lo = list(POINT)
        hi = list(POINT)
        lo[axis] -= h
        hi[axis] += h
        fd = (val(tuple(hi)) - val(tuple(lo))) / (2 * h)
        got = value(df.coeffs[(axis,)])
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_budget_error_when_order_exhausted():
    a = _one_form(("y", "x", "0"), POINT, order=0)
    with pytest.raises(BudgetError):
        ext_d(a, stage="unit-test")


def test_top_ratio_and_singular_volume():
    f = _scalar("2+x^2", POINT)
    omega = wedge_all(_d_coord(CH3, 0, 5), _d_coord(CH3, 1, 5),
                      _d_coord(CH3, 2, 5))
    ratio = top_ratio(omega.scaled(f), omega)
    assert value(ratio) == pytest.approx(2 + POINT[0] ** 2, abs=1e-14)
    # several ratios over one volume can share its checked reciprocal
    per_omega = forms.top_reciprocal(omega, 5)
    shared = omega.scaled(f).coeffs[(0, 1, 2)] * per_omega
    assert shared.c.tobytes() == ratio.c.tobytes()
    assert forms.top_reciprocal(omega, 3).c.tobytes() == \
        per_omega.truncate(3).c.tobytes()
    singular = omega.scaled(Jet.constant([0.0], 3, 5))
    with pytest.raises(SingularVolumeError):
        top_ratio(omega, singular)
    with pytest.raises(SingularVolumeError):
        forms.top_reciprocal(singular, 5)


def _random_frame(point, seed=0, order=5):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    forms = []
    for i in range(3):
        coeffs = {}
        for j in range(3):
            base = Jet.constant([float(mat[i, j])], 3, order)
            wob = _scalar(f"0.1*sin(x+{j}*y)", point, order)
            coeffs[(j,)] = base + wob
        forms.append(PForm(CH3, 1, coeffs))
    return Coframe(CH3, _at(point), tuple(forms))


def test_coefficient_reconstruction_round_trip():
    """Expand in a coframe, rebuild, compare: both degrees, <= 1e-10."""
    frame = _random_frame(POINT, seed=3)
    a = _one_form(("y*z", "exp(x)", "cos(y)"), POINT)
    cs = one_form_coeffs(a, frame)
    rebuilt = zero_form(CH3, 1, a.order)
    for c, w in zip(cs, frame.forms):
        rebuilt = rebuilt + w.scaled(c)
    assert (rebuilt - a).max_abs_value() < 1e-10

    beta = wedge(_one_form(("z", "x", "1"), POINT),
                 _one_form(("1", "y", "x*z"), POINT))
    bc = two_form_coeffs(beta, frame)
    rebuilt2 = zero_form(CH3, 2, beta.order)
    for (i, j), c in bc.items():
        rebuilt2 = rebuilt2 + wedge(frame.forms[i], frame.forms[j]).scaled(c)
    assert (rebuilt2 - beta).max_abs_value() < 1e-10


def test_frobenius_defect():
    dx, dy = _d_coord(CH3, 0, 5), _d_coord(CH3, 1, 5)

    def defect(alpha):
        return _integrability_defect(Coframe(CH3, _at(POINT),
                                             (dx, dy, alpha)), 2)

    dz = _d_coord(CH3, 2, 5)
    assert defect(dz) < 1e-15
    # dz + x dy is a contact form: defect is the unit volume coefficient
    contact = PForm(CH3, 1, {(0,): Jet.constant([0.0], 3, 5),
                             (1,): Jet.variable([POINT[0]], 0, 3, 5),
                             (2,): Jet.constant([1.0], 3, 5)})
    assert defect(contact) == pytest.approx(1.0, abs=1e-13)


def _coefficient_matrix(frame):
    """W with omega^i = sum_j W[i][j] dx^j (jet entries)."""
    return [[w.coeffs[(j,)] for j in range(frame.dim)] for w in frame.forms]


def _jet_inverse(m):
    """Gauss-Jordan inverse of a square matrix of jets, pivoting on the
    largest value: an oracle for the coefficients of 1-forms in a frame,
    independent of the complement kernel."""
    n = len(m)
    dim, order = m[0][0].dim, min(e.order for row in m for e in row)
    a = [[e.truncate(order) for e in row]
         + [Jet.constant([float(i == j)], dim, order) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(value(a[r][col])))
        a[col], a[piv] = a[piv], a[col]
        inv = reciprocal(a[col][col])
        a[col] = [e * inv for e in a[col]]
        for r in range(n):
            if r != col:
                factor = a[r][col]
                a[r] = [e - factor * q for e, q in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _assert_close(got, want, tol=1e-12):
    assert got.order == want.order
    assert np.abs(got.c - want.c).max() <= tol * max(1.0, np.abs(want.c).max())


def test_coframe_volume_and_dual():
    frame = _random_frame(POINT, seed=9)
    vol = frame.volume()
    direct = wedge_all(*frame.forms)
    assert (vol - direct).max_abs_value() < 1e-12
    coeff = _coefficient_matrix(frame)
    dual = _jet_inverse(coeff)
    prod = np.array([[sum(value(coeff[i][k] * dual[k][j]) for k in range(3))
                      for j in range(3)] for i in range(3)])
    assert np.allclose(prod, np.eye(3), atol=1e-12)
    # dx^j = sum_i dual[j][i] omega^i
    for j in range(3):
        for i, c in enumerate(one_form_coeffs(_d_coord(CH3, j, 5),
                                              frame)):
            _assert_close(c, dual[j][i])


def test_one_form_coeffs_on_a_flat_frame_raise_singular_volume():
    frame = _random_frame(POINT, seed=9)
    flat = frame.replace(forms=frame.forms[:2] + (zero_form(CH3, 1, 5),))
    a = _one_form(("y*z", "exp(x)", "cos(y)"), POINT)
    with pytest.raises(SingularVolumeError):
        one_form_coeffs(a, flat)
    with pytest.raises(SingularVolumeError):
        two_form_coeffs(ext_d(a), flat)


def test_coframe_field_from_expressions_evaluates():
    rows = [{"dx": "1", "dz": "y"}, {"dy": "1"}, {"dz": "1"}]
    fld = coframe_field_from_expressions(CH3, rows)
    cf = fld.at(POINT, 4)
    assert _value(cf.omega(1).coeffs[(2,)]).tolist() == \
        pytest.approx([POINT[1]])
    assert _value(cf.omega(2).coeffs[(1,)]).tolist() == [1.0]
    assert cf.dim == 3


def test_two_form_coeffs_with_filled_caches_equal_a_fresh_frame():
    chart = Chart(("x", "y", "z", "w"))
    point = (0.3, -0.2, 0.5, 0.1)
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    forms = tuple(
        PForm(chart, 1, {(j,): Jet.constant([float(mat[i, j])], 4, 4)
                         + _scalar(f"0.1*sin(x+{j}*w)", point, 4, chart)
                         for j in range(4)})
        for i in range(4))
    frame = Coframe(chart, _at(point), forms)
    first = ext_d(_one_form(("y*w", "x^2", "sin(z)", "exp(x)"), point, 5, chart))
    beta = ext_d(_one_form(("z", "cos(w)", "x*y", "1"), point, 5, chart))
    two_form_coeffs(first, frame)           # fills the volume and complements
    cached = two_form_coeffs(beta, frame)
    fresh = two_form_coeffs(beta, frame.replace())
    assert list(cached) == list(fresh)
    for pair in fresh:
        assert cached[pair].c.tobytes() == fresh[pair].c.tobytes()


def test_d_coeffs_is_the_cached_structure_table_of_each_covector():
    chart = Chart(("x", "y", "z"))
    forms = (_one_form(("1", "0", "y"), POINT, 5, chart),
             _one_form(("z", "exp(x)", "0"), POINT, 5, chart),
             _one_form(("sin(y)", "x", "1"), POINT, 5, chart))
    frame = Coframe(chart, _at(POINT), forms)
    for i in range(3):
        table = frame.d_coeffs(i)
        fresh = two_form_coeffs(ext_d(forms[i]), frame.replace())
        assert list(table) == list(fresh)
        for pair in fresh:
            assert table[pair].c.tobytes() == fresh[pair].c.tobytes()
        assert frame.d_coeffs(i) is table
        assert frame.d(i) is frame.d(i, stage="other")
        _assert_bit_equal(frame.d(i), ext_d(forms[i]), True)


# ---------------------------------------------------------------------------
# bitwise oracle: the array kernels of wedge and ext_d against the per-term
# loops they replaced

def _zero_coeffs(chart, degree, order):
    return {k: Jet.constant([0.0], chart.dim, order)
            for k in combinations(range(chart.dim), degree)}


def _loop_wedge(a, b):
    order = min(a.order, b.order)
    out = _zero_coeffs(a.chart, a.degree + b.degree, order)
    for ka, ja in a.coeffs.items():
        for kb, jb in b.coeffs.items():
            if set(ka) & set(kb):
                continue
            key = tuple(sorted(ka + kb))
            inv = sum(1 for i in ka for j in kb if i > j)
            term = (ja * jb) * (-1.0 if inv % 2 else 1.0)
            out[key] = out[key] + term
    return PForm(a.chart, a.degree + b.degree, out)


def _loop_ext_d(a):
    order = a.order
    out = _zero_coeffs(a.chart, a.degree + 1, order - 1)
    for key, j in a.coeffs.items():
        j = j.truncate(order)
        for axis in range(a.chart.dim):
            if axis in key:
                continue
            pos = sum(1 for k in key if k < axis)
            newkey = tuple(sorted(key + (axis,)))
            term = partial(j, axis) * (-1.0 if pos % 2 else 1.0)
            out[newkey] = out[newkey] + term
    return PForm(a.chart, a.degree + 1, out)


CHARTS = {3: CH3, 4: Chart(("x", "y", "z", "w"))}
KINDS = ("dense", "sparse", "constant", "zero")
SPECIAL = (0.0, -0.0, 1.0, -2.5, 1e-300, -1e300)
NONFINITE = (math.inf, -math.inf, math.nan, -math.nan)


def _coefficients(rng, kind, n, finite):
    palette = SPECIAL if finite else SPECIAL + NONFINITE
    c = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
    pick = rng.random(n) < (0.6 if kind == "sparse" else 0.15)
    c[pick] = rng.choice(palette, pick.sum())
    if kind in ("constant", "zero"):
        c[1:] = rng.choice((0.0, -0.0), n - 1)
    if kind == "zero":
        c[0] = rng.choice((0.0, -0.0))
    return c


@st.composite
def _forms(draw, degrees, least_order):
    """Forms of the given degrees on one chart, each coefficient a random
    jet of a drawn kind, and whether every value is finite.  Coefficient
    orders are mixed for finite values and shared within each form otherwise;
    dict insertion order is shuffled."""
    dim = draw(st.sampled_from((3, 4)))
    degs = draw(degrees(dim))
    finite = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    out = []
    for deg in degs:
        keys = draw(st.permutations(list(combinations(range(dim), deg))))
        base = draw(st.integers(least_order, 6))
        coeffs = {}
        for key in keys:
            order = draw(st.integers(base, 6)) if finite else base
            kind = draw(st.sampled_from(KINDS))
            coeffs[key] = Jet(dim, order, _coefficients(
                rng, kind, ncoeffs(dim, order), finite)[:, None])
        out.append(PForm(CHARTS[dim], deg, coeffs))
    return out, finite


def _wedge_degrees(dim):
    return st.sampled_from([(p, q) for p in range(dim + 1)
                            for q in range(dim + 1 - p)])


def _bits(c, finite):
    # A product of two NaNs keeps one of them, and which one NumPy keeps
    # depends on the array length and the element's place in it, so no
    # batched kernel can reproduce the loop's NaN sign and payload bits.
    # Nonfinite inputs are therefore compared with every NaN made canonical:
    # NaN where the loop has NaN, every other value bit for bit.
    return (c if finite else np.where(np.isnan(c), np.nan, c)).tobytes()


def _assert_bit_equal(got, want, finite):
    assert got.degree == want.degree
    assert list(got.coeffs) == list(want.coeffs)
    for key, jet in want.coeffs.items():
        assert got.coeffs[key].order == jet.order
        assert _bits(got.coeffs[key].c, finite) == _bits(jet.c, finite), key


@given(_forms(_wedge_degrees, 0))
@settings(max_examples=300, deadline=None)
def test_wedge_kernel_is_bit_equal_to_the_term_loop(drawn):
    (a, b), finite = drawn
    with np.errstate(all="ignore"):
        _assert_bit_equal(wedge(a, b), _loop_wedge(a, b), finite)


@given(_forms(lambda dim: st.tuples(st.integers(0, dim - 1)), 1))
@settings(max_examples=200, deadline=None)
def test_ext_d_kernel_is_bit_equal_to_the_term_loop(drawn):
    (a,), finite = drawn
    with np.errstate(all="ignore"):
        _assert_bit_equal(ext_d(a), _loop_ext_d(a), finite)


def test_kernels_keep_their_errors():
    a = _one_form(("y", "x", "0"), POINT, order=0)
    with pytest.raises(BudgetError):
        ext_d(a, stage="unit-test")
    top = wedge_all(*(_d_coord(CH3, i, 2) for i in range(3)))
    with pytest.raises(ValueError, match="top-degree"):
        ext_d(top)
    with pytest.raises(ValueError, match="exceeds chart dimension"):
        wedge(top, _d_coord(CH3, 0, 2))
    with pytest.raises(ValueError, match="different charts"):
        wedge(_d_coord(CH3, 0, 2), _d_coord(CHARTS[4], 0, 2))
    frame = _random_frame(POINT, order=2)
    with pytest.raises(ValueError, match="expected a 2-form"):
        two_form_coeffs(_d_coord(CH3, 0, 2), frame)
    with pytest.raises(ValueError, match="expected a 1-form"):
        one_form_coeffs(ext_d(_d_coord(CH3, 0, 2)), frame)


# ---------------------------------------------------------------------------
# one differentiation kernel: scalar_d is ext_d of a 0-form, bit-equal to the
# loop it replaced, and a scalar's frame derivatives are its one_form_coeffs,
# which agree with the inverse coefficient matrix applied axis by axis

def _loop_scalar_d(chart, f):
    return PForm(chart, 1, {(j,): partial(f, j) for j in range(chart.dim)})


def _loop_frame_derivative(f, Winv, k):
    """f along the k-th dual frame vector, summed axis by axis."""
    acc = None
    for j in range(len(Winv)):
        term = Winv[j][k] * partial(f, j)
        acc = term if acc is None else acc + term
    return acc


@given(_forms(lambda dim: st.tuples(st.just(0)), 1))
@settings(max_examples=200, deadline=None)
def test_scalar_d_is_bit_equal_to_per_axis_partials(drawn):
    (a,), _ = drawn
    f = a.coeffs[()]
    with np.errstate(all="ignore"):
        # every coefficient has one term, so even NaN bits must agree
        _assert_bit_equal(scalar_d(a.chart, f), _loop_scalar_d(a.chart, f),
                          True)


def _split(form: PForm) -> list:
    """The columns of a form as forms of their own, stacks of one."""
    return [PForm._of(form.chart, form.degree, form.order,
                      form.c[..., k:k + 1].copy())
            for k in range(form.c.shape[-1])]


def _one_point_frames(block) -> list:
    """The columns of a stacked frame as frames of their own, stacks of
    one: the input of the one-point oracles."""
    return [forms._columns(block, k, k + 1)
            for k in range(len(block.point[0]))]


def _kept_case_frames(case):
    if case == "case1":
        fld = load_coframe(DATA / "case1_frame.txt")
        pts = [(0.25, -0.35, 0.15), (-0.45, 0.55, -0.25)]
    else:
        spec = build_example("normal_form_3d")
        fld, pts = spec.coframes(), box_points(spec.box, 2, seed=5)
    out = analyze(fld, pts, 6)
    assert out["case"] == case
    return [cf for block in out["adapted_blocks"]
            for cf in _one_point_frames(block)]


@pytest.mark.parametrize("case", ["case1", "case2"])
def test_frame_derivatives_match_the_axis_loop(case):
    for frame in _kept_case_frames(case):
        Winv = _jet_inverse(_coefficient_matrix(frame))
        scalars = [cached_C(frame)] + [
            j for w in frame.forms for j in w.coeffs.values()]
        for f in scalars:
            coeffs = one_form_coeffs(scalar_d(frame.chart, f), frame)
            for k in range(frame.dim):
                _assert_close(coeffs[k], _loop_frame_derivative(f, Winv, k))


# ---------------------------------------------------------------------------
# a form is one coefficient array at one order: construction, validation,
# the read-only coefficient view, and the array operations against the
# per-coefficient Jet operations

def test_form_from_mixed_orders_takes_the_lowest_order():
    coeffs = {(0,): Jet.variable([0.1], 0, 3, 5),
              (1,): Jet.constant([2.0], 3, 2),
              (2,): _scalar("sin(x*y)", POINT, order=4)}
    f = PForm(CH3, 1, coeffs)
    assert f.order == 2
    assert f.c.shape == (3, ncoeffs(3, 2), 1)
    for key, jet in coeffs.items():
        assert f.coeffs[key].order == 2
        assert f.coeffs[key].c.tobytes() == jet.truncate(2).c.tobytes()


def test_coefficients_are_read_only():
    f = _d_coord(CH3, 0, 2)
    with pytest.raises(TypeError):
        f.coeffs[(0,)] = Jet.constant([0.0], 3, 2)
    with pytest.raises(ValueError):
        f.coeffs[(1,)].c[0] = 1.0
    with pytest.raises(ValueError):
        f.c[0, 0] = 2.0
    assert value(f.coeffs[(0,)]) == 1.0


def test_bad_coefficients_name_every_fault():
    good = {(i,): Jet.constant([1.0], 3, 2) for i in range(3)}
    with pytest.raises(ValueError, match=r"missing keys \[\(2,\)\]"):
        PForm(CH3, 1, {(0,): good[(0,)], (1,): good[(1,)]})
    with pytest.raises(ValueError, match=r"unexpected keys \[\(0, 1\)\]"):
        PForm(CH3, 1, {**good, (0, 1): Jet.constant([1.0], 3, 2)})
    with pytest.raises(ValueError, match=r"not of dim 3 \[\(1,\)\]"):
        PForm(CH3, 1, {**good, (1,): Jet.constant([1.0], 4, 2)})


def _same_degree(dim):
    return st.integers(0, dim).map(lambda p: (p, p))


def _with_scalar(dim):
    return st.integers(0, dim).map(lambda p: (p, 0))


@given(_forms(_same_degree, 0))
@settings(max_examples=150, deadline=None)
def test_sums_are_bit_equal_to_the_coefficient_ops(drawn):
    (a, b), finite = drawn
    with np.errstate(all="ignore"):
        for got, op in ((a + b, lambda ja, jb: ja + jb),
                        (a - b, lambda ja, jb: ja - jb),
                        (-a, lambda ja, jb: -ja)):
            want = PForm(a.chart, a.degree, {
                k: op(ja, b.coeffs[k]) for k, ja in a.coeffs.items()})
            _assert_bit_equal(got, want, finite)


@given(_forms(_with_scalar, 0), st.sampled_from(SPECIAL + NONFINITE))
@settings(max_examples=150, deadline=None)
def test_scaled_is_bit_equal_to_the_coefficient_products(drawn, x):
    (a, s), finite = drawn
    f = s.coeffs[()]
    with np.errstate(all="ignore"):
        _assert_bit_equal(a.scaled(f), PForm(a.chart, a.degree, {
            k: j * f for k, j in a.coeffs.items()}), finite)
        _assert_bit_equal(a.scaled(x), PForm(a.chart, a.degree, {
            k: j * x for k, j in a.coeffs.items()}),
            finite and math.isfinite(x))


def _loop_coeffs(beta, frame):
    return {key: frame.ratio(wedge(beta, rest)) * sign
            for key, (sign, rest) in frame._complements(beta.degree).items()}


BOX4 = ((-0.8, 0.8), (-0.8, 0.8), (-0.9, 0.9), (0.2, 1.8))


def _two_form_frames(kind):
    if kind in ("case1", "case2"):
        return _kept_case_frames(kind)
    if kind == "fourd_enonzero":
        spec = build_example(kind)
        return [spec.coframes().at(p, order)
                for p in box_points(spec.box, 2, seed=3) for order in (2, 6)]
    if kind == "normal_form_4d":
        fld = normal_form_4d(solve_q(QOde("tan(z)", -1), (-1.2, 1.2)),
                             h=(("1", "0"), ("x^2/2", "1")))
        return [fld.at(p, order)
                for p in box_points(BOX4, 2, seed=5) for order in (3, 6)]
    chart = CHARTS[4]
    point = (0.3, -0.2, 0.5, 0.1)
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    return [Coframe(chart, _at(point), tuple(
        PForm(chart, 1, {(j,): _scalar(f"0.1*sin(x+{j}*w)*exp(y*z)", point,
                                       6, chart) + float(mat[i, j])
                         for j in range(4)})
        for i in range(4)))]


@pytest.mark.parametrize("kind", ["case1", "case2", "fourd_enonzero",
                                  "normal_form_4d", "dim4_order6"])
def test_two_form_coeffs_is_bit_equal_to_the_pair_loop(kind):
    groups = []
    for frame in _two_form_frames(kind):
        betas = [frame.d(i) for i in range(frame.dim)]
        betas.append(wedge(frame.forms[0], frame.forms[-1]))
        betas += list(frame.forms)
        betas += [scalar_d(frame.chart, f) for f in (
            frame.forms[0].coeffs[(0,)], frame.forms[-1].coeffs[(1,)])]
        if frame.dim == 3:
            betas.append(scalar_d(frame.chart, cached_C(frame)))
        for beta in betas:
            want = _loop_coeffs(beta, frame)
            if beta.degree == 1:
                got = dict(zip(want, one_form_coeffs(beta, frame)))
            else:
                got = two_form_coeffs(beta, frame)
            assert list(got) == list(want)
            for key, jet in want.items():
                assert got[key].order == jet.order
                assert got[key].c.tobytes() == jet.c.tobytes(), key
            groups.append(len(frame._complement_rows(beta.degree,
                                                     beta.order)))
    if kind == "normal_form_4d":
        # the frame's covectors have three orders, so its complements do too
        assert max(groups) > 1


# ---------------------------------------------------------------------------
# the kernels over a trailing point axis: each column bit-equal to the
# one-point kernel, and the structure tables of a block of frames

@st.composite
def _at_points(draw, degrees, least_order):
    """Forms as ``_forms`` draws them at 1-4 points: one list of forms per
    point, each a stack of one, the forms that stack them, and whether
    every value is finite."""
    first, finite = draw(_forms(degrees, least_order))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = [first] + [
        [PForm._of(f.chart, f.degree, f.order, np.array([
            _coefficients(rng, draw(st.sampled_from(KINDS)), len(row), finite)
            for row in f.c])[..., None]) for f in first]
        for _ in range(draw(st.integers(0, 3)))]
    stacked = [PForm._of(f.chart, f.degree, f.order,
                         np.concatenate([p[i].c for p in points], -1))
               for i, f in enumerate(first)]
    return points, stacked, finite


@given(_at_points(_wedge_degrees, 0))
@settings(max_examples=200, deadline=None)
def test_kernels_over_a_point_axis_are_bit_equal_per_point(drawn):
    points, (a, b), finite = drawn
    with np.errstate(all="ignore"):
        cases = [(wedge(a, b), [wedge(*p) for p in points])]
        if a.order >= 1 and a.degree < a.chart.dim:
            cases.append((ext_d(a), [ext_d(p[0]) for p in points]))
        if b.degree == 0:
            cases.append((a.scaled(b.coeffs[()]),
                          [p[0].scaled(p[1].coeffs[()]) for p in points]))
    for got, want in cases:
        assert got.c.shape[-1] == len(points)
        split = _split(got)
        assert len(split) == len(want)
        for g, w in zip(split, want):
            _assert_bit_equal(g, w, finite)


# (dim, order, points) of stacked products on both sides of
# jets.FLAT_PRODUCT_MAX weights x points: the sizes the workloads run, and
# a 2D 1-form wedged or scaled at order 2 (30 weights) at the crossover and
# one column past it
_AT_CROSSOVER = jets.FLAT_PRODUCT_MAX // 30
_KERNEL_SIZES = [(3, 5, 28), (3, 5, 32), (3, 6, 32), (4, 3, 32), (4, 3, 200),
                 (2, 2, _AT_CROSSOVER), (2, 2, _AT_CROSSOVER + 1)]
_KERNEL_CHARTS = {2: Chart(("x", "y")), **CHARTS}


def _special_form(rng, dim, degree, order, count, factor):
    """A random degree-form at ``count`` points with -0.0 coefficients in
    column 0.  A ``factor`` has no derivative part in column 1; any other
    form has an inf there, and an inf in column 2 and a NaN in column 3."""
    c = rng.standard_normal((len(forms._keys(dim, degree)),
                             ncoeffs(dim, order), count))
    c[:, [0, 2, -1], 0] = -0.0
    if factor:
        c[:, 1:, 1] = 0.0
    else:
        c[0, 1, 1] = c[-1, 1, 2] = math.inf
        c[0, 1, 3] = math.nan
    return PForm._of(_KERNEL_CHARTS[dim], degree, order, c)


def _special_frame(rng, dim, order, count):
    """A frame at ``count`` points near the coordinate coframe, with -0.0
    coefficients in column 0 and no derivative part in column 1."""
    covectors = []
    for i in range(dim):
        c = 0.1 * rng.standard_normal((dim, ncoeffs(dim, order), count))
        c[i, 0] += 1.0
        c[:, 2, 0] = -0.0
        c[:, 1:, 1] = 0.0
        covectors.append(PForm._of(CHARTS[dim], 1, order, c))
    return Coframe(CHARTS[dim], tuple(np.zeros(count) for _ in range(dim)),
                   tuple(covectors))


def _product_paths(monkeypatch, count):
    """A list that gets (weights x points, whether it summed by rank groups)
    of each ``forms._multiply`` call over ``count`` points from here on."""
    paths, ranked = [], []
    multiply, rank_sums = forms._multiply, jets._rank_sums

    def spy(x, y, plan):
        before = len(ranked)
        out = multiply(x, y, plan)
        if x.shape[2] == count:
            paths.append((len(plan.T) * count, len(ranked) > before))
        return out

    monkeypatch.setattr(forms, "_multiply", spy)
    monkeypatch.setattr(jets, "_rank_sums",
                        lambda *args: ranked.append(1) or rank_sums(*args))
    return paths


@pytest.mark.parametrize("dim,order,count", _KERNEL_SIZES)
def test_stacked_products_are_bitwise_the_one_point_products(monkeypatch, dim,
                                                            order, count):
    """Stacked ``wedge``, ``PForm.scaled`` and ``two_form_coeffs`` give, in
    each column of each coefficient, the bits of the one-point result (NaNs
    made canonical): the term loop of ``Jet`` products for the first two,
    the one-point kernel for the third.  The columns hold signed zeros, inf
    and NaN coefficients, and a factor without a derivative part against an
    inf, where ``Jet.__mul__`` takes its scaling path.  Each product sums by
    rank groups exactly where its weights x points pass
    ``FLAT_PRODUCT_MAX``."""
    rng = np.random.default_rng(1000 * dim + count)
    a = _special_form(rng, dim, 1, order, count, factor=False)
    b = _special_form(rng, dim, 1, order, count, factor=True)
    s = _special_form(rng, dim, 0, order, count, factor=True)
    paths = _product_paths(monkeypatch, count)
    with np.errstate(all="ignore"):
        cases = [(wedge(a, b), [_loop_wedge(x, y)
                                for x, y in zip(_split(a), _split(b))]),
                 (a.scaled(s.coeffs[()]),
                  [PForm(x.chart, 1, {k: j * y.coeffs[()]
                                      for k, j in x.coeffs.items()})
                   for x, y in zip(_split(a), _split(s))])]
        if dim > 2:
            frame = _special_frame(rng, dim, order, count)
            beta = _special_form(rng, dim, 2, order, count, factor=False)
            table = two_form_coeffs(beta, frame)
            want = [two_form_coeffs(x, one) for x, one in
                    zip(_split(beta), _one_point_frames(frame))]
    for got, one_point in cases:
        for g, w in zip(_split(got), one_point, strict=True):
            _assert_bit_equal(g, w, False)
    if dim > 2:
        for k, w in enumerate(want):
            assert list(table) == list(w)
            for key, jet in w.items():
                assert table[key].order == jet.order
                assert _bits(np.ascontiguousarray(table[key].c[:, k]),
                             False) == _bits(jet.c, False), (k, key)
    assert paths
    assert all(grouped == (size > jets.FLAT_PRODUCT_MAX)
               for size, grouped in paths)
    assert {grouped for _, grouped in paths} == {count != _AT_CROSSOVER}


# ---------------------------------------------------------------------------
# the stacked kernels: each form of a stack equal to its own one-form call

@st.composite
def _stacks(draw, degrees, least_order, least_points=1):
    """Items of forms of the given degrees on one chart at ``least_points``
    to three points, each form at its own order where every value is finite (one
    order per item otherwise), coefficients of drawn kinds, and whether
    every value is finite."""
    dim = draw(st.sampled_from((3, 4)))
    degs = draw(degrees(dim))
    finite = draw(st.booleans())
    count = draw(st.integers(least_points, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    items = []
    for _ in range(draw(st.integers(1, 5))):
        base = draw(st.integers(least_order, 4))
        item = []
        for deg in degs:
            order = draw(st.integers(base, 4)) if finite else base
            n = ncoeffs(dim, order)
            item.append(PForm._of(CHARTS[dim], deg, order, np.stack([
                np.array([_coefficients(rng, draw(st.sampled_from(KINDS)), n,
                                        finite)
                          for _ in forms._keys(dim, deg)])
                for _ in range(count)], -1)))
        items.append(tuple(item))
    return items, finite


@given(_stacks(_wedge_degrees, 0))
@settings(max_examples=150, deadline=None)
def test_each_wedge_of_a_stack_is_its_own_wedge(drawn):
    items, finite = drawn
    with np.errstate(all="ignore"):
        got = forms.wedge_stack(items)
        want = [wedge(a, b) for a, b in items]
    for g, w in zip(got, want, strict=True):
        _assert_bit_equal(g, w, finite)


@given(_stacks(lambda dim: st.tuples(st.integers(0, dim - 1)), 1))
@settings(max_examples=150, deadline=None)
def test_each_ext_d_of_a_stack_is_its_own_ext_d(drawn):
    items, finite = drawn
    with np.errstate(all="ignore"):
        got = forms.ext_d_stack([a for a, in items])
        want = [ext_d(a) for a, in items]
    for g, w in zip(got, want, strict=True):
        _assert_bit_equal(g, w, finite)


@given(_stacks(lambda dim: st.tuples(st.integers(1, 2)), 0, 2),
       st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_each_table_of_a_stack_is_its_own_table(drawn, order, seed):
    items, finite = drawn
    betas = [beta for beta, in items]
    frame = _special_frame(np.random.default_rng(seed), betas[0].chart.dim,
                           order, betas[0].c.shape[-1])
    with np.errstate(all="ignore"):
        got = forms.coeffs_stack(betas, frame)
        want = [two_form_coeffs(beta, frame) if beta.degree == 2 else
                dict(zip(forms._keys(frame.dim, 1),
                         one_form_coeffs(beta, frame))) for beta in betas]
    for g, w in zip(got, want, strict=True):
        assert list(g) == list(w)
        for key, jet in w.items():
            assert g[key].order == jet.order
            assert _bits(g[key].c, finite) == _bits(jet.c, finite), key


def test_stacks_keep_the_one_form_errors():
    a = _one_form(("y", "x", "0"), POINT, order=0)
    b = _one_form(("y", "x", "z"), POINT, order=2)
    with pytest.raises(BudgetError, match="'unit-test'"):
        forms.ext_d_stack([b, a], stage="unit-test")
    top = wedge_all(*(_d_coord(CH3, i, 2) for i in range(3)))
    with pytest.raises(ValueError, match="top-degree"):
        forms.ext_d_stack([b, top])
    with pytest.raises(ValueError, match="exceeds chart dimension"):
        forms.wedge_stack([(a, b), (top, b)])
    with pytest.raises(ValueError, match="different charts"):
        forms.wedge_stack([(a, b), (b, _d_coord(CHARTS[4], 0, 2))])
    with pytest.raises(ValueError, match="expected a 3-form on a chart"):
        forms.coeffs_stack([ext_d(b), wedge_all(b, b, b)],
                           _random_frame(POINT, order=2))
    assert forms.wedge_stack([]) == forms.ext_d_stack([]) == []
    # a stack over two charts of one dimension gives each form its own
    other = Chart(("u", "v", "w"))
    c = PForm._of(other, 1, 2, b.c)
    assert [f.chart for f in forms.wedge_stack([(b, b), (c, c)])] == \
        [CH3, other]
    assert [f.chart for f in forms.ext_d_stack([b, c])] == [CH3, other]


# omega3 = x dz: the volume x dx^dy^dz vanishes at x = 0
_FLAT_AT_X0 = [{"dx": "1"}, {"dy": "1", "dz": "y"}, {"dz": "x"}]


@pytest.mark.parametrize("count", [3, 1, 33, 40, 129])
def test_per_point_splits_a_form_and_blocks_stack_the_frames(monkeypatch,
                                                             count):
    # the blocks of forms.STACK_BLOCK columns, the last one shorter, whose
    # columns, split per point, are bit-equal to the stacks of one at()
    # builds: lists of up to 40 points at blocks of TEST_BLOCK, and 129
    # points at the shipped size, a full block and one column
    if count == 129:
        assert forms.STACK_BLOCK == 128
    else:
        monkeypatch.setattr(forms, "STACK_BLOCK", TEST_BLOCK)
    size = forms.STACK_BLOCK
    fld = coframe_field_from_expressions(CH3, _FLAT_AT_X0)
    pts = box_points(((0.1, 0.9), (-0.5, 0.5), (-0.5, 0.5)), count, seed=4)
    frames = [fld.at(p, 3) for p in pts]
    blocks = list(fld.blocks(pts, 3))
    assert [len(b.point[0]) for b in blocks] == \
        [min(size, count - start) for start in range(0, count, size)]
    for start, block in zip(range(0, count, size), blocks):
        chunk = frames[start:start + size]
        assert [list(x) for x in block.point] == \
            [list(x) for x in zip(*pts[start:start + size])]
        assert block.stage == frames[0].stage
        for i, form in enumerate(block.forms):
            assert form.c.shape == \
                frames[0].forms[i].c.shape[:-1] + (len(chunk),)
            assert [f.c.tobytes() for f in _split(form)] == \
                [frame.forms[i].c.tobytes() for frame in chunk]


def _structure_fields():
    """(field, points, order) triples of one stacked block each."""
    nf = normal_form_4d(solve_q(QOde("tan(z)", -1), (-1.2, 1.2)),
                        h=(("1", "0"), ("x^2/2", "1")))
    e4, n3 = build_example("fourd_enonzero"), build_example("normal_form_3d")
    # the exponent x*y of z^(x*y) has no derivative part at x = y = 0, so
    # the two points take different power branches
    power = coframe_field_from_expressions(
        CH3, [{"dx": "1"}, {"dy": "1"}, {"dz": "z^(x*y)"}])
    return [(nf, box_points(BOX4, 7, seed=6), 3),
            (nf, box_points(BOX4, 5, seed=7), 6),
            (e4.coframes(), box_points(e4.box, 7, seed=8), 2),
            (n3.coframes(), box_points(n3.box, 5, seed=9), 6),
            (power, [(0.0, 0.0, 0.5), (0.3, 0.5, 0.5)], 1)]


def _columns(table) -> list:
    """A {key: Jet} table of a stacked frame as one (key, order, bytes)
    list per column."""
    return [[(key, jet.order, np.ascontiguousarray(jet.c[:, k]).tobytes())
             for key, jet in table.items()]
            for k in range(next(iter(table.values())).c.shape[1])]


@pytest.mark.parametrize("index", range(5), ids=[
    "normal_form_4d order 3", "normal_form_4d order 6",
    "fourd_enonzero order 2", "normal_form_3d order 6", "z^(x*y) order 1"])
def test_structure_tables_of_a_block_equal_each_frames_own(index):
    fld, pts, order = _structure_fields()[index]
    (stacked,) = fld.blocks(pts, order)
    for i in range(stacked.dim):
        want = []
        for p in pts:
            own = fld.at(p, order).d_coeffs(i)
            want.append([(key, jet.order, jet.c.tobytes())
                         for key, jet in own.items()])
        assert _columns(stacked.d_coeffs(i)) == want, i


def _outcome(frame):
    try:
        return [frame.d_coeffs(i)[(0, 1)].c.tobytes() for i in range(3)]
    except SingularVolumeError as exc:
        return str(exc)


def test_structure_tables_keep_each_frames_error():
    # the stacked tables raise the first failing frame's own error, so a
    # caller that then goes frame by frame meets it at that frame
    fld = coframe_field_from_expressions(CH3, _FLAT_AT_X0)
    pts = [(0.5, 0.2, 0.1), (0.0, 0.3, 0.2), (0.7, 0.4, 0.3)]
    got = [_outcome(fld.at(p, 3)) for p in pts]
    assert got[1] == "volume-form denominator 0.0 is numerically zero"
    assert isinstance(got[0], list) and isinstance(got[2], list)
    (stacked,) = fld.blocks(pts, 3)
    assert _outcome(stacked) == got[1]


@pytest.mark.parametrize("value,text", [
    (math.nan, "nan is non-finite"), (math.inf, "inf is non-finite"),
    (-math.inf, "-inf is non-finite"), (0.0, "0.0 is numerically zero")])
def test_a_singular_volume_names_its_value(value, text):
    omega = wedge_all(*(_d_coord(CH3, i, 2) for i in range(3)))
    with np.errstate(invalid="ignore"):
        with pytest.raises(SingularVolumeError,
                           match=f"^volume-form denominator {text}$"):
            top_ratio(omega, omega.scaled(value))
        # over many points, the first bad column raises
        with pytest.raises(SingularVolumeError,
                           match=f"^volume-form denominator {text}$"):
            forms._check_denominator(Jet.constant([1.0, value, 0.0], 3, 2))


def test_repr_shows_the_values_of_one_point_and_of_many():
    jet = Jet.constant([2.0], 3, 1)
    assert repr(jet) == "Jet(dim=3, order=1, value=[2])"
    many = Jet.constant([2.0, -0.5], 3, 1)
    assert repr(many) == "Jet(dim=3, order=1, value=[2, -0.5])"
    form = PForm(CH3, 1, {(0,): many, (1,): many * 0.0, (2,): many})
    assert repr(form) == ("PForm(degree=1, values={(0,): [2.0, -0.5], "
                          "(1,): [0.0, 0.0], (2,): [2.0, -0.5]})")
