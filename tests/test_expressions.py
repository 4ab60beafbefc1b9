"""Expression DSL: parsing, printing, evaluation, symbolic differentiation."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bicontact import expressions as ex, jets
from bicontact.errors import DomainError, ParseError, UnknownIdentifier
from bicontact.forms import Chart, coframe_field_from_expressions
from bicontact.jets import Jet

from conftest import coeff, eval_jet, value


@pytest.mark.parametrize("text,value", [
    ("1+2*3", 7.0),
    ("(1+2)*3", 9.0),
    ("2^3^2", 512.0),            # right-associative power
    ("-2^2", 4.0),               # unary minus binds tighter than power
    ("-(2^2)", -4.0),
    ("2--3", 5.0),
    ("10/4/5", 0.5),             # left-associative division
    ("cos(0)+sin(0)", 1.0),
    ("exp(ln(3))", 3.0),
    ("sqrt(2)^2", 2.0),
    ("csc(1)*sin(1)", 1.0),
    ("cot(1)*tan(1)", 1.0),
])
def test_numeric_evaluation(text, value):
    node = ex.parse(text)
    assert ex.eval_number(node, {}) == pytest.approx(value, abs=1e-12)


def test_variables_and_params():
    node = ex.parse("a*x+y^2", coords=("x", "y"), params=("a",))
    assert ex.eval_number(node, {"x": 2.0, "y": 3.0, "a": 10.0}) == 29.0
    jet = eval_jet(node, (2.0, 3.0), 3, ("x", "y"), {"a": 10.0})
    assert value(jet) == 29.0
    assert coeff(jet, (1, 0)) == pytest.approx(10.0)
    assert coeff(jet, (0, 1)) == pytest.approx(6.0)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        ex.parse("x+q", coords=("x",))


@pytest.mark.parametrize("bad", ["", "1+", "(2", "2*", "sin()", "sin(1,2)",
                                 "1 2", "^2", "foo(1)"])
def test_parse_errors(bad):
    with pytest.raises((ParseError, UnknownIdentifier)):
        ex.parse(bad, coords=())


# -- printing round trip ----------------------------------------------------

_FN = ["sin", "cos", "exp", "cosh", "sinh", "atan"]


def _ast(depth):
    leaf = st.one_of(
        st.floats(0.1, 4.0).map(lambda v: ex.Num(round(v, 3))),
        st.sampled_from(["x", "y"]).map(ex.Var))
    if depth == 0:
        return leaf
    sub = _ast(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
            lambda t: ex.BinOp(t[0], t[1], t[2])),
        sub.map(ex.Neg),
        st.tuples(st.sampled_from(_FN), sub).map(
            lambda t: ex.Call(t[0], [t[1]])))


@given(_ast(3))
@settings(max_examples=120, deadline=None)
def test_print_parse_round_trip(node):
    """to_text -> parse preserves the evaluated value wherever it is finite."""
    text = ex.to_text(node)
    back = ex.parse(text, coords=("x", "y"))
    scope = {"x": 0.7, "y": -1.3}
    try:
        want = ex.eval_number(node, scope)
    except (DomainError, OverflowError, ZeroDivisionError):
        return
    if not math.isfinite(want) or abs(want) > 1e12:
        return
    got = ex.eval_number(back, scope)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(_ast(3))
@settings(max_examples=80, deadline=None)
def test_derivative_matches_jet(node):
    """Symbolic d/dx agrees with the first-order jet coefficient."""
    point = (0.7, -1.3)
    try:
        jet = eval_jet(node, point, 2, ("x", "y"))
        dnode = ex.differentiate(node, "x")
        dval = ex.eval_number(dnode, {"x": point[0], "y": point[1]})
    except (DomainError, OverflowError, ZeroDivisionError):
        return
    if not (math.isfinite(dval) and abs(dval) < 1e9):
        return
    assert coeff(jet, (1, 0)) == pytest.approx(dval, rel=1e-8, abs=1e-8)


def test_differentiate_products_and_chains():
    node = ex.parse("x^2*sin(3*x)", coords=("x",))
    d = ex.differentiate(node, "x")
    x = 0.9
    want = 2 * x * math.sin(3 * x) + 3 * x * x * math.cos(3 * x)
    assert ex.eval_number(d, {"x": x}) == pytest.approx(want, abs=1e-12)


def test_differentiate_constant_folds():
    node = ex.parse("2*y+7", coords=("x", "y"))
    d = ex.differentiate(node, "x")
    assert ex.eval_number(d, {"x": 1.0, "y": 5.0}) == 0.0


def test_eval_jet_matches_taylor():
    node = ex.parse("exp(x)*y", coords=("x", "y"))
    jet = eval_jet(node, (0.0, 2.0), 4, ("x", "y"))
    # coefficient of x^k y^0 about (0, 2): 2/k!
    for k in range(4):
        assert coeff(jet, (k, 0)) == pytest.approx(2.0 / math.factorial(k))
    assert coeff(jet, (2, 1)) == pytest.approx(0.5)


def test_to_text_parenthesizes_by_precedence():
    node = ex.parse("(x+1)*(x-2)", coords=("x",))
    text = ex.to_text(node)
    again = ex.parse(text, coords=("x",))
    for v in (-1.0, 0.0, 2.5):
        assert ex.eval_number(again, {"x": v}) == \
            pytest.approx(ex.eval_number(node, {"x": v}))


# -- the tape against the recursive evaluator --------------------------------

def _oracle(node, point, order, coords, params=None):
    """The recursive evaluator at one point, as a stack of one: each node's
    jet computed on its own, in depth-first post-order, with the environment
    ``Tape.run`` builds."""
    dim = len(coords)
    env = {name: Jet.variable([float(point[i])], i, dim, order)
           for i, name in enumerate(coords)}
    for name, v in (params or {}).items():
        env[name] = Jet.constant([float(v)], dim, order)
    for name, v in ex.CONSTANTS.items():
        env.setdefault(name, Jet.constant([v], dim, order))
    return _eval(node, env, dim, order)


def _eval(node, env, dim, order):
    if isinstance(node, ex.Num):
        return Jet.constant([node.value], dim, order)
    if isinstance(node, ex.Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnknownIdentifier(node.name) from None
    if isinstance(node, ex.Neg):
        return -_eval(node.arg, env, dim, order)
    if isinstance(node, ex.Call):
        fn = ex.FUNCTIONS[node.name][0]
        return fn(*[_eval(a, env, dim, order) for a in node.args])
    a = _eval(node.left, env, dim, order)
    b = _eval(node.right, env, dim, order)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return jets.power(a, b)


_LEAVES = [ex.Num(0.0), ex.Num(-0.0), ex.Num(math.inf), ex.Num(1.0),
           ex.Num(2.0), ex.Num(-1.5), ex.Num(0.5), ex.Var("x"), ex.Var("y"),
           ex.Var("a"), ex.Var("pi")]


@st.composite
def _dag(draw):
    """Roots over a pool of subtrees: each new node takes its arguments from
    the pool, so subtrees repeat, as one object or as a structural copy."""
    pool = list(draw(st.lists(st.sampled_from(_LEAVES), min_size=1,
                              max_size=4)))
    pick = st.integers(0, 10 ** 6).map(lambda k: pool[k % len(pool)])
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["bin", "neg", "call", "copy"]))
        if kind == "bin":
            node = ex.BinOp(draw(st.sampled_from("+-*/^")), draw(pick),
                            draw(pick))
        elif kind == "neg":
            node = ex.Neg(draw(pick))
        elif kind == "call":
            name = draw(st.sampled_from(sorted(ex.FUNCTIONS)))
            node = ex.Call(name, tuple(draw(pick) for _ in
                                       range(ex.FUNCTIONS[name][2])))
        else:
            node = copy.deepcopy(draw(pick))
        pool.append(node)
    return draw(st.lists(pick, min_size=1, max_size=4))


def _outcome(evaluate):
    """The coefficient bytes of each jet ``evaluate`` returns, in nested
    lists as returned, or the type and text of what it raises.  Every NaN
    is made canonical first: which of two NaNs a sum keeps, its sign and
    payload bits, is the one exception to bit-equality that the ``forms``
    docstring names, and CPython's own float add may keep either NaN,
    depending on how often the line has run."""
    def as_bytes(out):
        return [as_bytes(x) if isinstance(x, list)
                else np.where(np.isnan(x.c), np.nan, x.c).tobytes()
                for x in out]
    try:
        return as_bytes(evaluate())
    except Exception as exc:
        return type(exc), str(exc)


_XS, _YS = [0.0, -0.0, 0.7, -1.3, 2.0], [0.0, 0.4, -2.5]


def _coordinates(points):
    """One (N,) array of values per coordinate of ``points``."""
    return tuple(np.array(x) for x in zip(*points))


def _columns(roots, count):
    """Point k's jets of the jets ``roots``, as stacks of one, for
    k < count."""
    return [[Jet._of(j.dim, j.order, j.c[:, k:k + 1]) for j in roots]
            for k in range(count)]


@given(_dag(), st.lists(st.tuples(st.sampled_from(_XS), st.sampled_from(_YS)),
                        min_size=1, max_size=5),
       st.integers(0, 3))
# x^x takes different power branches at these points, though neither fails
@example(roots=[ex.parse("x^x", ["x", "y"], ["a"])],
         points=[(0.0, 0.0), (0.7, 0.0)], order=0)
# a shared series or guard raises under the name its first user gives it:
# csc's series as sin's, tanh's as sinh's and sech's as cosh's, cot's guard
# before csc's, and the reciprocal of a divisor as "reciprocal"
@example(roots=[ex.parse("csc(x)", ["x", "y"])], points=[(math.inf, 0.4)],
         order=2)
@example(roots=[ex.parse(t, ["x", "y"]) for t in ("tanh(x)", "sech(x)")],
         points=[(1000.0, 0.4)], order=2)
@example(roots=[ex.parse(t, ["x", "y"]) for t in ("sech(x)", "tanh(x)")],
         points=[(1000.0, 0.4)], order=2)
@example(roots=[ex.parse("cot(x) + csc(x)", ["x", "y"])],
         points=[(0.0, 0.4)], order=2)
@example(roots=[ex.parse("x/y + 1/y", ["x", "y"])], points=[(0.7, 0.0)],
         order=2)
@settings(max_examples=300, deadline=None)
def test_tape_matches_the_recursive_evaluator(roots, points, order):
    """Each root's coefficients at each point are bit-equal to the recursive
    evaluation there, whether the tape runs at that point alone or at all
    the points at once, unless the points would branch differently there;
    where the recursive evaluation raises, the run at that point alone, a
    stack of one, raises the
    same type with the same text.  A run over all the points raises where
    any point fails, and the frames of a field over the same roots, from
    its stacked blocks, equal the recursive evaluation, or raise what the
    first failing point raises."""
    coords, params = ("x", "y"), {"a": -0.25}
    tape = ex.Tape(roots)
    fld = coframe_field_from_expressions(Chart(coords),
                                         [{"x": r} for r in roots], params)
    with np.errstate(all="ignore"):
        want = [_outcome(lambda: [_oracle(r, p, order, coords, params)
                                  for r in roots]) for p in points]
        alone = [_outcome(lambda: tape.run(_coordinates([p]), order, coords,
                                           params))
                 for p in points]
        together = _outcome(lambda: _columns(
            tape.run(_coordinates(points), order, coords, params),
            len(points)))
        frames = _outcome(lambda: [
            column for block in fld.blocks(points, order)
            for column in _columns([f.coeffs[(0,)] for f in block.forms],
                                   len(block.point[0]))])
    assert alone == want
    failed = [w for w in want if isinstance(w, tuple)]
    assert frames == (failed[0] if failed else want)
    if failed:
        assert isinstance(together, tuple)
    elif together != (jets._MixedBranches, "power"):
        assert together == want


def test_a_tape_takes_each_series_once(monkeypatch):
    """sin(x) and cos(x) read one sin/cos pair series, and the divisions by
    y one reciprocal of y: two series for the run."""
    series, run = [], jets._series
    monkeypatch.setattr(jets, "_series",
                        lambda *args: series.append(1) or run(*args))
    root = ex.parse("sin(x)*cos(x) + x/y + 1/y", coords=("x", "y"))
    (got,) = ex.Tape([root]).run(_coordinates([(0.7, 1.3)]), 3, ("x", "y"))
    assert len(series) == 2
    want = _oracle(root, (0.7, 1.3), 3, ("x", "y"))
    assert got.c.tobytes() == want.c.tobytes()


def test_tape_runs_many_points_in_one_pass():
    """A run over N points is one pass over the tape, whose root jets have N
    columns, and which raises where any point fails."""
    texts = ["ln(y) * sin(x) + x^2", "atan2(y, x) / y", "sqrt(y) + 1"]
    roots = [ex.parse(t, coords=("x", "y")) for t in texts]
    tape = ex.Tape(roots)
    good = [(0.5, 1.0), (0.4, 2.0), (0.3, 0.5), (0.6, 1.5)]
    got = tape.run(_coordinates(good), 4, ("x", "y"))
    assert [j.c.shape for j in got] == [(15, 4)] * 3
    with pytest.raises(DomainError, match="ln"):
        tape.run(_coordinates(good[:2] + [(0.1, -1.0)] + good[2:]), 4,
                 ("x", "y"))


def test_tape_keeps_signed_zeros_apart():
    roots = [ex.Num(0.0), ex.Num(-0.0), ex.BinOp("*", ex.Num(-0.0),
                                                 ex.Var("x"))]
    tape = ex.Tape(roots)
    assert len(tape.code) == 4
    pos, neg, prod = tape.run(_coordinates([(3.0,)]), 2, ("x",))
    assert not np.signbit(pos.c[0]) and np.signbit(neg.c[0])
    assert prod.c.tobytes() == \
        _oracle(roots[2], (3.0,), 2, ("x",)).c.tobytes()


def test_tape_interns_structurally_equal_subtrees():
    node = ex.parse("sin(x)*sin(x) + sin(x)/x", coords=("x",))
    again = ex.parse("sin(x)", coords=("x",))
    tape = ex.Tape([node, again])
    # x, the sin/cos pair, sin(x), the product, the reciprocal of x, the
    # quotient as a product by it, and the sum
    assert len(tape.code) == 7
    assert tape.roots[1] == 2


@pytest.mark.parametrize("texts,fn", [
    (["ln(-x) + sqrt(-x)"], "ln"),
    (["sqrt(-x)", "ln(-x)"], "sqrt"),
    (["x + sqrt(-x) * ln(-x)", "ln(-x)"], "sqrt"),
])
def test_tape_raises_where_the_recursive_evaluation_does(texts, fn):
    roots = [ex.parse(t, coords=("x",)) for t in texts]
    with pytest.raises(DomainError) as want:
        for r in roots:
            _oracle(r, (1.0,), 2, ("x",))
    with pytest.raises(DomainError) as got:
        ex.Tape(roots).run(_coordinates([(1.0,)]), 2, ("x",))
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(fn)
