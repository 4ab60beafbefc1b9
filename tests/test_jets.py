"""Taylor-jet arithmetic: seeded expansions, calculus rules, domain guards."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicontact import jets
from bicontact.errors import DomainError
from bicontact.jets import Jet

from conftest import coeff


def test_constant_and_variable_seeds():
    c = Jet.constant(2.5, 3, 4)
    assert c.value == 2.5
    assert coeff(c, (1, 0, 0)) == 0.0
    x = Jet.variable(1.5, 0, 3, 4)
    assert x.value == 1.5
    assert coeff(x, (1, 0, 0)) == 1.0
    assert coeff(x, (0, 1, 0)) == 0.0


def test_exp_coefficients_are_inverse_factorials():
    x = Jet.variable(0.0, 0, 1, 8)
    e = jets.exp(x)
    for k in range(9):
        assert coeff(e, (k,)) == pytest.approx(1.0 / math.factorial(k), abs=1e-15)


def test_product_matches_double_angle():
    x = Jet.variable(0.3, 0, 1, 7)
    lhs = jets.sin(x) * jets.cos(x)
    rhs = jets.sin(x * 2.0) * 0.5
    for k in range(8):
        assert coeff(lhs, (k,)) == pytest.approx(coeff(rhs, (k,)), abs=1e-14)


def test_partial_of_monomial():
    # f = x^2 y  ->  df/dx = 2xy with matching higher coefficients
    x = Jet.variable(1.2, 0, 2, 5)
    y = Jet.variable(-0.7, 1, 2, 5)
    f = x * x * y
    fx = jets.partial(f, 0)
    assert fx.value == pytest.approx(2 * 1.2 * -0.7, abs=1e-14)
    assert coeff(fx, (1, 0)) == pytest.approx(2 * -0.7, abs=1e-14)
    assert coeff(fx, (0, 1)) == pytest.approx(2 * 1.2, abs=1e-14)
    assert fx.order == 4     # one derivative level spent


def test_truncate_is_prefix():
    x = Jet.variable(0.4, 0, 2, 6)
    f = jets.exp(x * x)
    g = f.truncate(3)
    assert g.order == 3
    for alpha in ((0, 0), (1, 0), (2, 0), (0, 1)):
        assert coeff(g, alpha) == coeff(f, alpha)


def test_mixed_order_arithmetic_truncates():
    a = Jet.variable(0.2, 0, 2, 6)
    b = Jet.variable(0.5, 1, 2, 3)
    assert (a * b).order == 3
    assert (a + b).order == 3


def _rand_jet(rng, dim=2, order=3):
    n = jets.ncoeffs(dim, order)
    return Jet(dim, order, rng.standard_normal(n))


def test_ring_axioms_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, c = (_rand_jet(rng) for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert np.allclose(lhs.c, rhs.c, atol=1e-12)
        assert np.allclose((a * (b + c)).c, (a * b + a * c).c, atol=1e-12)
        assert np.allclose((a * b).c, (b * a).c, atol=1e-12)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_chain_rule_matches_closed_form(x0, y0):
    """d/dx of sin(x*y) equals y*cos(x*y) at the jet level."""
    x = Jet.variable(x0, 0, 2, 4)
    y = Jet.variable(y0, 1, 2, 4)
    f = jets.sin(x * y)
    fx = jets.partial(f, 0)
    want = y * jets.cos(x * y)
    assert abs(fx.value - want.value) < 1e-12
    assert abs(coeff(fx, (1, 0)) - coeff(want, (1, 0))) < 1e-10


@pytest.mark.parametrize("fn,bad", [
    (jets.sqrt, -1.0), (jets.ln, 0.0), (jets.ln, -2.0),
    (jets.reciprocal, 0.0), (jets.csc, 0.0), (jets.cot, 0.0),
])
def test_domain_errors(fn, bad):
    with pytest.raises(DomainError):
        fn(Jet.constant(bad, 1, 3))


def test_powf_domain_error():
    with pytest.raises(DomainError):
        jets.powf(Jet.constant(-1.0, 1, 3), 0.5)


def test_atan2_recovers_angle():
    t = Jet.variable(0.7, 0, 1, 5)
    angle = jets.atan2(jets.sin(t), jets.cos(t))
    for k in range(6):
        assert coeff(angle, (k,)) == pytest.approx(
            coeff(t, (k,)), abs=1e-12)


def test_atan2_left_half_plane():
    t = Jet.variable(2.9, 0, 1, 4)    # cos < 0 branch
    angle = jets.atan2(jets.sin(t), jets.cos(t))
    assert angle.value == pytest.approx(2.9, abs=1e-12)


def test_many_point_atan2_takes_each_columns_own_branch():
    # (y0, x0) in both branches and on both diagonals |x0| = |y0|, which
    # take the atan(y/x) branch; each column is bit-equal to its own jet
    values = [(0.3, 1.0), (1.0, 0.3), (-0.7, 0.7), (0.5, -2.0), (2.0, 0.5),
              (-1.5, -1.5), (-0.2, -0.1), (0.0, -1.0), (1.0, 0.0)]
    rng = np.random.default_rng(17)
    for dim, order in ((1, 0), (2, 3), (3, 5)):
        ys, xs = [], []
        for y0, x0 in values:
            y, x = (_rand_jet(rng, dim, order) for _ in range(2))
            y.c[0], x.c[0] = y0, x0
            ys.append(y)
            xs.append(x)
        many = jets.atan2(*(Jet._of(dim, order, np.stack([f.c for f in fs],
                                                         axis=1))
                            for fs in (ys, xs)))
        own = [jets.atan2(y, x) for y, x in zip(ys, xs)]
        assert [np.ascontiguousarray(many.c[:, k]).tobytes()
                for k in range(len(values))] == [j.c.tobytes() for j in own]
    with pytest.raises(DomainError, match="^atan2: argument value 0.0"):
        jets.atan2(Jet.constant([1.0, 0.0], 2, 2),
                   Jet.constant([1.0, 0.0], 2, 2))


def test_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = _rand_jet(rng, dim=2, order=4)
        f = f * f + 1.0     # strictly positive at the base point
        r = jets.sqrt(f)
        assert np.allclose((r * r).c, f.c, atol=1e-10)


# -- the scalar shortcut in Jet.__mul__ against a plain convolution ----------

def _reference_product(a, b):
    """Full truncated convolution of two coefficient vectors."""
    dim, order = a.dim, min(a.order, b.order)
    n = jets.ncoeffs(dim, order)
    I, J, T = jets._mul_table(dim, order)
    return np.bincount(T, weights=a.c[:n][I] * b.c[:n][J], minlength=n)


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0])
_COEFF = st.one_of(_SPECIAL, st.floats(-1e6, 1e6))


@st.composite
def _jet(draw, dim, constant):
    order = draw(st.integers(0, 4))
    n = jets.ncoeffs(dim, order)
    c = np.zeros(n)
    c[0] = draw(_COEFF)
    if not constant:
        c[1:] = draw(st.lists(_COEFF, min_size=n - 1, max_size=n - 1))
    return Jet(dim, order, c)


@st.composite
def _operands(draw):
    dim = draw(st.sampled_from([3, 4]))
    kinds = ("float", "const", "jet")
    left, right = draw(st.sampled_from(kinds)), draw(st.sampled_from(kinds))
    if left == right == "float":
        right = "jet"
    out = []
    for kind in (left, right):
        if kind == "float":
            out.append(draw(_COEFF))
        else:
            out.append(draw(_jet(dim, kind == "const")))
    return out


@given(_operands())
@settings(max_examples=200, deadline=None)
def test_mul_is_bitwise_the_convolution(ops):
    a, b = ops
    prod = a * b
    ja = a if isinstance(a, Jet) else Jet.constant(a, b.dim, b.order)
    jb = b if isinstance(b, Jet) else Jet.constant(b, a.dim, a.order)
    want = _reference_product(ja, jb)
    assert prod.order == min(ja.order, jb.order)
    assert prod.c.tobytes() == want.tobytes()


def test_mul_with_inf_coefficient_stays_nonfinite():
    a = Jet.variable(0.5, 1, 4, 3)
    a.c[2] = np.inf
    full = Jet.variable(0.2, 0, 4, 3)
    with np.errstate(invalid="ignore"):
        for other in (2.0, 0.0, Jet.constant(-1.0, 4, 3),
                      Jet.constant(0.0, 4, 3), full):
            assert not np.isfinite((a * other).c).all()
            assert not np.isfinite((other * a).c).all()


# -- a float operand of + and - against the constant-jet path ----------------

_EDGE = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_ANY = st.one_of(_EDGE, _COEFF)


def _canonical(c):
    # which of two NaNs an operation keeps is NumPy's choice, so NaNs are
    # compared as NaN and every other value bit for bit
    return np.where(np.isnan(c), np.nan, c).tobytes()


@given(st.sampled_from([3, 4]), st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_float_operands_are_bitwise_the_constant_jet_path(dim, order, data):
    n = jets.ncoeffs(dim, order)
    j = Jet(dim, order, data.draw(st.lists(_ANY, min_size=n, max_size=n)))
    x = data.draw(_ANY)
    k = Jet.constant(x, dim, order)
    with np.errstate(invalid="ignore"):
        pairs = [(j + x, j + k), (x + j, k + j),
                 (j - x, j - k), (x - j, k - j)]
    for got, want in pairs:
        assert got.order == want.order
        assert _canonical(got.c) == _canonical(want.c)


def test_float_division_keeps_the_reciprocal_path():
    j = Jet.variable(0.5, 0, 3, 3)
    with pytest.raises(DomainError):
        j / 1e-200
    assert (j / 4.0).c.tobytes() == (j * jets.reciprocal(
        Jet.constant(4.0, 3, 3))).c.tobytes()


@pytest.mark.parametrize("fn,value", [
    (jets.exp, 800.0),             # math.exp overflows
    (jets.reciprocal, 1e200),      # f0 ** (k + 1) overflows
    (jets.reciprocal, 1e-200),     # f0 ** (k + 1) underflows to 0
    (jets.cosh, 800.0),
])
def test_out_of_range_series_is_a_domain_error(fn, value):
    with pytest.raises(DomainError):
        fn(Jet.variable(value, 0, 2, 3))


# -- the degree recursions against the Horner series of the laws ------------

def _full_horner(f, outer):
    """sum_k outer[k] * (f - f0)^k by Horner with every step at f's full
    order, on one-point jets: the series the elementary functions were
    composed by before their degree recursions."""
    u = f - f.value
    acc = Jet.constant(outer[-1], f.dim, f.order)
    for k in range(len(outer) - 2, -1, -1):
        acc = acc * u + outer[k]
    return acc


def _binom(p, k):
    out = 1.0
    for i in range(k):
        out *= (p - i) / (i + 1)
    return out


# the k-th series coefficient at a point of value f0
_LAWS = {
    "exp": lambda f0, k: math.exp(f0) / math.factorial(k),
    "ln": lambda f0, k: (math.log(f0) if k == 0
                         else ((-1.0) ** (k + 1)) / (k * f0 ** k)),
    "reciprocal": lambda f0, k: ((-1.0) ** k) / f0 ** (k + 1),
    "sqrt": lambda f0, k: _binom(0.5, k) * f0 ** (0.5 - k),
    "powf 2.5": lambda f0, k: _binom(2.5, k) * f0 ** (2.5 - k),
    "sin": lambda f0, k: math.sin(f0 + k * math.pi / 2) / math.factorial(k),
    "cos": lambda f0, k: math.cos(f0 + k * math.pi / 2) / math.factorial(k),
    "sinh": lambda f0, k: ((math.sinh(f0) if k % 2 == 0 else math.cosh(f0))
                           / math.factorial(k)),
    "cosh": lambda f0, k: ((math.cosh(f0) if k % 2 == 0 else math.sinh(f0))
                           / math.factorial(k)),
}


def _law(name):
    law = _LAWS[name]
    return lambda f: _full_horner(f, [law(f.value, k)
                                      for k in range(f.order + 1)])


def _atan_oracle(f):
    # atan(f) = atan(f0) + atan(u), u = (f - f0)/(1 + f f0) nilpotent
    u = (f - f.value) * _law("reciprocal")(f * f.value + 1.0)
    outer = [0.0 if k % 2 == 0 else (-1.0) ** ((k - 1) // 2) / k
             for k in range(f.order + 1)]
    return _full_horner(u, outer) + math.atan(f.value)


def _quotient(a, b):
    return a * _law("reciprocal")(b)


# each entry of _ELEMENTARY as it was composed from the Horner series
_ORACLE = {
    **{name: _law(name) for name in _LAWS},
    "powf -3": lambda f: _law("reciprocal")(f * (f * f)),
    "power": lambda f: _law("exp")(f * _law("ln")(f)),
    "tan": lambda f: _quotient(_law("sin")(f), _law("cos")(f)),
    "csc": lambda f: _law("reciprocal")(_law("sin")(f)),
    "cot": lambda f: _quotient(_law("cos")(f), _law("sin")(f)),
    "tanh": lambda f: _quotient(_law("sinh")(f), _law("cosh")(f)),
    "sech": lambda f: _law("reciprocal")(_law("cosh")(f)),
    "asinh": lambda f: _law("ln")(f + _law("sqrt")(f * f + 1.0)),
    "atan": _atan_oracle,
    # f^2 + 1 > |f|: atan(y/x) on the first, pi/2 - atan(x/y) on the second
    "atan2 y/x": lambda f: _atan_oracle(_quotient(f, f * f + 1.0)),
    "atan2 x/y": lambda f: math.pi / 2 - _atan_oracle(
        _quotient(f, f * f + 1.0)),
}


_ELEMENTARY = {
    "exp": jets.exp, "ln": jets.ln, "sqrt": jets.sqrt,
    "reciprocal": jets.reciprocal,
    "powf 2.5": lambda f: jets.powf(f, 2.5),
    "powf -3": lambda f: jets.powf(f, -3.0),
    "power": lambda f: jets.power(f, f),
    "sin": jets.sin, "cos": jets.cos, "tan": jets.tan, "csc": jets.csc,
    "cot": jets.cot, "sinh": jets.sinh, "cosh": jets.cosh,
    "tanh": jets.tanh, "sech": jets.sech, "asinh": jets.asinh,
    "atan": jets.atan,
    "atan2 y/x": lambda f: jets.atan2(f, f * f + 1.0),
    "atan2 x/y": lambda f: jets.atan2(f * f + 1.0, f),
}
_POINTS = 4
# many-point jets of 4 and of 16 columns: dim 3 from order 7 and dim 4 from
# order 6 sum some step by rank groups at 16 columns, dim 4 at order 7 at 4
_COLUMNS = (_POINTS, 16)


def _random_jets(rng, dim, order, count=_POINTS):
    """Finite jets with values in [0.3, 1.5], inside every domain above."""
    out = []
    for _ in range(count):
        c = 0.5 * rng.standard_normal(jets.ncoeffs(dim, order))
        c[0] = rng.uniform(0.3, 1.5)
        out.append(Jet(dim, order, c))
    return out


def _many(fs):
    """The many-point jet whose column p is the jet fs[p]."""
    return Jet._of(fs[0].dim, fs[0].order,
                   np.stack([f.c for f in fs], axis=1))


def _no_negative_zero(c):
    return not np.any((c == 0.0) & np.signbit(c))


def test_the_oracle_covers_every_elementary_function():
    assert _ORACLE.keys() == _ELEMENTARY.keys()


@pytest.mark.parametrize("name", sorted(_ELEMENTARY))
def test_graded_horner_is_bitwise_full_order_horner(name, monkeypatch):
    """Each function's jet, by its degree recursion, lies within 1e-13 of
    its max-norm of the Horner series of its laws at full order.  (The
    name is the one this check had while the series were composed by
    graded Horner and matched full order bit for bit.)  At 4 and at 16
    points at once, each column is bit-equal to the one-point jet, and an
    order-p result truncated to p - 1 is bit-equal to the order-(p - 1)
    result; no exact zero is -0.0."""
    fn, oracle = _ELEMENTARY[name], _ORACLE[name]
    rng = np.random.default_rng(sorted(_ELEMENTARY).index(name))
    grouped, step_groups = [], jets._step_groups
    monkeypatch.setattr(jets, "_step_groups",
                        lambda *key: grouped.append(key) or step_groups(*key))
    for dim in (1, 3, 4):
        for order in range(8):
            fs = _random_jets(rng, dim, order, max(_COLUMNS))
            got = [fn(f) for f in fs]
            for f, g in zip(fs[:_POINTS], got):
                want = oracle(f).c
                assert np.isfinite(want).all()
                assert np.abs(g.c - want).max() <= \
                    1e-13 * np.abs(want).max(), (dim, order)
            assert all(_no_negative_zero(g.c) for g in got), (dim, order)
            for count in _COLUMNS:
                if name == "power" and order == 0:
                    # exponents without a derivative part that differ
                    # between points: the caller runs the points one by one
                    with pytest.raises(jets._MixedBranches):
                        fn(_many(fs[:count]))
                    continue
                many = fn(_many(fs[:count]))
                assert [many.c[:, p].tobytes() for p in range(count)] == \
                    [g.c.tobytes() for g in got[:count]], (dim, order, count)
            # at order 0 the exponent f of power has no derivative part,
            # so power takes the direct series there, not exp(f ln f)
            if order > (name == "power"):
                lower = [fn(f.truncate(order - 1)) for f in fs[:_POINTS]]
                assert [g.truncate(order - 1).c.tobytes()
                        for g in got[:_POINTS]] == \
                    [w.c.tobytes() for w in lower], (dim, order)
    # both step kernels ran: the flat bins and the rank groups
    assert grouped and (4, 7) in grouped and (3, 7) in grouped


@pytest.mark.parametrize("name", sorted(_ELEMENTARY))
def test_zero_coefficients_come_out_positive(name):
    # a constant of value 1 and the jet of x at 1: the odd and even parts
    # of sin, cos, sinh and cosh vanish by sign cancellation
    for f in (Jet.constant(1.0, 3, 5), Jet.variable(1.0, 0, 3, 5),
              Jet.variable(-0.0, 0, 1, 4) + 1.0):
        assert _no_negative_zero(_ELEMENTARY[name](f).c)


# (function, its name in the error, a value out of its domain or range)
_OUT_OF_DOMAIN = [
    (jets.exp, "exp", 800.0), (jets.ln, "ln", -2.0), (jets.ln, "ln", 1e200),
    (jets.reciprocal, "reciprocal", 1e-200), (jets.sqrt, "sqrt", 0.0),
    (lambda f: jets.powf(f, 2.5), "power", 1e200),
    (lambda f: jets.powf(f, -0.5), "power", 1e-200),
    (jets.sin, "sin", math.inf), (jets.cos, "cos", -math.inf),
    (jets.tan, "tan", math.inf), (jets.cot, "cot", -math.inf),
    (jets.sinh, "sinh", 800.0), (jets.cosh, "cosh", -800.0),
    (jets.tanh, "sinh", 800.0),
]


@pytest.mark.parametrize("fn,name,value", _OUT_OF_DOMAIN,
                         ids=[f"{n} {v!r}" for _, n, v in _OUT_OF_DOMAIN])
def test_the_out_of_range_column_is_named_without_warnings(fn, name, value):
    # only column 3 of 5 is out of range; the guard names its value before
    # any array arithmetic, so no RuntimeWarning comes first
    values = [0.5, 0.7, 0.9, value, 1.1]
    message = "^" + re.escape(f"{name}: argument value {value!r} "
                              "outside domain") + "$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (Jet.variable(values, 1, 2, 3),
                  Jet.variable(value, 1, 2, 3)):
            with pytest.raises(DomainError, match=message) as err:
                fn(f)
            assert err.value.fn == name and err.value.value == value


_GUARDED = ["exp", "ln", "reciprocal", "sqrt", "powf 2.5", "sin", "cos",
            "sinh", "cosh"]
# the base values where ln, reciprocal and sqrt must reject a point
_BAD = {"ln": lambda f0, n: f0 <= 0.0,
        "reciprocal": lambda f0, n: f0 == 0.0,
        "sqrt": lambda f0, n: f0 < 0.0 or (f0 == 0.0 and n >= 1),
        "powf 2.5": lambda f0, n: f0 <= 0.0}
_EDGE_VALUES = [s * 10.0 ** e for s in (1.0, -1.0)
                for e in range(-320, 309, 8)]
_EDGE_VALUES += [0.0, -0.0, 1.0, 709.7, 710.5, -710.5, 5e-324, 1e-310,
                 math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("name", _GUARDED)
def test_guards_raise_where_a_law_of_the_series_raised(name):
    """A function raises DomainError exactly where its old law raised for
    some degree k <= order, or flagged the value as bad."""
    law, fn = _LAWS[name], _ELEMENTARY[name]
    for order in range(8):
        for f0 in _EDGE_VALUES:
            try:
                bad = _BAD.get(name, lambda *_: False)(f0, order)
                for k in range(order + 1):
                    law(f0, k)
            except (ArithmeticError, ValueError):
                bad = True
            try:
                with np.errstate(all="ignore"):
                    fn(Jet.variable(f0, 0, 1, order))
            except DomainError:
                assert bad, (f0, order)
            else:
                assert not bad, (f0, order)


@pytest.mark.parametrize("name", sorted(_ELEMENTARY))
def test_a_nonfinite_column_stays_nonfinite(name):
    # column 1 holds an inf and column 2 a NaN coefficient; the others
    # are bit-equal to their one-point jets
    fn = _ELEMENTARY[name]
    fs = _random_jets(np.random.default_rng(3), 3, 4)
    fs[1].c[2], fs[2].c[-1] = np.inf, np.nan
    with np.errstate(all="ignore"):
        many = fn(_many(fs)).c
        own = [fn(f).c for f in fs]
    for p in (1, 2):
        assert not np.isfinite(many[:, p]).all()
        assert not np.isfinite(own[p]).all()
    assert [many[:, p].tobytes() for p in (0, 3)] == \
        [own[p].tobytes() for p in (0, 3)]


# (dim, order, points) of many-point products on both sides of
# jets.FLAT_PRODUCT_MAX pairs x points
_PRODUCT_SIZES = [(3, 3, 5), (3, 6, 2), (3, 6, 12), (3, 6, 60), (4, 2, 18),
                  (4, 3, 32), (4, 3, 200)]


def _ranked(dim, order, count):
    """Whether a product over ``count`` points sums through
    ``jets._rank_groups`` rather than the flat bins."""
    pairs = len(jets._mul_table(dim, order)[0])
    return pairs * count > jets.FLAT_PRODUCT_MAX


def test_the_product_sizes_reach_both_kernels():
    assert {_ranked(*size) for size in _PRODUCT_SIZES} == {False, True}


@pytest.mark.parametrize("step", [1, 4, 35, 60, 200, 10_000])
def test_chunks_add_each_group_once_within_the_step(step):
    """``_chunks`` tiles the pairs in order with chunks of at most ``step``
    pairs; each group adds each of its rows once, in order, and a group of
    at most ``step`` pairs in one slice add."""
    for dim, order in ((1, 5), (3, 6), (4, 3)):
        *_, sizes = jets._rank_groups(dim, order)
        chunks = jets._chunks(sizes, step)
        pairs = [chunk for chunk, _ in chunks]
        assert [p.start for p in pairs] == [0] + [p.stop for p in pairs[:-1]]
        assert pairs[-1].stop == sum(sizes)
        assert all(p.stop - p.start <= step for p in pairs)
        adds, first = [], np.cumsum((0,) + sizes)
        for chunk, parts in chunks:
            for rows, part in parts:
                start = chunk.start + part.start
                group = int(np.searchsorted(first, start, side="right")) - 1
                assert start - first[group] == rows.start
                assert part.stop - part.start == rows.stop - rows.start
                adds.append((group, rows.start, rows.stop))
        for group, size in enumerate(sizes):
            mine = [(a, b) for g, a, b in adds if g == group]
            assert [a for a, _ in mine] == [0] + [b for _, b in mine[:-1]]
            assert mine[-1][1] == size
            assert len(mine) == 1 or size > step


@pytest.mark.parametrize("limit", [1, 40, 400, 2_000, 12_000])
def test_rank_sums_are_the_flat_bins_at_every_chunk_size(monkeypatch, limit):
    """Whatever the chunks, each target adds its pairs in the flat bins'
    order from +0.0, so the sums are bit-equal, -0.0 and inf included (NaNs
    made canonical, the one exception the ``forms`` docstring names)."""
    rng = np.random.default_rng(limit)
    dim, order, count = 3, 4, 9
    n = jets.ncoeffs(dim, order)
    x, y = rng.standard_normal((n, count)), rng.standard_normal((n, count))
    x[3, 2], y[5, 4], x[0, 6] = -0.0, np.inf, -0.0
    I, J, T = jets._mul_table(dim, order)
    with np.errstate(invalid="ignore"):
        want = jets._sum_into(T, x[I] * y[J], (n,))
        monkeypatch.setattr(jets, "FLAT_PRODUCT_MAX", limit)
        got = jets._rank_sums(x, y, *jets._rank_groups(dim, order))
    got, want = (np.where(np.isnan(a), np.nan, a) for a in (got, want))
    assert np.isinf(want).any()
    assert got.tobytes() == want.tobytes()


# -- the product tables against loops over index pairs -----------------------

def _loop_mul_table(dim, order):
    """(I, J, T) of every pair with degree sum <= order, i outer and j
    inner, T the rank of the summed exponents."""
    idx = jets.multi_indices(dim, order)
    rank = {a: i for i, a in enumerate(idx)}
    I, J, T = [], [], []
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            if sum(a) + sum(b) <= order:
                I.append(i)
                J.append(j)
                T.append(rank[tuple(x + y for x, y in zip(a, b))])
    return tuple(np.asarray(v, dtype=np.intp) for v in (I, J, T))


def _loop_rank_groups(dim, order):
    """(pos, I, J, sizes) of the pairs of ``_loop_mul_table`` dealt out per
    target, targets sorted by pair count, most first: group s holds the
    s-th pair of each target that has one, in target order, and the groups
    follow each other in I and J."""
    pairs = {}
    for i, j, t in zip(*(a.tolist() for a in _loop_mul_table(dim, order))):
        pairs.setdefault(t, []).append((i, j))
    targets = sorted(pairs, key=lambda t: -len(pairs[t]))
    I, J, sizes = [], [], []
    for s in range(len(pairs[targets[0]])):
        group = [pairs[t][s] for t in targets if len(pairs[t]) > s]
        I.extend(i for i, _ in group)
        J.extend(j for _, j in group)
        sizes.append(len(group))
    return (np.argsort(targets), np.asarray(I, dtype=np.intp),
            np.asarray(J, dtype=np.intp), tuple(sizes))


def _same_arrays(got, want):
    return (len(got) == len(want)
            and all(g.dtype == w.dtype and np.array_equal(g, w)
                    for g, w in zip(got, want)))


@pytest.mark.parametrize("dim,orders", [(1, range(24)), (2, range(9)),
                                        (3, range(9)), (4, range(9))])
def test_product_tables_equal_the_pair_loops(dim, orders):
    """``_mul_table`` and ``_rank_groups`` hold the arrays of the loops, in
    the same order and dtype, up to the order 22 that ``normal-form``'s
    profile lift builds in one variable."""
    for order in orders:
        assert _same_arrays(jets._mul_table(dim, order),
                            _loop_mul_table(dim, order)), order
        *arrays, sizes = jets._rank_groups(dim, order)
        *want_arrays, want_sizes = _loop_rank_groups(dim, order)
        assert _same_arrays(arrays, want_arrays), order
        assert sizes == want_sizes, order


@pytest.mark.parametrize("dim,order,count", _PRODUCT_SIZES)
def test_many_point_product_is_bitwise_the_one_point_product(monkeypatch, dim,
                                                             order, count):
    """Columns with a constant factor or a -0.0 coefficient, and at
    (3, 3, 5) inf and NaN coefficients, follow ``Jet.__mul__`` at each
    point: the scaling path where the convolution would leave a NaN.  Each
    size sums through the kernel its pairs x points choose."""
    rng = np.random.default_rng(7)
    n = jets.ncoeffs(dim, order)
    a = [Jet(dim, order, rng.standard_normal(n)) for _ in range(count)]
    b = [Jet(dim, order, rng.standard_normal(n)) for _ in range(count)]
    if (dim, order, count) == (3, 3, 5):
        a[1] = Jet.constant(2.0, dim, order)          # constant left factor
        b[2] = Jet.constant(-0.0, dim, order)         # constant right factor
        a[3].c[4] = np.inf                            # inf times a live jet
        b[4] = Jet.constant(3.0, dim, order)
        a[4].c[7] = np.inf                            # inf, scaling path
    else:
        a[0].c[rng.integers(1, n)] = -0.0
        b[-1] = Jet.constant(rng.standard_normal(), dim, order)
    ranked, rank_groups = [], jets._rank_groups
    monkeypatch.setattr(jets, "_rank_groups",
                        lambda *key: ranked.append(key) or rank_groups(*key))
    with np.errstate(invalid="ignore"):
        want = [(x * y).c.tobytes() for x, y in zip(a, b)]
        many = _many(a) * _many(b)
    assert [many.c[:, p].tobytes() for p in range(count)] == want
    assert bool(ranked) == _ranked(dim, order, count)


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_many_point_partial_is_bitwise_the_one_point_partial(dim):
    """Each column of the derivative of a many-point jet is bit-equal to the
    derivative of that column's jet, signed zeros and non-finite
    coefficients included."""
    rng = np.random.default_rng(40 + dim)
    for order in range(1, 7):
        fs = _random_jets(rng, dim, order)
        fs[1].c[rng.integers(1, len(fs[1].c))] = -0.0
        fs[2].c[-1] = np.inf
        fs[3].c[-1] = np.nan
        many = _many(fs)
        for axis in range(dim):
            with np.errstate(invalid="ignore"):
                got = jets.partial(many, axis)
                want = [jets.partial(f, axis) for f in fs]
            assert got.order == order - 1 and got.c.shape[1] == _POINTS
            assert [got.c[:, p].tobytes() for p in range(_POINTS)] == \
                [w.c.tobytes() for w in want], (order, axis)
