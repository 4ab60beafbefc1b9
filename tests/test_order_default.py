"""The default truncation order of each command, and the caches that make a
low order cheap.

Every command runs, unless ``--order`` says otherwise, at the order its
deepest derivative chain needs (``cli.ORDER_NEEDED``).  Truncated jet
arithmetic is exact coefficient by coefficient, so that report must equal the
order-6 report in every field but ``config.order``.  One order lower, some
source must run out of derivative levels, or the table would be padded; the
failure then names the order the command needs.
"""

import dataclasses
import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from bicontact import cli
from bicontact.curvature import curvature, levi_civita
from bicontact.errors import BudgetError, SingularVolumeError
from bicontact.examples import EXAMPLES, build_example
from bicontact.forms import (Chart, Coframe, PForm, _coordinates, ext_d,
                             top_ratio, two_form_coeffs, wedge, wedge_all)
from bicontact.jets import Jet, reciprocal
from bicontact.pipeline import Tolerances, analyze
from bicontact.report import nan_max
from conftest import DATA, box_points, load_coframe, zero_form

FILES = [str(DATA / "case1_frame.txt"), str(DATA / "hyp_ex.txt")]
TOL = Tolerances()
PROFILES = ["tan(z)", "z^2"]


def _dim(source):
    fld, _ = cli._resolve(cli.RunConfig("check", source))
    return fld.chart.dim


DIMS = {source: _dim(source) for source in sorted(EXAMPLES) + FILES}


def _sources(command, dim):
    if command == "normal-form":
        return PROFILES
    names = sorted(EXAMPLES) if command == "example" else list(DIMS)
    return [s for s in names if DIMS[s] == dim]


SWEEP = [(command, source) for (command, dim) in sorted(cli.ORDER_NEEDED)
         for source in _sources(command, dim)]


def _report(command, source, *extra):
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli.main([command, source, "--points", "3", *extra])
    return json.loads(buf.getvalue())


@pytest.mark.parametrize("command,source", SWEEP,
                         ids=[f"{c} {s.rsplit('/', 1)[-1]}" for c, s in SWEEP])
def test_default_order_report_equals_the_order_6_report(command, source):
    dim = 4 if command == "normal-form" else DIMS[source]
    needed = cli.ORDER_NEEDED[command, dim]
    low = _report(command, source)
    high = _report(command, source, "--order", "6")
    assert low["config"]["order"] == needed
    assert high["config"]["order"] == 6
    low["config"]["order"] = high["config"]["order"] = None
    assert low == high


@pytest.mark.parametrize("key", sorted(k for k, n in cli.ORDER_NEEDED.items()
                                       if n > 2),
                         ids=lambda k: f"{k[0]} {k[1]}D")
def test_one_order_below_the_default_runs_out_of_derivatives(key):
    command, dim = key
    needed = cli.ORDER_NEEDED[key]
    for source in _sources(command, dim):
        errors = _report(command, source, "--order", str(needed - 1))["errors"]
        if errors and errors[0]["type"] == "BudgetError":
            assert errors[0]["message"].endswith(
                f"the command needs truncation order {needed}")
            return
    pytest.fail(f"every {command} source passes at order {needed - 1}")


def test_explicit_order_is_echoed_as_given():
    rep = _report("fourdim", "fourd_enonzero", "--order", "3")
    assert rep["config"]["order"] == 3
    assert rep["passed"] is True


def test_help_names_the_default_order(capsys):
    with pytest.raises(SystemExit):
        cli.main(["curvature", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "the order the command needs, 6 on 3D charts, 2 on 4D charts" in text


def _bits(form):
    return {k: j.c.tobytes() for k, j in form.coeffs.items()}


def _k_sum(frame, gamma_ij):
    """omega^i_j built on its own: sum_k omega^k Gamma^i_jk, in k order."""
    out = None
    for k, g in enumerate(gamma_ij):
        term = frame.omega(k + 1).scaled(g)
        out = term if out is None else out + term
    return out


def _eager_tables(curv):
    """The coefficient tables of every Theta^i_j, i != j, with the lower half
    negated eagerly."""
    dim = curv.frame.chart.dim
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            table[i][j] = two_form_coeffs(curv.entry(i, j), curv.frame)
            table[j][i] = {key: -c for key, c in table[i][j].items()}
    return table


def _residual_loop(conn):
    """The structure residual form by form: the max |value| of
    d(omega^i) + omega^i_j ^ omega^j over i, each wedge on its own."""
    frame, worst = conn.frame, 0.0
    for i in range(frame.dim):
        r = frame.d(i)
        for j in range(frame.dim):
            if j != i:
                r = r + wedge(conn.form(i, j), frame.omega(j + 1))
        worst = nan_max(worst, r.max_abs_value())
    return worst


def _theta_loop(conn, i, j):
    """Theta^i_j pair by pair: d omega^i_j, then each omega^i_k ^ omega^k_j
    added in k order."""
    t = ext_d(conn.form(i, j))
    for k in range(conn.frame.dim):
        if k not in (i, j):
            t = t + wedge(conn.form(i, k), conn.form(k, j))
    return t


def _gamma_loop(frame):
    """Gamma^i_jk of i != j as jet sums of the structure table, whose
    entries D^i_jj are zero jets one order below the first covector's."""
    dim = frame.dim
    zero = Jet.constant(np.zeros(frame.forms[0].c.shape[2]), dim,
                        max(frame.forms[0].order - 1, 0))
    D = {}
    for i in range(dim):
        for (j, k), c in frame.d_coeffs(i).items():
            D[i, j, k], D[i, k, j] = c, -c
    D = {(i, j, k): D.get((i, j, k), zero) for i in range(dim)
         for j in range(dim) for k in range(dim)}
    return {(i, j, k): (D[i, j, k] + D[j, k, i] - D[k, i, j]) * 0.5
            for i, j, k in D if i != j}


def _oracle_frame(name):
    """A frame whose connection and curvature the loops check: one point
    (a stack of one) at order 4, or a stacked block of several columns,
    whose covectors, Gamma entries or wedge terms have mixed orders."""
    points = {"normal_form_3d": (0.3, 0.6, 0.1),
              "fourd_enonzero": (0.3, 0.6, 0.1, 0.4)}
    if name in points:
        return build_example(name).coframes().at(points[name], 4)
    if name == "case1":
        fld = load_coframe(DATA / "case1_frame.txt")
        pts = [(0.3, -0.4, 0.2), (-0.5, 0.6, -0.3), (0.1, 0.2, 0.3),
               (0.4, 0.5, -0.2)]
    else:
        spec = build_example(name.split()[0])
        fld, pts = spec.coframes(), box_points(spec.box, 5, seed=38)
    if name.startswith("fourd"):
        block = next(fld.blocks(pts, 4))
        if name == "fourd_enonzero mixed":
            block = block.replace(forms=tuple(
                f.truncate(order) for f, order in zip(block.forms,
                                                      (4, 3, 2, 4))))
        return block
    result = analyze(fld, pts, 6, TOL)
    return result.get("adapted_blocks", result["blocks"])[0]


@pytest.mark.parametrize("name", [
    "normal_form_3d", "fourd_enonzero", "normal_form_3d adapted", "case1",
    "torus_constC", "fourd_enonzero block", "fourd_enonzero mixed"])
def test_skew_tables_equal_entry_by_entry_builds(name):
    # each table is built as stacks of one kernel call per truncation
    # order; the loops build every form on its own, so every omega^i_j,
    # Gamma^i_jk, the structure residual, every Theta^i_j and every
    # coefficient is compared bit for bit with the one-form kernels
    frame = _oracle_frame(name)
    conn = levi_civita(frame)
    curv = curvature(conn)
    dim = frame.chart.dim
    pairs = [(i, j) for i in range(dim) for j in range(dim) if i != j]
    for (i, j, k), want in _gamma_loop(frame).items():
        got = conn.gamma[i][j][k]
        assert (got.order, got.c.tobytes()) == (want.order, want.c.tobytes())
    assert np.asarray(conn.structure_residual).tobytes() == \
        np.asarray(_residual_loop(conn)).tobytes()
    table = _eager_tables(curv)
    for i, j in pairs:
        want = _k_sum(frame, conn.gamma[i][j])
        if i < j:
            assert conn.form(i, j).order == want.order
            assert _bits(conn.form(i, j)) == _bits(want)
            theta = _theta_loop(conn, i, j)
            assert curv.theta[i, j].order == theta.order
            assert _bits(curv.theta[i, j]) == _bits(theta)
            loop = two_form_coeffs(theta, frame)
            assert list(curv.coeffs[i, j]) == list(loop)
            for key, c in loop.items():
                assert curv.coeffs[i, j][key].c.tobytes() == c.c.tobytes()
        else:   # -omega^j_i; Gamma is skew up to the sign of a zero
            assert np.array_equal(conn.form(i, j).c, want.c)
        for a, b in pairs:
            c = table[i][j]
            want = c[(a, b)] if a < b else -c[(b, a)]
            assert curv.coefficient(i, j, a, b).c.tobytes() == want.c.tobytes()
    with pytest.raises(KeyError):
        conn.form(0, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        conn.gamma = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        curv.theta = {}


def test_oracle_frames_mix_orders():
    # the stacked blocks reach the grouping by order: the case-1 final frame
    # has covectors of orders [3, 3, 2] and Gamma entries of orders {1, 2},
    # torus_constC [6, 5, 5] and {4, 5}, and the truncated 4D block
    # [4, 3, 2, 4] and {1, 2, 3}, so the products of the connection forms
    # run at two or three orders; each connection form has the order of its
    # lowest term, the lowest covector's or below, the same for every form
    def orders(name):
        frame = _oracle_frame(name)
        conn = levi_civita(frame)
        return ([f.order for f in frame.forms],
                sorted({g.order for plane in conn.gamma for row in plane
                        for g in row}),
                sorted({f.order for f in conn.omega.values()}))

    assert orders("case1") == ([3, 3, 2], [1, 2], [1])
    assert orders("torus_constC") == ([6, 5, 5], [4, 5], [4])
    assert orders("fourd_enonzero mixed") == ([4, 3, 2, 4], [1, 2, 3], [1])
    assert len(_oracle_frame("case1").point[0]) == 4


@pytest.mark.parametrize("name,point", [
    ("normal_form_3d", (0.3, 0.6, 0.1)),
    ("fourd_enonzero", (0.3, 0.6, 0.1, 0.4)),
], ids=["normal_form_3d", "fourd_enonzero"])
def test_curvature_of_an_order_1_frame_names_its_stage(name, point):
    # at order 1 the structure table has order 0, and so have Gamma and the
    # connection forms, so d of the connection, the first derivative the
    # curvature takes, runs out of derivatives and names that stage
    frame = build_example(name).coframes().at(point, 1)
    conn = levi_civita(frame)
    with pytest.raises(BudgetError) as err:
        curvature(conn)
    assert err.value.stage == "curvature(d connection)"
    assert "'curvature(d connection)'" in str(err.value)


def _coordinate_jets(chart, point, order):
    """The coordinate functions of ``chart`` as jets at ``point``, stacks
    of one."""
    return [Jet.variable([float(point[i])], i, chart.dim, order)
            for i in range(chart.dim)]


def _frame4(order, dim=4):
    chart = Chart(("x", "y", "z", "w")[:dim])
    point = (0.3, -0.2, 0.5, 0.1)[:dim]
    coords = _coordinate_jets(chart, point, order)
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((dim, dim)) + dim * np.eye(dim)
    forms = tuple(
        PForm(chart, 1, {(j,): coords[(i + j) % dim] * coords[j] * 0.1
                         + float(mat[i, j]) for j in range(dim)})
        for i in range(dim))
    return chart, point, Coframe(chart, _coordinates([point]), forms)


def test_cached_volume_reciprocal_equals_a_fresh_reciprocal():
    chart, point, frame = _frame4(4)
    vol = frame.volume()
    coeff = vol.coeffs[(0, 1, 2, 3)]
    for order in (4, 2, 3, 6, 0):
        got = frame._volume_reciprocal(order)
        want = reciprocal(coeff.truncate(min(order, 4)))
        assert got.order == want.order
        assert got.c.tobytes() == want.c.tobytes()
        assert frame._volume_reciprocal(order) is got
    coords = _coordinate_jets(chart, point, 6)
    for order in (6, 3, 2):
        beta = ext_d(PForm(chart, 1, {(j,): (coords[j] * coords[(j + 1) % 4]
                                            ).truncate(order)
                                      for j in range(4)}))
        got = two_form_coeffs(beta, frame)
        for pair, (sign, rest) in frame._complements(2).items():
            want = top_ratio(wedge(beta, rest), vol) * sign
            assert got[pair].c.tobytes() == want.c.tobytes()


def test_cached_volume_reciprocal_raises_like_top_ratio():
    chart, point, frame = _frame4(3)
    flat = frame.replace(forms=frame.forms[:3] + (
        zero_form(chart, 1, 3, frame.forms[0].c.shape[2]),))
    beta = ext_d(frame.forms[1])
    with pytest.raises(SingularVolumeError) as direct:
        top_ratio(wedge(beta, wedge(flat.forms[2], flat.forms[3])),
                  flat.volume())
    with pytest.raises(SingularVolumeError) as cached:
        two_form_coeffs(beta, flat)
    assert str(cached.value) == str(direct.value)
    assert not any(isinstance(key, tuple) and key[0] == "reciprocal"
                   for key in flat._memo)


@pytest.mark.parametrize("dim", [3, 4])
def test_ratio_is_bit_equal_to_top_ratio(dim):
    for order in (2, 4, 6):
        chart, point, frame = _frame4(order, dim)
        coords = _coordinate_jets(chart, point, 6)
        f = coords[0] * coords[1] + coords[dim - 1] + 2.0
        for low in (6, order, 1):
            top = wedge_all(*(
                PForm(chart, 1, {(j,): (coords[(i + j) % dim] * f
                                        + float(i == j)).truncate(low)
                                 for j in range(dim)})
                for i in range(dim)))
            got = frame.ratio(top)
            want = top_ratio(top, frame.volume())
            assert got.order == want.order
            assert got.c.tobytes() == want.c.tobytes()
        flat = frame.replace(
            forms=frame.forms[:-1] + (
                zero_form(chart, 1, order, frame.forms[0].c.shape[2]),))
        with pytest.raises(SingularVolumeError) as direct:
            top_ratio(top, flat.volume())
        with pytest.raises(SingularVolumeError) as cached:
            flat.ratio(top)
        assert str(cached.value) == str(direct.value)
