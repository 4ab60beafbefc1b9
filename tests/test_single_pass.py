"""Drivers return the frames they build at their sample points.

Each driver hands back its frames in sample order, and every later stage
reads them from it, so the 3D adaptation, the curvature and the 4D stages
run once per stacked block of ``forms.STACK_BLOCK`` frames, and the
coefficient tape once per sample list.  ``analyze`` hands its stacked
blocks, memo included, to the curvature stage.  The returned frames agree
bit for bit with a fresh build, whatever the order of the sample list, and
each frame's structure table ``d_coeffs`` is computed once and shared by
every later stage, so coefficient extraction runs a fixed number of times
per block.  So do C, the omega3 = dC/C3 frame of case 2 and the dE
expansion of a 4D frame, which each frame memoizes.  Each frame takes d of
its own covectors once, and ``ext_d`` is the only differentiation kernel of
the forms layer.  Every stage runs on stacked frames, so the counts below
are per block; the tests that count blocks run at blocks of
``conftest.TEST_BLOCK`` columns, so 40 points take two.
"""

import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from bicontact import (cli, curvature, expressions, forms, fourdim, jets,
                       pipeline)
from bicontact.errors import ContactFailure, DomainError
from bicontact.examples import build_example
from bicontact.forms import Chart, _columns, coframe_field_from_expressions
from bicontact.pipeline import Tolerances, analyze

from conftest import DATA, box_points

TOL = Tolerances()
CASE1_ARGS = ["invariants", str(DATA / "case1_frame.txt"), "--points", "5"]


def _counting(monkeypatch, owner, name, *aliases):
    """Count calls of ``owner.name``, also through ``(module, attr)`` aliases."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module, attr in ((owner, name),) + aliases:
        monkeypatch.setattr(module, attr, wrapper)
    return calls


def _aliases(owner, name):
    """The ``(module, name)`` pairs that import ``owner.name`` directly."""
    return tuple((m, name) for m in (cli, curvature, fourdim, pipeline)
                 if m is not owner
                 and getattr(m, name, None) is getattr(owner, name))


def _run(args):
    with redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0


def _frame_bytes(cf):
    return [f.coeffs[k].c.tobytes() for f in cf.forms for k in sorted(f.coeffs)]


def _unstacked(blocks):
    """Each column of stacked ``blocks`` as a stack of one, in order."""
    return [_columns(block, k, k + 1) for block in blocks
            for k in range(len(block.point[0]))]


def _normal_form_points(n):
    return box_points(build_example("normal_form_3d").box, n, seed=11)


@pytest.mark.usefixtures("blocks_of_32")
def test_analyze_evaluates_and_adapts_each_point_once(monkeypatch):
    # one tape run, of one pass, over the sample list; one case-2
    # adaptation per stacked block of forms.STACK_BLOCK frames, whose
    # columns are the points: one for 2 and 12 points, two for 40
    spec = build_example("normal_form_3d")
    for n, blocks in ((2, 1), (12, 1), (40, 2)):
        pts = _normal_form_points(n)
        runs = _counting(monkeypatch, expressions.Tape, "run")
        adapts = _counting(monkeypatch, pipeline, "case2_adapt")
        result = analyze(spec.coframes(), pts, 6, TOL)
        assert result["case"] == "case2"
        assert len(runs) == 1
        assert len(adapts) == blocks
        assert [len(b.point[0]) for b in result["adapted_blocks"]] == \
            [min(n, forms.STACK_BLOCK), n - forms.STACK_BLOCK][:blocks]


# omega1 ^ d omega1 = x dx^dy^dz vanishes at x = 0; ln(z) leaves its domain
# at z <= 0
_FAILING_ROWS = [{"dx": "-x*y", "dz": "1"}, {"dy": "x", "dz": "1"},
                 {"dx": "1", "dy": "ln(z)"}]


@pytest.mark.parametrize("points,error,text,runs", [
    ([(0.0, 1.0, 1.0), (1.0, 1.0, -1.0)], ContactFailure,
     r"omega1 \^ d\(omega1\) = 0.0 at \(0.0, 1.0, 1.0\)", 2),
    ([(1.0, 1.0, -1.0), (0.0, 1.0, 1.0)], DomainError,
     r"ln: argument value -1.0 outside domain", 2),
    ([(1.0, 1.0, -1.0)], DomainError,
     r"ln: argument value -1.0 outside domain", 1),
], ids=["contact first", "tape first", "one point"])
def test_one_adapt_meets_the_first_failure_in_sample_order(monkeypatch,
                                                           points, error,
                                                           text, runs):
    # the tape over both points, run as one batch, fails at the point with
    # z < 0, yet one_adapt raises what the one-point builds raise at the
    # first point that fails: one failing run over the list, then one per
    # point reached, each frame adapted as a stack of one before the next
    # is built; a one-point list raises its one run's error
    tape_runs = _counting(monkeypatch, expressions.Tape, "run")
    fld = coframe_field_from_expressions(Chart(("x", "y", "z")),
                                         _FAILING_ROWS)
    with pytest.raises(error, match=f"^{text}$"):
        pipeline.one_adapt(fld, points, 3)
    assert len(tape_runs) == runs


def test_normal_form_runs_the_profile_tape_once_per_point(monkeypatch):
    # solve_q 16 one-point runs over the span; the h tape and C's tape each
    # evaluate every sample point once, all points in one pass, whose jet
    # both the Q lift (truncated one order lower for u) and the C lift read
    evaluated = []
    original = expressions.Tape.run

    def counting(self, x, order, coords, params=None):
        evaluated.append(np.size(x[0]))
        return original(self, x, order, coords, params)

    monkeypatch.setattr(expressions.Tape, "run", counting)
    _run(["normal-form", "tan(z)", "--order", "3", "--points", "5"])
    assert evaluated == [1] * 16 + [5, 5]


def test_normal_form_runs_each_tape_once_over_a_batched_list(monkeypatch):
    # solve_q's 16 one-point runs over the span, then one pass of the h
    # tape and one of C's tape over all the points; C's jet feeds both the
    # Q lift (truncated one order lower for u) and the C lift, and no frame
    # is built on its own
    for points in ("2", "12"):
        runs = _counting(monkeypatch, expressions.Tape, "run")
        at = _counting(monkeypatch, forms.CoframeField, "at")
        _run(["normal-form", "tan(z)", "--order", "3", "--points", points])
        assert (len(runs), len(at)) == (16 + 2, 0)


# det h = x is 0 at the seventh point only; ln(y) leaves its domain at the
# second point only
_FAILING_LISTS = {
    "normal-form": ["normal-form", "tan(z)", "--h", "x,0,0,1"] + [
        f"--at={p}" for p in (
            "0.3,0.1,0.2,1.1", "-0.2,0.4,-0.3,0.6", "0.4,-0.5,0.5,1.4",
            "-0.5,0.2,-0.6,0.3", "0.6,-0.3,0.7,1.7", "0.1,0.6,-0.1,0.9",
            "0,0.5,0.5,0.5", "-0.3,-0.1,0.3,1.2", "0.2,0.3,-0.4,0.8",
            "0.5,-0.6,0.1,1.5", "-0.6,0.7,-0.7,0.4", "0.7,-0.2,0.6,1.6")],
    "invariants": ["invariants", "normal_form_3d"] + [
        f"--at={p}" for p in (
            "0.5,1.0,0.1", "0.5,-1.0,0.1", "0.3,0.6,0.3", "0.4,0.7,-0.4",
            "0.6,0.8,0.5", "0.7,0.9,-0.6", "0.3,1.3,0.7", "0.4,1.5,-0.8",
            "0.6,1.7,0.2", "0.5,1.8,-0.1", "0.3,1.1,0.0", "0.45,1.2,0.4")],
}


@pytest.mark.parametrize("command", sorted(_FAILING_LISTS))
def test_a_failing_batched_list_reports_as_point_by_point_builds(
        monkeypatch, command):
    argv = _FAILING_LISTS[command]
    assert sum(w.startswith("--at=") for w in argv) == 12

    def report():
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 1
        return out.getvalue()

    batched = report()

    def frame_by_frame(fld, ode, points, order):
        return (row for p in points for row in forms.block_rows(
            [p], [fld.at(p, order)],
            lambda frame: fourdim.normal_form_residuals(frame, ode)))

    blocks = forms.CoframeField.blocks

    def point_by_point(fld, points, order):
        return (next(blocks(fld, [p], order)) for p in points)

    # the reference builds and checks each frame on its own
    monkeypatch.setattr(forms.CoframeField, "blocks", point_by_point)
    monkeypatch.setattr(fourdim, "normal_form_residual_rows", frame_by_frame)
    assert report() == batched
    rep = json.loads(batched)
    want = (6, "DegenerateH") if command == "normal-form" else \
        (0, "DomainError")
    assert [(len(rep["records"]), e["type"]) for e in rep["errors"]] == [want]


@pytest.mark.parametrize("args,calls", [
    (["curvature", "normal_form_3d", "--points", "5"], 6 + 15),
    (["curvature", "normal_form_3d", "--points", "12"], 6 + 15),
    (["curvature", "normal_form_3d", "--points", "40"], 6 + 15 * 2),
    (["fourdim", "fourd_enonzero", "--points", "2"], 4 + 2),
    (["fourdim", "fourd_enonzero", "--points", "12"], 4 + 2),
], ids=["curvature normal_form_3d", "curvature normal_form_3d batched",
        "curvature normal_form_3d two blocks",
        "fourdim fourd_enonzero", "fourdim fourd_enonzero batched"])
@pytest.mark.usefixtures("blocks_of_32")
def test_each_distinct_series_subexpression_runs_once(monkeypatch, args,
                                                      calls):
    # the raw frames' tape runs once over the sample list, however short,
    # and takes each series once: in 3D one sin/cos pair for sin(x) and
    # cos(x), one for cot(2x) and csc(2x) with one reciprocal of sin(2x)
    # between them, ln(y), and one reciprocal each of y and y^2 for the
    # seven divisions by them, 6 series; in 4D 4.  Per stacked block of
    # frames (one, or two for 40 points), in 3D: one_adapt 4 (the one
    # reciprocal of omega1 ^ d(omega1) that its two ratios share, the root
    # of the scale and its reciprocal, and that of lambda), the omega3
    # frame 1, case2_adapt 4, volume reciprocals 5, and the one volume
    # reciprocal of the curvature stages that the adapted block's memo
    # lacks, 15; in 4D, the volume reciprocals of the curvature stages 2.
    # 1-form coefficients divide by the cached volume reciprocal, so they
    # take no series of their own.  The tape took 14 series while each
    # function and division ran its own, and evaluating each coefficient's
    # AST on its own took 39 (3D) and 15 (4D) per point.
    series = _counting(monkeypatch, jets, "_series")
    _run(args)
    assert len(series) == calls


@pytest.mark.parametrize("count,bad", [(1000, 500), (40, 0), (40, 39),
                                       (3, 1)])
def test_a_failing_build_is_searched_by_halving(count, bad):
    # the one build of the list raises, so its first half is built, then
    # its second, each the same way, down to the failing point, which raises
    # its own error after every column before it; point by point took
    # bad + 2 builds
    fld = build_example("normal_form_3d").coframes()
    pts = _normal_form_points(count)
    pts[bad] = (0.5, -1.0, 0.1)    # ln(y) leaves its domain
    with pytest.raises(DomainError) as alone:
        fld.at(pts[bad], 6)
    built, builder = [], fld._builder
    fld._builder = lambda x, order: built.append(len(x[0])) or builder(
        x, order)
    columns = []
    with pytest.raises(DomainError) as err:
        for block in fld.blocks(pts, 6):
            columns.append(len(block.point[0]))
    assert str(err.value) == str(alone.value)
    assert sum(columns) == bad
    assert built[0] == count and built[-1] == 1
    assert len(built) <= 2 * math.ceil(math.log2(count)) + 1


@pytest.mark.usefixtures("blocks_of_32")
def test_a_stacked_build_makes_each_covector_once(monkeypatch):
    # the tape's many-point jets go straight into one stacked frame: one
    # PForm per covector for the whole list, which the blocks slice; one
    # per covector per point when each point was a frame of its own
    pts = _normal_form_points(40)
    fld = build_example("normal_form_3d").coframes()
    made = _counting(monkeypatch, forms.PForm, "__init__")
    blocks = list(fld.blocks(pts, 6))
    assert len(made) == 3
    assert [len(b.point[0]) for b in blocks] == \
        [forms.STACK_BLOCK, 40 - forms.STACK_BLOCK]


@pytest.mark.usefixtures("blocks_of_32")
def test_curvature_command_computes_curvature_once_per_point(monkeypatch):
    # once per stacked block of forms.STACK_BLOCK frames, so once for each
    # point's column: 40 points take two blocks
    calls = _counting(monkeypatch, curvature, "curvature",
                      (cli, "curvature_of"))
    _run(["curvature", "normal_form_3d", "--points", "40"])
    assert len(calls) == 2


@pytest.mark.parametrize("args,calls", [
    (["curvature", "normal_form_3d", "--points", "5"], 4 + 1),
    (["curvature", "normal_form_3d", "--points", "40"], (4 + 1) * 2),
    (["fourdim", "fourd_enonzero", "--points", "2"], 4 + 1),
    (CASE1_ARGS, 5),
], ids=["curvature normal_form_3d", "curvature normal_form_3d two blocks",
        "fourdim fourd_enonzero", "invariants case1_frame"])
@pytest.mark.usefixtures("blocks_of_32")
def test_each_frame_extracts_its_structure_table_once(monkeypatch, args,
                                                      calls):
    # two_form_coeffs and coeffs_stack calls per stacked block of frames
    # (one, or two for 40 points), in 3D: case_detect 1, case2_adapt 3,
    # reading the B-table that case_detect built, and curvature 1 stack of
    # its three Theta tables, with levi_civita reading case2_adapt's tables
    # from the adapted block's memo.  In 4D, per stacked block:
    # symp_structure 4, curvature 1 stack of its six tables, with
    # levi_civita reading symp_structure's table.  In case 1, per block: the
    # base frame's d omega1 and d omega2 tables 2, which give the omega3
    # translation in closed form, and the final frame's 3.  Table by table,
    # curvature took 3 calls per 3D block and 6 per 4D block; frame by
    # frame, 3D took 4 per point and 6 per block, case 1 5 per point
    counted = _counting(monkeypatch, forms, "two_form_coeffs",
                        *_aliases(forms, "two_form_coeffs"))
    stacks = _counting(monkeypatch, forms, "coeffs_stack",
                       *_aliases(forms, "coeffs_stack"))
    _run(args)
    assert len(counted) + len(stacks) == calls


@pytest.mark.parametrize("args,calls", [
    (["curvature", "normal_form_3d", "--points", "5"], 8 + 1),
    (["curvature", "normal_form_3d", "--points", "40"], (8 + 1) * 2),
    (["fourdim", "fourd_enonzero", "--points", "2"], 8),
    (CASE1_ARGS, 8),
], ids=["curvature normal_form_3d", "curvature normal_form_3d two blocks",
        "fourdim fourd_enonzero", "invariants case1_frame"])
@pytest.mark.usefixtures("blocks_of_32")
def test_each_frame_differentiates_its_covectors_once(monkeypatch, args,
                                                      calls):
    # ext_d and ext_d_stack calls per stacked block of frames (one, or two
    # for 40 points), in 3D: one_adapt 2 on the raw block, C 1 on the
    # one-adapted block (d omega1 carries over from the raw block), dC 1,
    # d omega3 of the omega3 frame 1, case2_adapt 2 on its final frame
    # (d omega3 carries over from the omega3 frame), d zeta 1; then the
    # connection forms 1 stack of 3, with the final block's covectors, the
    # connection residual and the leaf defect read from its memo.  In 4D,
    # per stacked block: symp_structure 4, dE 1, d theta^1 and d theta^2
    # 1 stack, the connection forms 1 stack of 6, dC 1; compute_E, the
    # pairings, the connection residual and the leaf defect read the memo.
    # In case 1, per block: one_adapt 2, C 1, dC 1, d omega1 and d omega2 of
    # the base frame 2, which carry over to the final frame, its d omega3 1
    # and d xi 1.  Form by form, the connection forms took 3 calls per 3D
    # block and 6 per 4D block, and 4D took 14; frame by frame, 3D took 8
    # per point and 6 per block.  scalar_d runs through ext_d, so
    # jets.partial never runs.
    ext_d = _counting(monkeypatch, forms, "ext_d", *_aliases(forms, "ext_d"))
    stacks = _counting(monkeypatch, forms, "ext_d_stack",
                       *_aliases(forms, "ext_d_stack"))
    partial = _counting(monkeypatch, jets, "partial",
                        *_aliases(jets, "partial"))
    _run(args)
    assert (len(ext_d) + len(stacks), len(partial)) == (calls, 0)


@pytest.mark.parametrize("args,scaled,rows", [
    (["curvature", "normal_form_3d", "--points", "5"], 5, [3]),
    (["fourdim", "fourd_enonzero", "--points", "2"], 16, [6]),
], ids=["curvature normal_form_3d", "fourdim fourd_enonzero"])
def test_each_connection_form_is_built_once_above_the_diagonal(
        monkeypatch, args, scaled, rows):
    # per stacked block of frames (one here), the connection forms
    # omega^i_j, i < j, are one Coframe.combine of 3 rows in 3D and 6 in
    # 4D, which takes no PForm.scaled: the scaled forms are one_adapt 2,
    # the omega3 frame 1 and case2_adapt 2 in 3D, and the sampled pairings
    # 16 in 4D.  omega^j_i is the negated omega^i_j, and the zero diagonal
    # is never built.  Form by form, the connection forms took 3 x 3 and
    # 6 x 4 scaled products.
    counted = _counting(monkeypatch, forms.PForm, "scaled")
    combined, combine = [], forms.Coframe.combine
    monkeypatch.setattr(forms.Coframe, "combine", lambda frame, jet_rows: (
        combined.append(len(jet_rows)) or combine(frame, jet_rows)))
    _run(args)
    assert (len(counted), combined) == (scaled, rows)


def test_fourdim_wedges_only_outside_two_form_coeffs(monkeypatch):
    # per stacked block of frames (one here): 3 for the frame's volume, 5 for
    # its 2-form complements (one wedge each; omega1^omega2 is the volume's
    # first), 3 for its 1-form complements (one each on a kept 2-form prefix;
    # omega1^omega2^omega3 is the volume's second), 2 for E and 1 for the
    # leaf defect; the pairings, the curvature and the Pfaffian take one
    # wedge_stack each, and the connection residual one stacked kernel call
    # of its own, so the wedge kernel runs 14 + 4 times a block where it ran
    # 52, and forms._multiply 33 times where it ran 100.  The
    # two_form_coeffs and one_form_coeffs calls and the coeffs_stack of a
    # block run as batched products and take no wedge
    wedges = _counting(monkeypatch, forms, "wedge", *_aliases(forms, "wedge"))
    stacks = _counting(monkeypatch, forms, "wedge_stack",
                       *_aliases(forms, "wedge_stack"))
    kernels = _counting(monkeypatch, forms, "_wedge_rows",
                        *_aliases(forms, "_wedge_rows"))
    products = _counting(monkeypatch, forms, "_multiply")
    _run(["fourdim", "fourd_enonzero", "--points", "2"])
    assert (len(wedges), len(stacks), len(kernels), len(products)) == \
        (14, 3, 14 + 4, 33)

    frame = build_example("fourd_enonzero").coframes().at((0.5, 1.0, 0.0, 0.1),
                                                          2)
    frame.d_coeffs(0)
    forms.one_form_coeffs(frame.forms[0], frame)
    del wedges[:]
    frame.d_coeffs(1)
    forms.one_form_coeffs(frame.forms[1], frame)
    assert not wedges


@pytest.mark.parametrize("args,calls", [
    (["invariants", "normal_form_3d", "--points", "5"], 1),
    (["taut", "sphere_frame", "--points", "5"], 1),
    (["taut", "sphere_frame", "--points", "40"], 2),
    (["check", "normal_form_3d", "--points", "40"], 0),
    (["classify", "normal_form_3d", "--points", "40"], 2),
], ids=["invariants normal_form_3d", "taut sphere_frame",
        "taut sphere_frame two blocks", "check normal_form_3d",
        "classify normal_form_3d"])
@pytest.mark.usefixtures("blocks_of_32")
def test_each_frame_computes_C_once(monkeypatch, args, calls):
    # once per stacked block of forms.STACK_BLOCK frames (one, or two for
    # 40 points), in the pipeline and in taut and classify; check takes no
    # C
    found = _counting(monkeypatch, pipeline, "compute_C",
                      *_aliases(pipeline, "compute_C"))
    _run(args)
    assert len(found) == calls


@pytest.mark.parametrize("args,grouped", [
    (["fourdim", "fourd_enonzero", "--points", "18"], 2),
    (["curvature", "normal_form_3d", "--points", "60"], 6),
], ids=["fourdim fourd_enonzero", "curvature normal_form_3d"])
@pytest.mark.usefixtures("blocks_of_32")
def test_each_product_plan_builds_its_rank_groups_at_most_once(monkeypatch,
                                                               args, grouped):
    # a product plan of forms._multiply builds its rank groups the first
    # time it sums past jets.FLAT_PRODUCT_MAX weights x points and keeps
    # them: of the 4D benchmark list, only the connection forms' products
    # (96 terms of 9 pairs x 18 points) and the curvature's stacked wedge
    # (144 terms) pass it, and the 3D list's two blocks build six plans'
    # once each; the plan caches start empty, so no earlier build hides one
    for plans in (forms._scale_plan, forms._wedge_plan, forms._coeffs_plan,
                  forms._combine_plan):
        plans.cache_clear()
    built, term_groups = [], forms._term_groups
    monkeypatch.setattr(forms, "_term_groups",
                        lambda plan: built.append(plan) or term_groups(plan))
    _run(args)
    assert len({id(plan) for plan in built}) == len(built) == grouped


def test_fourdim_expands_dE_once_per_point_and_takes_no_top_ratio(
        monkeypatch):
    expansions = _counting(monkeypatch, fourdim, "e_expansion")
    ratios = _counting(monkeypatch, forms, "top_ratio",
                       *_aliases(forms, "top_ratio"))
    # one expansion per stacked block of frames, here one for both points
    _run(["fourdim", "fourd_enonzero", "--points", "2"])
    assert len(expansions) == 1
    assert not ratios


def test_kept_frames_match_a_fresh_build():
    # the raw frames come from one batched tape run, the fresh ones from
    # one-point runs, each a stack of one
    spec = build_example("normal_form_3d")
    pts = _normal_form_points(3)
    result = analyze(spec.coframes(), pts, 6, TOL)
    adapted, frames2 = (_unstacked(result[key])
                        for key in ("blocks", "adapted_blocks"))
    assert len(adapted) == len(frames2) == len(pts)
    for p, kept1, kept2 in zip(pts, adapted, frames2):
        (one,) = pipeline.one_adapt(spec.coframes(), [p], 6)
        two, _, _ = pipeline.case2_adapt(one)
        assert _frame_bytes(kept1) == _frame_bytes(one)
        assert _frame_bytes(kept2) == _frame_bytes(two)


def test_frames_follow_the_sample_order():
    spec = build_example("normal_form_3d")
    pts = _normal_form_points(4)
    forward = analyze(spec.coframes(), pts, 6, TOL)
    backward = analyze(spec.coframes(), pts[::-1], 6, TOL)
    assert [r.point for r in forward["records"]] == pts
    assert backward["records"] == forward["records"][::-1]
    for key in ("blocks", "adapted_blocks"):
        back, fore = _unstacked(backward[key]), _unstacked(forward[key])
        assert [p for cf in back for p in pipeline._points(cf)] == pts[::-1]
        assert [_frame_bytes(cf) for cf in back] == \
            [_frame_bytes(cf) for cf in fore[::-1]]
