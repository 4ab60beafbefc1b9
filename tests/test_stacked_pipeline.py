"""The 3D pipeline on stacked blocks of frames.

``analyze`` runs every stage once per block of ``forms.STACK_BLOCK`` frames.
Each column of its records and adapted frames is bit-equal to the path of
the point's own one-point list, a stack of one, a failure in the second
block raises what the points raise one by one, and epsilon and the case are
decided over all columns of all blocks.  The tests of block structure run
at blocks of ``conftest.TEST_BLOCK`` columns, where 33 points end in a block
of one column and 40 span two blocks; at the shipped ``forms.STACK_BLOCK``
a list of 40 is one block, whose failing pass is searched by halving.
"""

import io
import struct
from contextlib import redirect_stdout
from dataclasses import fields

import pytest

from bicontact import cli, forms, pipeline
from bicontact.errors import (AmbiguousCase, ContactFailure, CriticalPoint,
                              DegenerateTranslation, DomainError,
                              MixedEpsilon)
from bicontact.examples import build_example
from bicontact.forms import (Chart, _columns,
                             coframe_field_from_expressions)
from bicontact.jets import _value
from bicontact.pipeline import (Tolerances, _dC_data, _one_adapt_point,
                                _split_record, analyze, case1_adapt,
                                case2_adapt, one_adapt)
from conftest import DATA, box_points, load_coframe

ORDER = cli.ORDER_NEEDED["invariants", 3]
TOL = Tolerances()


def _source(name):
    """(raw field, sampling box) of a built-in example or the case-1 file,
    which samples the CLI's default cube."""
    if name == "case1_frame":
        return load_coframe(DATA / "case1_frame.txt"), \
            ((-cli.DEFAULT_HALF_WIDTH, cli.DEFAULT_HALF_WIDTH),) * 3
    spec = build_example(name)
    return spec.coframes(), spec.box


def _bits(value):
    """A record field with every float as its IEEE bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _record_bits(rec):
    return {f.name: _bits(getattr(rec, f.name)) for f in fields(rec)}


def _frame_bytes(cf):
    return [f.c.tobytes() for f in cf.forms]


def _one(fld, p, order=ORDER):
    """The one-adapted frame of the point's own one-point list, a stack of
    one."""
    (one,) = one_adapt(fld, [p], order)
    return one


def _columns_of(blocks):
    """Each column of stacked ``blocks`` as a stack of one, in order."""
    return [_columns(b, k, k + 1) for b in blocks
            for k in range(len(b.point[0]))]


def _own(fld, p, case, tol=TOL):
    """(one-adapted frame, adapted frame, record) of the point's own
    one-point list."""
    one = _one(fld, p)
    out, rec, _ = (case1_adapt(one, tol) if case == "case1"
                   else case2_adapt(one))
    (rec,) = _split_record(rec)
    return one, out, rec


@pytest.mark.parametrize("n", [33, 40])
@pytest.mark.parametrize("name,case", [("normal_form_3d", "case2"),
                                       ("eta_frame", "case2"),
                                       ("case1_frame", "case1")])
@pytest.mark.usefixtures("blocks_of_32")
def test_each_column_is_its_frames_own_path(name, case, n):
    size = forms.STACK_BLOCK
    fld, box = _source(name)
    pts = box_points(box, n, seed=24)
    result = analyze(fld, pts, ORDER, TOL)
    assert result["case"] == case
    assert [len(b.point[0]) for b in result["adapted_blocks"]] == \
        [size, n - size]
    ones = _columns_of(result["blocks"])
    outs = _columns_of(result["adapted_blocks"])
    for k, p in enumerate(pts):
        one, out, rec = _own(fld, p, case)
        assert one.eps == result["eps"]
        assert _record_bits(result["records"][k]) == _record_bits(rec), k
        assert _frame_bytes(ones[k]) == _frame_bytes(one), k
        assert _frame_bytes(outs[k]) == _frame_bytes(out), k
    if case == "case1":
        # xi = atan2(C2, C1) takes both branches within the first block
        assert len({abs(r.C1) >= abs(r.C2)
                    for r in result["records"][:size]}) == 2


def _first_error(run, pts):
    """(type, text) of the first point where ``run(p)`` raises."""
    for p in pts:
        try:
            run(p)
        except Exception as exc:     # noqa: BLE001 - any type is compared
            return type(exc), str(exc)
    raise AssertionError("no point fails")


def _raised(call):
    with pytest.raises(Exception) as err:
        call()
    return err.type, str(err.value)


def _last_at(pts, key, k=34):
    """``pts`` with the point of least ``key`` moved to index k."""
    pts = list(pts)
    low = min(range(len(pts)), key=lambda i: key(pts[i]))
    pts.insert(k, pts.pop(low))
    return pts


@pytest.mark.usefixtures("blocks_of_32")
def test_a_failing_one_adaptation_in_the_second_block_is_frame_by_frame():
    # omega1 ^ d omega1 = sin(theta) vanishes at the 35th point only, whose
    # raw frame builds
    fld, _ = _source("sphere_frame")
    pts = [(0.0 if k == 34 else 0.3 + 0.06 * k, 0.15 * k - 3, 0.1 * k - 2)
           for k in range(40)]
    fld.at(pts[34], ORDER)
    want = _first_error(lambda p: _one(fld, p), pts)
    assert want == (ContactFailure,
                    f"omega1 ^ d(omega1) = 0.0 at {pts[34]}")
    assert _raised(lambda: analyze(fld, pts, ORDER, TOL)) == want
    assert _raised(lambda: one_adapt(fld, pts, ORDER)) == want


@pytest.mark.usefixtures("blocks_of_32")
def test_a_block_failing_at_two_points_raises_the_first_points_own_error():
    # omega1 ^ d omega1 = x vanishes at x = 0, the 38th point; the frame's
    # volume x (y - z) vanishes at y = z, the 35th, whose one-adaptation
    # divides by it.  The stacked pass checks contact on every column
    # first, so it raises the 38th point's error; the block then goes frame
    # by frame and raises the 35th's
    fld = coframe_field_from_expressions(
        Chart(("x", "y", "z")),
        [{"dx": "-x*y", "dz": "1"}, {"dy": "x", "dz": "1"},
         {"dx": "z", "dy": "1"}])
    pts = [(0.2 + 0.01 * k, 0.1 + 0.02 * k, 0.01 * k - 0.3)
           for k in range(40)]
    pts[34], pts[37] = (0.5, 0.3, 0.3), (0.0, 0.2, 0.5)
    with pytest.raises(ContactFailure):
        _one_adapt_point(next(fld.blocks(pts[32:], 5)))
    want = _first_error(lambda p: _one(fld, p, 5), pts)
    assert want == (DomainError,
                    "reciprocal: argument value 0.0 outside domain")
    assert _raised(lambda: analyze(fld, pts, 5, TOL)) == want
    assert _raised(lambda: one_adapt(fld, pts, 5)) == want


@pytest.mark.usefixtures("blocks_of_32")
def test_a_failing_case_adaptation_in_the_second_block_is_frame_by_frame(
        monkeypatch):
    # the 35th point has the least |dC|, and the critical band is moved up
    # to it; case_detect's own bands do not flag it
    fld, box = _source("normal_form_3d")
    pts = _last_at(box_points(box, 40, seed=25),
                   lambda p: _dC_data(_one(fld, p))[4][0])
    band = _dC_data(_one(fld, pts[34]))[4][0]
    monkeypatch.setattr(pipeline, "CRITICAL", band)
    want = _first_error(lambda p: _own(fld, p, "case2"), pts)
    assert want == (CriticalPoint, f"dC = 0 at {pts[34]}")
    assert _raised(lambda: analyze(fld, pts, ORDER, TOL)) == want


@pytest.mark.usefixtures("blocks_of_32")
def test_a_singular_case1_translation_in_the_second_block_is_frame_by_frame():
    # the 35th point has the least |A3^2 - C^2 - eps|, and the tolerance is
    # set to it
    fld, box = _source("case1_frame")

    def size(p):
        (det,) = _value(case1_adapt(_one(fld, p), TOL)[2]["det"])
        return abs(det)

    pts = _last_at(box_points(box, 40, seed=26), size)
    tol = Tolerances(deep=size(pts[34]))
    want = _first_error(lambda p: _own(fld, p, "case1", tol), pts)
    assert want[0] is DegenerateTranslation
    assert want[1].startswith(f"translation system is singular at {pts[34]}")
    assert _raised(lambda: analyze(fld, pts, ORDER, tol)) == want


@pytest.mark.usefixtures("blocks_of_32")
def test_a_mixed_epsilon_in_the_second_block_lists_every_sample():
    # omega1 = dx + y dz, omega2 = dy + z^2/2 dx: epsilon follows the sign
    # of z, negative at the 36th and 39th of 40 points only
    fld = coframe_field_from_expressions(
        Chart(("x", "y", "z")),
        [{"dx": "1", "dz": "y"}, {"dy": "1", "dx": "z^2/2"}, {"dz": "1"}])
    pts = [(0.1 + 0.01 * k, 0.2 - 0.01 * k,
            -0.5 if k in (35, 38) else 0.5) for k in range(40)]
    seen = {}
    for p in pts:
        seen.setdefault(_one(fld, p, 5).eps, []).append(p)
    assert [len(v) for v in seen.values()] == [38, 2]
    with pytest.raises(MixedEpsilon) as err:
        analyze(fld, pts, 5, TOL)
    assert str(err.value) == f"epsilon not constant over samples: {seen}"


def test_a_block_that_fails_only_as_a_whole_yields_every_column():
    # the 40 points of the mixed-epsilon field above are one raw block at
    # the shipped forms.STACK_BLOCK.  A stage that one-adapts a block and
    # then takes one eps for it raises on the whole block, and on each part
    # of it where both signs meet, but passes on every column alone.
    # Halving yields every column in sample order, each bit-equal to its
    # one-column pass
    fld = coframe_field_from_expressions(
        Chart(("x", "y", "z")),
        [{"dx": "1", "dz": "y"}, {"dy": "1", "dx": "z^2/2"}, {"dz": "1"}])
    pts = [(0.1 + 0.01 * k, 0.2 - 0.01 * k,
            -0.5 if k in (35, 38) else 0.5) for k in range(40)]
    (block,) = fld.blocks(pts, 5)

    def record(cf):
        one = _one_adapt_point(cf)
        (eps,) = set(one.eps.tolist())   # ValueError where eps is mixed
        return pipeline._dC_record(one.replace(eps=eps), "case3")

    with pytest.raises(ValueError):
        record(block)
    parts = list(forms.by_block([block], record))
    assert [p for cf, _ in parts for p in pipeline._points(cf)] == pts
    got = [rec for _, out in parts for rec in _split_record(out)]
    want = [one for k in range(40) for one in _split_record(
        record(_columns(block, k, k + 1)))]
    assert [_record_bits(r) for r in got] == [_record_bits(r) for r in want]


def test_a_slice_of_a_one_adapted_block_keeps_its_columns_eps():
    # _one_adapt_point gives a block one eps per column, before one_adapt
    # sets one int; a slice of it holds its own columns' eps, and an int
    # eps is kept as it is
    spec = build_example("normal_form_3d")
    (raw,) = spec.coframes().blocks(box_points(spec.box, 40, seed=3), ORDER)
    block = _one_adapt_point(raw)
    assert block.eps.shape == (40,)
    for start, stop in ((0, 1), (7, 8), (5, 25), (39, 40)):
        part = _columns(block, start, stop)
        assert part.eps.tolist() == block.eps[start:stop].tolist()
    assert _columns(block.replace(eps=1), 3, 4).eps == 1


def _norm(cf):
    return _dC_data(cf)[4]


def _C3_ratio(cf):
    _, C3, _, _, norm = _dC_data(cf)
    return abs(_value(C3)) / (1.0 + norm)


def _B_square(cf):
    b = pipeline._omega3_frame(cf, "test")[2]
    return _value(b[(1, 2)]) ** 2 + _value(b[(0, 2)]) ** 2


@pytest.mark.parametrize("band,measure,what", [
    ("FLAT_DC", _norm, "dC vanishes"),
    ("C3_BAND", _C3_ratio, "C3 = 0"),
    ("CASE3_BAND", _B_square, "B1 = B2 = 0"),
], ids=["flat", "C3", "B"])
@pytest.mark.usefixtures("blocks_of_32")
def test_a_case_that_flips_in_the_second_block_names_its_points(
        monkeypatch, band, measure, what):
    # the four least values sit in the second block, and the band lies
    # between them and the rest
    fld, box = _source("normal_form_3d")
    pts = box_points(box, 40, seed=27)
    values = [measure(_one(fld, p))[0] for p in pts]
    order = sorted(range(40), key=lambda k: -values[k])
    pts, values = [pts[k] for k in order], [values[k] for k in order]
    monkeypatch.setattr(pipeline, band, 0.5 * (values[35] + values[36]))
    flagged = pts[36:]
    with pytest.raises(AmbiguousCase) as err:
        analyze(fld, pts, ORDER, TOL)
    assert err.value.points == flagged
    assert str(err.value) == (f"{what} at some sampled points only "
                              f"(offending points: {flagged})")


# every command, on each kind of source it takes: both chart dimensions, both
# taut branches, the case-1 file and the Cartan check of sphere_frame
_EVERY_COMMAND = [
    ["check", "normal_form_3d"], ["check", "fourd_enonzero"],
    ["invariants", "normal_form_3d"],
    ["invariants", str(DATA / "case1_frame.txt")],
    ["classify", "normal_form_3d"],
    ["taut", "hyp_c3"], ["taut", "hyp_c3", "--param", "eps=1"],
    ["curvature", "normal_form_3d"], ["curvature", "fourd_enonzero"],
    ["fourdim", "fourd_enonzero"],
    ["example", "sphere_frame"], ["example", "fourd_enonzero"],
    ["normal-form", "tan(z)"],
]


@pytest.mark.parametrize("points", ["1", "3"])
def test_every_command_builds_only_forms_with_a_point_axis(monkeypatch,
                                                           points):
    # one frame shape: every form a command builds, raw, adapted, rotated or
    # derived, carries a point axis, a one-point list's too
    assert {argv[0] for argv in _EVERY_COMMAND} == set(cli.COMMANDS)
    ndims = []
    fill = forms.PForm._fill

    def recording(self, chart, degree, order, c):
        ndims.append(c.ndim)
        return fill(self, chart, degree, order, c)

    monkeypatch.setattr(forms.PForm, "_fill", recording)
    for argv in _EVERY_COMMAND:
        with redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--points", points]) == 0, argv
    assert ndims and set(ndims) == {3}
