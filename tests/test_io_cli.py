"""Definition-file parsing, report serialization, and the command line."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import bicontact
from bicontact.cli import (COMMANDS, ORDER_NEEDED, RunConfig, _sample,
                           _uniforms, build_parser, main, run)
from bicontact.errors import ArityError, ParseError, UnknownIdentifier
from bicontact.examples import build_example
from bicontact.inputfile import load_definition, parse_coframe_text
from bicontact.report import (check, dumps_canonical, format_float, nan_max,
                              summarize_residuals)
from conftest import DATA, box_points, load_coframe

GOOD = ("[chart]\ncoords = x y z\n[omega1]\ndx = 1\n"
        "[omega2]\ndy = 1\n[omega3]\ndz = 1\n")


def test_parse_minimal_definition():
    d = parse_coframe_text(GOOD)
    assert d.chart.coords == ("x", "y", "z")
    assert d.chart.dim == 3
    assert d.rows == [{"dx": "1"}, {"dy": "1"}, {"dz": "1"}]
    fld = d.coframes()
    cf = fld.at((0.1, 0.2, 0.3), 4)
    assert cf.omega(1).coeffs[(0,)].c[0].tolist() == [1.0]


def test_parse_quoted_values_and_comments():
    text = ('[chart]  coords = x y z   # inline chart\n'
            '[params] k = 2.5\n'
            '[omega1] dx = "k * (x + y)"  dy = 1\n'
            '[omega2] dy = 1\n'
            '[omega3] dz = 1  # trailing comment\n')
    d = parse_coframe_text(text)
    assert d.params == {"k": 2.5}
    assert d.rows[0]["dx"] == "k * (x + y)"


@pytest.mark.parametrize("text,exc", [
    # covector sections must match the chart dimension
    ("[chart]\ncoords = x y z\n[omega1]\ndx=1\n[omega2]\ndy=1\n", ArityError),
    ("[chart]\ncoords = x y z\n[omega1]\ndx=1\n[omega2]\ndy=1\n"
     "[omega3]\ndz=1\n[omega4]\ndx=1\n", ArityError),
    ("[chart]\ncoords = x y\n[omega1]\ndx=1\n[omega2]\ndy=1\n", ArityError),
    ("[chart]\ncoords = x y z\n[omega1]\ndx=1\ndw=2\n[omega2]\ndy=1\n"
     "[omega3]\ndz=1\n", ArityError),
    # malformed text
    ("[chart]\ncoords = x y z\n[omega1]\ndx=1\ndx=2\n[omega2]\ndy=1\n"
     "[omega3]\ndz=1\n", ParseError),
    ("[chart]\ncoords = x y z\n[omega1]\ndx=1\n[omega1]\ndy=1\n"
     "[omega2]\ndy=1\n[omega3]\ndz=1\n", ParseError),
    ("dx = 1\n[chart]\ncoords = x y z\n", ParseError),
    ("[chart]\ncoords = x y z\n[foo]\nbar=1\n", ParseError),
    ("[chart]\ncoords = x y z\n[omega1]\ndx=1+\n[omega2]\ndy=1\n"
     "[omega3]\ndz=1\n", ParseError),
    ("[chart]\ncoords = x y z\n[params]\npsi = oops(\n[omega1]\ndx=1\n"
     "[omega2]\ndy=1\n[omega3]\ndz=1\n", ParseError),
    ("[chart]\ncoords = x x z\n[omega1]\ndx=1\n[omega2]\ndx=1\n"
     "[omega3]\ndz=1\n", ParseError),
    ("", ParseError),
    # expression names an identifier the chart does not define
    ("[chart]\ncoords = x y z\n[omega1]\ndx=q+1\n[omega2]\ndy=1\n"
     "[omega3]\ndz=1\n", UnknownIdentifier),
])
def test_malformed_definitions(text, exc):
    with pytest.raises(exc):
        parse_coframe_text(text)


def test_parse_errors_carry_line_numbers():
    try:
        parse_coframe_text("[chart]\ncoords = x y z\n[omega1]\ndx=1\ndx=2\n"
                           "[omega2]\ndy=1\n[omega3]\ndz=1\n")
    except ParseError as exc:
        assert exc.line == 5
    else:
        pytest.fail("expected ParseError")


def test_hyp_file_matches_generator():
    fld_file = load_coframe(DATA / "hyp_ex.txt")
    fld_gen = build_example("hyp_c3").coframes()
    rng = np.random.default_rng(55)
    for _ in range(10):
        p = tuple(rng.uniform(-0.9, 0.9, size=3))
        a = fld_file.at(p, 5)
        b = fld_gen.at(p, 5)
        for i in range(1, 4):
            dev = (a.omega(i) - b.omega(i)).max_abs_value()
            assert dev == 0.0


def test_load_definition_reports_path_in_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("[chart]\ncoords = x y z\n[omega1]\ndx=1\n"
                   "[omega2]\ndy=1\n")
    with pytest.raises(ArityError, match="bad.txt"):
        load_definition(bad)


def test_format_float_and_canonical_json():
    assert format_float(1.0) == "1"
    # 17 significant digits: every float round-trips exactly
    for x in (0.1, math.pi, 1e-300, -2.5e17, math.sinh(0.6)):
        assert float(format_float(x)) == x
    assert format_float(float("nan")) == '"nan"'
    assert format_float(float("-inf")) == '"-inf"'
    text = dumps_canonical({"b": 1.0, "a": (1, 2), "c": [True, None, "x"]})
    # insertion order is preserved, tuples become lists
    assert text.index('"b"') < text.index('"a"') < text.index('"c"')
    assert json.loads(text) == {"b": 1.0, "a": [1, 2], "c": [True, None, "x"]}
    with pytest.raises(TypeError):
        dumps_canonical({"bad": object()})


def test_cli_invariants_on_definition_file(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["invariants", str(DATA / "hyp_ex.txt"), "--points", "6",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["tool"] == "bicontact"
    assert rep["command"] == "invariants"
    assert rep["passed"] is True
    assert rep["histogram"].get("case:case3") == 6
    assert len(rep["records"]) == 6
    for rec in rep["records"]:
        assert abs(rec["C"] - rec["point"][2]) < 1e-9


def test_cli_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["invariants", "eta_frame", "--points", "5", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_explicit_points(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["invariants", "hyp_c3", "--at", "0.1,0.2,0.3", "--out",
               str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert len(rep["records"]) == 1
    assert rep["records"][0]["point"] == [0.1, 0.2, 0.3]


def test_cli_generator_params(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["invariants", "hyp_c3", "--param", "eps=1",
               "--param", "c3=1+z^2", "--points", "4", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["params"] == {"eps": 1, "c3": "1+z^2"}
    assert rep["histogram"] == {"case:case3": 4, "class:hyperbolic": 4}


def test_cli_classify_splits_eta_frame(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["classify", "eta_frame", "--points", "60", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["histogram"].get("elliptic", 0) > 0
    assert rep["histogram"].get("hyperbolic", 0) > 0


def test_cli_curvature_on_torus(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["curvature", "torus_constC", "--points", "4", "--out",
               str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["checks"]
    assert all(c["passed"] for c in rep["checks"])


@pytest.mark.parametrize("source", ["sphere_frame",
                                    str(DATA / "case1_frame.txt")])
def test_cli_curvature_without_leaves_passes(tmp_path, source):
    """A normal covector that is not integrable has no leaves: the leaf
    fields are null and its defect is filed as a residual, not an error."""
    out = tmp_path / "rep.json"
    assert main(["curvature", source, "--points", "3", "--out",
                 str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True and rep["errors"] == []
    for row in rep["records"]:
        assert row["mean_curvature"] is None
        assert row["leaf_curvature"] is None
        assert row["residuals"]["leaf_integrability"] > 1e-8


def test_cli_check_taut_fourdim_example(tmp_path):
    for args in (["check", str(DATA / "hyp_ex.txt"), "--points", "5"],
                 ["taut", "hyp_c3", "--points", "4"],
                 ["taut", "torus_constC", "--points", "4"],
                 ["fourdim", "fourd_enonzero", "--points", "3"],
                 ["example", "sphere_frame", "--points", "4"]):
        out = tmp_path / "rep.json"
        assert main(args + ["--out", str(out)]) == 0, args
        assert json.loads(out.read_text())["passed"] is True


def test_cli_every_builtin_example_passes(tmp_path):
    for name in ("hyp_c3", "torus_constC", "normal_form_3d", "eta_frame",
                 "fourd_ezero", "fourd_enonzero", "sphere_frame"):
        out = tmp_path / f"{name}.json"
        rc = main(["example", name, "--points", "4", "--out", str(out)])
        assert rc == 0, name
        assert json.loads(out.read_text())["passed"] is True


def test_cli_normal_form(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["normal-form", "tan(z)", "--eps", "-1", "--points", "4",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    names = {c["name"] for c in rep["checks"]}
    assert "round_trip_E_equals_w" in names


def test_cli_normal_form_samples_the_given_point(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["normal-form", "z^2", "--at", "0.1,0.2,0.3,0.5",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["at"] == [[0.1, 0.2, 0.3, 0.5]]
    assert [r["point"] for r in rep["records"]] == [[0.1, 0.2, 0.3, 0.5]]


def test_cli_normal_form_span_into_a_pole_is_a_typed_error(tmp_path):
    # tan(z) has a pole at pi/2 inside the span, where the steps shrink
    out = tmp_path / "rep.json"
    assert main(["normal-form", "tan(z)", "--span=-1:2", "--points", "3",
                 "--out", str(out)]) == 1
    (err,) = json.loads(out.read_text())["errors"]
    assert err["type"] == "OdeStepFailure"
    assert "at z=1.57" in err["message"]


def test_cli_import_leaves_scipy_out():
    src = pathlib.Path(bicontact.__file__).resolve().parents[1]
    code = "import sys, bicontact.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_cli_commands_leave_numpy_random_out():
    """The sample draws run without ``numpy.random``; a subprocess, since
    this test process imports it."""
    src = pathlib.Path(bicontact.__file__).resolve().parents[1]
    code = ("import contextlib, io, sys\n"
            "from bicontact.cli import main\n"
            "for argv in (['fourdim', 'fourd_enonzero', '--points', '2'],\n"
            "             ['curvature', 'normal_form_3d', '--points', '2']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 32 - 1, 2 ** 32,
                                  2 ** 64 + 1, 2 ** 128 + 5])
def test_sample_draws_are_numpy_default_rng_streams(seed):
    """``_uniforms`` is the stream of ``np.random.default_rng(seed).random``
    for seeds of 1 to 5 words, and the sampled points are bit-equal to the
    NumPy expression of ``conftest.box_points``."""
    for n in (1, 7, 800):
        assert _uniforms(seed, n) == \
            np.random.default_rng(seed).random(n).tolist(), n
    box = ((-0.9, 0.9), (0.55, 1.9), (-3.0, 3.0))
    cfg = RunConfig(command="check", source="x", points=7, seed=seed)
    assert _sample(cfg, 3, box) == box_points(box, 7, seed)


def test_cli_rejects_a_negative_seed(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["check", "normal_form_3d", "--points", "2", "--seed", "-1",
                 "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["records"] == []
    assert rep["errors"] == [{"stage": "check", "type": "ValueError",
                              "message": "expected non-negative integer"}]


@pytest.mark.parametrize("args,message", [
    (["--at", "0.1,0.2,0.3"], "do not have 4 coordinates"),
    (["--box", "0.1:0.5,0.1:0.5"],
     "--box has 2 components for a 4-coordinate chart"),
], ids=["at", "box"])
def test_cli_normal_form_rejects_samples_off_its_chart(tmp_path, args,
                                                       message):
    out = tmp_path / "rep.json"
    assert main(["normal-form", "z^2", *args, "--out", str(out)]) == 1
    (err,) = json.loads(out.read_text())["errors"]
    assert err["type"] == "ArgumentTypeError"
    assert message in err["message"]


@pytest.mark.parametrize("source", ["fourd_ezero", "fourd_enonzero"])
@pytest.mark.parametrize("command", ["classify", "invariants", "taut"])
def test_cli_3d_commands_reject_4d_charts(tmp_path, command, source):
    out = tmp_path / "rep.json"
    assert main([command, source, "--points", "2", "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["records"] == []
    assert rep["errors"] == [{
        "stage": command, "type": "BicontactError",
        "message": "the 3D pipeline needs a chart with 3 coordinates; "
                   "this one has 4"}]


def test_cli_failure_paths(tmp_path):
    out = tmp_path / "rep.json"
    bad = tmp_path / "bad.txt"
    bad.write_text("[chart]\ncoords = x y z\n[omega1]\ndx=1\n"
                   "[omega2]\ndy=1\n")
    rc = main(["invariants", str(bad), "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert rep["errors"][0]["type"] == "ArityError"

    rc = main(["fourdim", "hyp_c3", "--points", "2", "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())
    assert rep["errors"]


@pytest.mark.parametrize("value", ["0", "inf", "nan"])
@pytest.mark.parametrize("flag", ["--tol-shallow", "--tol-deep"])
def test_cli_rejects_tolerances_that_are_not_positive_and_finite(
        capsys, flag, value):
    rc = main(["invariants", "normal_form_3d", "--points", "1", flag, value])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bicontact: {flag} must be ")


@pytest.mark.parametrize("args", [
    ["invariants", "eta_frame", "--at", "nan,0,0"],
    ["invariants", "eta_frame", "--at", "inf,0,0"],
    ["invariants", "eta_frame", "--box", "nan:1,0:1,0:1"],
    ["normal-form", "tan(z)", "--z0", "nan"],
    ["normal-form", "tan(z)", "--span", "nan:1"],
], ids=["at-nan", "at-inf", "box-nan", "z0-nan", "span-nan"])
def test_cli_rejects_sample_input_that_is_not_finite(capsys, args):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bicontact: {args[2]} ")
    assert captured.err.rstrip().endswith("must be finite")


def test_cli_rejects_a_reversed_span(capsys):
    # a usage error naming --span, not a DomainError blaming z0
    assert main(["normal-form", "tan(z)", "--span=1:-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bicontact: --span LO 1.0 exceeds HI -1.0")
    with pytest.raises(ValueError, match=r"^--span LO 1\.0 exceeds HI -1\.0$"):
        RunConfig("normal-form", "tan(z)",
                  extra=dict(NF_EXTRA, span=(1.0, -1.0)))


def test_cli_normal_form_rejects_param(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["normal-form", "tan(z)", "--param", "psi=1",
                 "--out", str(out)]) == 1
    assert json.loads(out.read_text())["errors"] == [{
        "stage": "normal-form", "type": "ArgumentTypeError",
        "message": "--param only applies to built-in example names"}]


def test_run_rejects_params_of_a_definition_file_as_the_cli_does(tmp_path):
    source = str(DATA / "hyp_ex.txt")
    out = tmp_path / "rep.json"
    assert main(["invariants", source, "--param", "psi=1",
                 "--out", str(out)]) == 1
    rep = run(RunConfig("invariants", source, params={"psi": 1.0}))
    assert rep.errors == [{
        "stage": "invariants", "type": "ArgumentTypeError",
        "message": "--param only applies to built-in example names"}]
    assert rep.to_json() == out.read_text()


NF_EXTRA = {"eps": 1, "z0": 0.0, "span": (-1.2, 1.2),
            "h": (("1", "0"), ("x^2/2", "1"))}


@pytest.mark.parametrize("command, extra", [
    ("normal-form", {}),
    ("normal-form", {k: NF_EXTRA[k] for k in ("eps", "z0", "span")}),
    ("normal-form", dict(NF_EXTRA, order=3)),
    ("invariants", {"span": (0.0, 1.0)}),
], ids=["normal-form-none", "normal-form-without-h", "normal-form-unknown",
        "invariants-span"])
def test_run_config_takes_exactly_the_extra_keys_of_its_command(
        tmp_path, command, extra):
    out = tmp_path / "rep.json"
    assert main(["normal-form", "tan(z)", "--points", "2",
                 "--out", str(out)]) == 0
    rep = run(RunConfig("normal-form", "tan(z)", points=2, extra=NF_EXTRA))
    assert rep.to_json() == out.read_text()
    source = "tan(z)" if command == "normal-form" else "eta_frame"
    with pytest.raises(ValueError, match="extra keys"):
        RunConfig(command, source, extra=extra)


@pytest.mark.parametrize("key, value", [("span", (math.nan, 1.0)),
                                        ("span", (-1.0, math.inf)),
                                        ("z0", math.nan)])
def test_run_config_rejects_a_normal_form_extra_that_is_not_finite(key,
                                                                   value):
    with pytest.raises(ValueError, match=f"^--{key} must be finite$"):
        RunConfig("normal-form", "tan(z)",
                  extra=dict(NF_EXTRA, **{key: value}))


@pytest.mark.parametrize("h, name", [("1,0,x^2/2+z,1", "z"),
                                     ("w,0,x^2/2,1", "w")])
def test_cli_normal_form_h_is_an_expression_in_x_and_y(tmp_path, h, name):
    out = tmp_path / "rep.json"
    assert main(["normal-form", "tan(z)", "--points", "3", "--h", h,
                 "--out", str(out)]) == 1
    assert json.loads(out.read_text())["errors"] == [{
        "stage": "normal-form", "type": "UnknownIdentifier",
        "message": f"unknown identifier {name!r}"}]


def test_parser_registers_exactly_the_command_table():
    # the usage line lists the subcommands in registration order
    usage = build_parser().format_usage()
    assert "{" + ",".join(COMMANDS) + "}" in usage
    assert {command for command, _ in ORDER_NEEDED} <= set(COMMANDS)
    with pytest.raises(ValueError, match="unknown command 'nope'"):
        RunConfig("nope", "hyp_c3")


def test_cli_out_in_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    rc = main(["classify", "normal_form_3d", "--points", "1",
               "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bicontact: cannot write the report: ")
    assert str(out) in captured.err
    assert not out.parent.exists()


def test_nan_residual_fails_its_check():
    summary = summarize_residuals([{"r": 1e-12}, {"r": float("nan")}])
    assert math.isnan(summary["r"]["max"])
    assert not check("r", summary["r"]["max"], 1e-9)["passed"]
    assert math.isnan(nan_max(0.0, 1.0, float("nan"), 2.0))
    assert nan_max(1e-12, 3e-12, 2e-12) == 3e-12


@pytest.mark.parametrize("dz,fn", [("exp(300*y)", "reciprocal"),
                                   ("exp(800*y)", "exp")])
def test_cli_overflow_is_a_typed_error(tmp_path, dz, fn):
    text = (DATA / "case1_frame.txt").read_text()
    src = tmp_path / "overflow.txt"
    src.write_text(text.replace("dz = 1", f'dz = "{dz}"'))
    out = tmp_path / "rep.json"
    rc = main(["invariants", str(src), "--at", "0.3,1.5,0.2",
               "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert rep["errors"][0]["type"] == "DomainError"
    assert rep["errors"][0]["message"].startswith(fn + ":")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_cli_sine_of_infinity_is_a_typed_error(capsys):
    # math.sin raises a bare ValueError at +-inf; the jet's guard names it.
    # 1e200*1e200 overflows in a jet product first, which NumPy warns of
    rc = main(["invariants", "eta_frame", "--points", "3", "--param",
               "f=sin(1e200*1e200*x)"])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is False
    assert [(e["type"], e["message"]) for e in rep["errors"]] == [
        ("DomainError", "sin: argument value inf outside domain")]
