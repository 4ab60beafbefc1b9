"""tools/report_sweep.py: the argv list of the sweep and the comparison of
two sweeps.  No command runs here."""

import argparse
import importlib.util
import json
import math
import pathlib
from collections import Counter

import pytest

from bicontact import cli, forms
from bicontact.examples import EXAMPLES

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = {"tests/data/case1_frame.txt", "tests/data/hyp_ex.txt"}
ORDERS = {()} | {("--order", str(n)) for n in range(2, 7)}

_spec = importlib.util.spec_from_file_location(
    "report_sweep", ROOT / "tools" / "report_sweep.py")
report_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_sweep)


def test_sweep_covers_every_command_source_and_order():
    commands = sorted({command for command, _ in cli.ORDER_NEEDED})
    argvs = list(report_sweep.sweep_argvs(commands, sorted(EXAMPLES)))
    assert len(argvs) == 390
    assert len({" ".join(argv) for argv in argvs}) == 390
    assert {argv[0] for argv in argvs} == set(commands)
    assert all(argv[2:4] == ["--points", "3"] for argv in argvs)
    assert {tuple(argv[4:]) for argv in argvs} == ORDERS
    sources = {argv[1] for argv in argvs if argv[0] != "normal-form"}
    assert sources == set(EXAMPLES) | FILES and len(sources) == 9
    assert all((ROOT / f).is_file() for f in FILES)
    # each (command, source) pair runs at the default order and at 2..6
    pairs = Counter((argv[0], argv[1]) for argv in argvs)
    assert set(pairs.values()) == {len(ORDERS)}
    assert len(pairs) == 7 * 9 + 2


def _flags(parser) -> set:
    """Every long option of ``parser`` and of its subcommands."""
    out = set()
    for action in parser._actions:
        out.update(s for s in action.option_strings if s.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _flags(sub)
    return out


def test_option_argvs_pass_every_flag_but_out():
    commands = sorted({command for command, _ in cli.ORDER_NEEDED})
    grid = list(report_sweep.sweep_argvs(commands, sorted(EXAMPLES)))
    options = [" ".join(argv) for argv in report_sweep.OPTION_ARGVS
               + report_sweep.MANY_POINT_ARGVS + report_sweep.SURFACE_ARGVS]
    assert len(set(options)) == len(options)
    assert not {" ".join(argv) for argv in grid} & set(options)
    # --order comes from the grid, every other flag from OPTION_ARGVS
    used = {word.split("=")[0]
            for argv in grid + report_sweep.OPTION_ARGVS
            for word in argv if word.startswith("--")}
    missing = _flags(cli.build_parser()) - {"--out", "--help"} - used
    assert not missing, f"flags without a sweep entry: {sorted(missing)}"


def test_surface_argvs_cover_help_and_usage_errors():
    argvs = report_sweep.SURFACE_ARGVS
    assert len(report_sweep.OPTION_ARGVS) == 21
    assert len(report_sweep.MANY_POINT_ARGVS) == 39
    assert len(argvs) == 14
    # the top-level help, each command's help in --help order, no
    # arguments, an unknown command, a missing source, a bad --points value
    # and an unknown option
    assert argvs[0] == ["--help"]
    assert [argv[0] for argv in argvs[1:9]] == list(cli.COMMANDS)
    assert all(argv[1:] == ["--help"] for argv in argvs[1:9])
    assert argvs[9:] == [[], ["nope", "hyp_c3"], ["invariants"],
                         ["invariants", "eta_frame", "--points", "x"],
                         ["invariants", "eta_frame", "--bogus"]]
    assert "nope" not in cli.COMMANDS


def test_compare_reports_changed_and_one_sided_keys(tmp_path, capsys):
    a = {"kept": "1", "changed": "2", "only in a": "3"}
    b = {"kept": "1", "changed": "9", "only in b": "4"}
    assert report_sweep.compare(a, b) == ["changed", "only in a", "only in b"]
    assert report_sweep.compare(a, dict(a)) == []
    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    fa.write_text(json.dumps(a))
    fb.write_text(json.dumps(b))
    assert report_sweep.main(["--compare", str(fa), str(fb)]) == 1
    assert "3 of 4 entries differ" in capsys.readouterr().out
    assert report_sweep.main(["--compare", str(fa), str(fa)]) == 0
    assert "0 of 3 entries differ" in capsys.readouterr().out


def _dump(stdout, status=0, stderr=""):
    return {"stdout": stdout, "status": status, "stderr": stderr}


def test_deviation_compares_numbers_and_nothing_else():
    dev = report_sweep.deviation
    a = {"passed": True, "value": 2.0, "n": 3, "rows": [0.5, "x", None]}
    assert dev(a, json.loads(json.dumps(a))) == 0.0
    # relative to max(1, |a|, |b|); a JSON int and a float alike
    assert dev(a, {**a, "value": 2.0 + 4e-9}) == pytest.approx(2e-9)
    assert dev({"v": 1e-3}, {"v": 2e-3}) == pytest.approx(1e-3)
    assert dev({"n": 3}, {"n": 3.0}) == 0.0
    assert dev([math.nan, math.inf], [math.nan, math.inf]) == 0.0
    for other in ({**a, "passed": False}, {**a, "passed": 1},
                  {**a, "rows": [0.5, "y", None]}, {**a, "rows": [0.5, "x"]},
                  {**a, "rows": [0.5, "x", 0.0]}, {**a, "value": math.nan},
                  {**a, "value": math.inf}, {**a, "extra": 1}, "text"):
        assert dev(a, other) is None, other


def test_near_fails_on_anything_but_close_numbers(tmp_path, capsys):
    report = json.dumps({"passed": True, "value": 1.0})
    a = {"same": _dump(report), "close": _dump(report),
         "far": _dump(report), "status": _dump(report, 1),
         "stderr": _dump("", 2, "usage\n"), "text": _dump("bicontact 0.1\n"),
         "only in a": _dump(report)}
    b = {**a, "close": _dump(report.replace("1.0", "1.0000000005")),
         "far": _dump(report.replace("1.0", "1.00000001")),
         "status": _dump(report, 0), "stderr": _dump("", 2, "usage:\n"),
         "text": _dump("bicontact 0.2\n")}
    del b["only in a"]
    diff = report_sweep.near(a, b)
    assert diff["close"] == pytest.approx(5e-10)
    assert diff["far"] == pytest.approx(1e-8)
    assert [k for k, d in diff.items() if d is None] == [
        "only in a", "status", "stderr", "text"]
    assert "same" not in diff
    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    fa.write_text(json.dumps(a))
    fb.write_text(json.dumps(b))
    assert report_sweep.main(["--near", str(fa), str(fb)]) == 1
    out = capsys.readouterr().out
    assert "close\n  worst deviation 5e-10\n" in out
    assert "6 of 7 entries differ, 5 beyond 1e-09" in out
    fb.write_text(json.dumps({**a, "close": b["close"]}))
    assert report_sweep.main(["--near", str(fa), str(fb)]) == 0
    assert "1 of 7 entries differ, 0 beyond 1e-09; worst deviation 5e-10" \
        in capsys.readouterr().out


def test_dump_writes_each_output_in_full(tmp_path, monkeypatch):
    outputs = {"check x": ('{"passed": true}\n', 0, ""),
               "nope": ("", 2, "usage\n")}
    monkeypatch.setattr(report_sweep, "run_sweep", lambda: outputs)
    path = tmp_path / "dump.json"
    assert report_sweep.main(["--dump", str(path)]) == 0
    assert json.loads(path.read_text()) == {
        key: _dump(*out) for key, out in outputs.items()}
    digests = tmp_path / "digests.json"
    assert report_sweep.main([str(digests)]) == 0
    assert json.loads(digests.read_text()) == {
        key: report_sweep.digest(*out) for key, out in outputs.items()}


def test_digest_folds_in_the_exit_status():
    report = '{"passed": true}\n'
    kept = report_sweep.digest(report, 0)
    assert kept == report_sweep.digest(report, 0)
    assert len(kept) == 64 and int(kept, 16) >= 0
    # the same report under another status, and another report under the
    # same status, each give another digest
    assert report_sweep.digest(report, 1) != kept
    assert report_sweep.digest(report.replace("true", "false"), 0) != kept


def test_digest_folds_in_stderr():
    # a usage error prints nothing on stdout; its message goes to stderr
    quiet = report_sweep.digest("", 2)
    assert report_sweep.digest("", 2, "") == quiet
    assert report_sweep.digest("", 2, "bicontact: bad --span\n") != quiet


def test_each_argv_prints_its_warnings_without_the_checkout_path(
        monkeypatch):
    # sin of an infinite argument overflows a jet product first, whose
    # RuntimeWarning would name the file and line of jets.py; the second
    # argv raises the same warnings from the same lines, which a filter
    # state shared with the first would print once only
    argv = ["invariants", "eta_frame", "--points", "3", "--param",
            "f=sin(1e200*1e200*x)"]
    monkeypatch.setattr(report_sweep, "sweep_argvs", lambda *args: [])
    for name in ("MANY_POINT_ARGVS", "SURFACE_ARGVS"):
        monkeypatch.setattr(report_sweep, name, [])
    monkeypatch.setattr(report_sweep, "OPTION_ARGVS",
                        [argv, [*argv[:3], "4", *argv[4:]]])
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    outputs = report_sweep.run_sweep().values()
    # the DomainError that follows is a failed check
    assert [(status, stderr.splitlines()) for _, status, stderr in outputs] \
        == [(1, ["RuntimeWarning: overflow encountered in multiply",
                 "RuntimeWarning: invalid value encountered in multiply"])] * 2


def test_many_point_argvs_match_the_benchmark_sizes():
    # the benchmark's sample counts; 2 points, the shortest many-point
    # list, on the case-2 and case-1 paths; one-point lists of each
    # workload's command, built by a one-column pass; 33 normal-form, 4D
    # curvature and case-2 invariants points and 40 3D curvature and case-1
    # invariants points, a block and one column and two blocks at blocks of
    # 32; and 129 points of the region-wide stages and the 3D curvature,
    # whose last block of forms.STACK_BLOCK has one column
    sizes = [(*argv[:2], argv[argv.index("--points") + 1])
             for argv in report_sweep.MANY_POINT_ARGVS if "--points" in argv]
    assert sizes == [("curvature", "normal_form_3d", "60"),
                     ("invariants", "tests/data/case1_frame.txt", "60"),
                     ("fourdim", "fourd_enonzero", "18"),
                     ("normal-form", "tan(z)", "200"),
                     ("curvature", "normal_form_3d", "2"),
                     ("invariants", "tests/data/case1_frame.txt", "2"),
                     ("curvature", "normal_form_3d", "1"),
                     ("invariants", "tests/data/case1_frame.txt", "1"),
                     ("fourdim", "fourd_enonzero", "1"),
                     ("normal-form", "tan(z)", "1"),
                     ("normal-form", "tan(z)", "33"),
                     ("curvature", "fourd_enonzero", "33"),
                     ("curvature", "normal_form_3d", "40"),
                     ("invariants", "tests/data/case1_frame.txt", "40"),
                     ("invariants", "eta_frame", "33"),
                     *((command, source, count) for count in ("33", "40")
                       for command, source in (
                           ("taut", "hyp_c3"), ("taut", "hyp_c3"),
                           ("check", "normal_form_3d"),
                           ("classify", "normal_form_3d"),
                           ("example", "sphere_frame"))),
                     *((command, source, str(forms.STACK_BLOCK + 1))
                       for command, source in (
                           ("taut", "hyp_c3"), ("check", "normal_form_3d"),
                           ("classify", "normal_form_3d"),
                           ("curvature", "normal_form_3d")))]
    assert [argv[2:4] for argv in report_sweep.MANY_POINT_ARGVS
            if "--param" in argv] == [["--param", "eps=1"]] * 2
    assert all((ROOT / argv[1]).is_file() or argv[1] in EXAMPLES
               or argv[1] in report_sweep.PROFILES
               for argv in report_sweep.MANY_POINT_ARGVS)
    # the failing --at lists: one point, whose build raises its own error,
    # and lists whose one many-point build fails, of 3 and 12 points, and
    # five of 40 points that fail at the 35th, a normal-form, a fourdim and
    # a 3D invariants one, whose 35th frame builds but fails its
    # one-adaptation, and two taut ones, whose 35th point has |C| = 1 or
    # flips the branch of the region; and a taut list of 136 points whose
    # 131st point, past the first block of forms.STACK_BLOCK, has |C| = 1
    sizes = sorted(sum(word.split("=")[0] == "--at" for word in argv)
                   for argv in report_sweep.MANY_POINT_ARGVS)
    assert sizes == [0] * 29 + [1, 3, 12, 12, 40, 40, 40, 40, 40, 136]
    assert [argv[:2] for argv in report_sweep.MANY_POINT_ARGVS
            if len(argv) > 40] == [["normal-form", "tan(z)"],
                                   ["fourdim", "fourd_enonzero"],
                                   ["invariants", "sphere_frame"],
                                   ["taut", "hyp_c3"], ["taut", "hyp_c3"],
                                   ["taut", "hyp_c3"]]
    (longest,) = [argv for argv in report_sweep.MANY_POINT_ARGVS
                  if len(argv) > 136]
    assert [word.endswith(",1") for word in longest[2:]].index(True) \
        >= forms.STACK_BLOCK
