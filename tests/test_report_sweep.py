"""tools/report_sweep.py: the argv list of the sweep and the comparison of
two sweeps.  No command runs here."""

import argparse
import importlib.util
import json
import pathlib
from collections import Counter

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
    assert len(report_sweep.OPTION_ARGVS) == 20
    assert len(report_sweep.MANY_POINT_ARGVS) == 34
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


def test_many_point_argvs_match_the_benchmark_sizes():
    # the benchmark's sample counts; 2 points, the shortest many-point
    # list, on the case-2 and case-1 paths; one-point lists of each
    # workload's command, built by a one-column pass; 33 normal-form, 4D
    # curvature and case-2 invariants points, whose last block of
    # forms.STACK_BLOCK has one column, and 40 3D curvature and case-1
    # invariants points, which span two blocks
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
                           ("example", "sphere_frame")))]
    assert [argv[2:4] for argv in report_sweep.MANY_POINT_ARGVS
            if "--param" in argv] == [["--param", "eps=1"]] * 2
    assert forms.STACK_BLOCK == 32
    assert all((ROOT / argv[1]).is_file() or argv[1] in EXAMPLES
               or argv[1] in report_sweep.PROFILES
               for argv in report_sweep.MANY_POINT_ARGVS)
    # the failing --at lists: one point, whose build raises its own error,
    # and lists whose one many-point build fails, of 3 and 12 points, and
    # five past the first block of forms.STACK_BLOCK, a normal-form, a
    # fourdim and a 3D invariants one, whose 35th frame builds but fails
    # its one-adaptation, and two taut ones, whose 35th point has |C| = 1
    # or flips the branch of the region
    sizes = sorted(sum(word.split("=")[0] == "--at" for word in argv)
                   for argv in report_sweep.MANY_POINT_ARGVS)
    assert sizes == [0] * 25 + [1, 3, 12, 12, 40, 40, 40, 40, 40]
    assert [argv[:2] for argv in report_sweep.MANY_POINT_ARGVS
            if len(argv) > 40] == [["normal-form", "tan(z)"],
                                   ["fourdim", "fourd_enonzero"],
                                   ["invariants", "sphere_frame"],
                                   ["taut", "hyp_c3"], ["taut", "hyp_c3"]]
