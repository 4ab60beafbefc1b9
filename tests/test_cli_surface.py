"""``main`` parses a command with that command's subparser alone; what it
prints must be what the full parser prints: each command's help, usage
errors, and the top level, which keeps all eight commands."""

import sys

import pytest

from bicontact import cli
from bicontact.cli import COMMANDS, build_parser, main

LISTED = "{" + ",".join(COMMANDS) + "}"


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    # argparse wraps help to the terminal width
    monkeypatch.setenv("COLUMNS", "80")


def _exit(call, argv, capsys):
    """(stdout, stderr, exit status) of a call that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        call(argv)
    printed = capsys.readouterr()
    return printed.out, printed.err, exc.value.code


def _full(argv, capsys):
    return _exit(build_parser().parse_args, argv, capsys)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_help_is_the_full_parsers(command, capsys):
    argv = [command, "--help"]
    full = _full(argv, capsys)
    assert full[0].startswith(f"usage: bicontact {command} [-h] ")
    assert full[2] == 0
    assert _exit(main, argv, capsys) == full
    assert _exit(build_parser([command]).parse_args, argv, capsys) == full


@pytest.mark.parametrize("argv", [
    ["invariants", "eta_frame", "--points", "x"],
    ["invariants", "eta_frame", "--bogus"],
    ["invariants", "eta_frame", "extra"],
    ["invariants"],
    ["normal-form", "tan(z)", "--eps", "2"],
], ids=["bad-points", "unknown-option", "extra-argument", "missing-source",
        "bad-choice"])
def test_usage_errors_are_the_full_parsers(argv, capsys):
    full = _full(argv, capsys)
    assert full[0] == "" and full[2] == 2
    assert full[1].startswith("usage: bicontact ")
    assert _exit(main, argv, capsys) == full


def test_an_unknown_option_prints_the_top_level_usage(capsys):
    # argparse reports what a subparser leaves over from the top level
    _, err, _ = _exit(main, ["classify", "eta_frame", "--bogus"], capsys)
    assert LISTED in err
    assert err.endswith("bicontact: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], [], ["nope"]],
                         ids=["help", "version", "no-arguments", "unknown"])
def test_the_top_level_is_the_full_parsers(argv, capsys):
    full = _full(argv, capsys)
    assert _exit(main, argv, capsys) == full
    if argv != ["--version"]:
        shown = full[0] + full[1]
        assert LISTED in shown
        assert all(name in shown for name in COMMANDS)


def test_the_full_parser_names_the_command_argument(capsys):
    assert _full([], capsys)[1].endswith(
        "error: the following arguments are required: command\n")
    assert "argument command: invalid choice: 'nope'" in _full(
        ["nope"], capsys)[1]


def test_a_run_builds_only_its_commands_subparser(monkeypatch, tmp_path):
    added = []
    add_common = cli._add_common

    def counted(sp, command, source_help):
        added.append(command)
        add_common(sp, command, source_help)

    monkeypatch.setattr(cli, "_add_common", counted)
    out = tmp_path / "rep.json"
    # argv=None reads the command line
    monkeypatch.setattr(sys, "argv", [
        "bicontact", "classify", "normal_form_3d", "--points", "1",
        "--out", str(out)])
    assert main() == 0
    assert added == ["classify"]
    assert out.is_file()
    added.clear()
    build_parser()
    assert added == list(COMMANDS)
