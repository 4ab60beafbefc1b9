"""Hash the report of every command over a fixed sweep of sources and orders.

    python tools/report_sweep.py SWEEP.json            # write {argv: sha256}
    python tools/report_sweep.py --compare A.json B.json
    python tools/report_sweep.py --dump DUMP.json      # write the outputs
    python tools/report_sweep.py --near A.json B.json  # compare two dumps

The sweep runs each command on the built-in examples and both ``tests/data``
definition files, and ``normal-form`` on its profiles, at ``--points 3``,
once at the command's default order and once at each of the orders 2 to 6.
Then it runs the fixed argvs of ``OPTION_ARGVS``, which between them pass
every option of the command line but ``--out``, and the argvs of
``MANY_POINT_ARGVS``, which run at the sample counts of the benchmark's
workloads, on lists of 1 point (built by a one-column pass) and of 2, of 33
and 40 (a block and one column, and two blocks, at the 32 columns blocks
once had; one block each at the 128 of ``forms.STACK_BLOCK``), of 129 (a
full block and one column), and through a point where a frame cannot be
built, adapted or checked, alone and in lists of 3, 12, 40 and 136 points.
A list whose one build fails is built by halves, into whichever half
raises, down to the failing point; a block whose stacked pass fails runs
again as its two halves the same way.  The stages that decide over the whole
region, ``taut`` on both branches, ``check``, ``classify`` and the Cartan
check of ``example sphere_frame``, run on 33 and 40 points, ``taut`` on two
40-point lists whose 35th point has |C| = 1 or flips the sign branch and on
a 136-point list whose 131st point, past the first block, has |C| = 1, and
``taut``, ``check``, ``classify`` and ``curvature`` on 129 points.
Last come the argvs of ``SURFACE_ARGVS``: the top-level help, each
command's help, no arguments, an unknown command and a missing source, a bad
``--points`` value and an unknown option, each of which ends in argparse;
``COLUMNS`` is pinned to 80, so the width of help text does not depend on
the terminal.
Every run goes through ``bicontact.cli.main`` in this process, from the
checkout that holds this script (its ``src/`` comes first on the path), with
the checkout as the working directory, since a report echoes its source
path.  A key is the argv joined by spaces; a value is the SHA-256 of the
bytes the command printed on stdout, its exit status and what it printed on
stderr (``digest``), so a changed status or usage message shows even where
the report does not.  A warning prints there as its category and message,
without the file and line that name the checkout, and each argv prints the
warnings it raises whatever ran before it.  ``--compare`` prints each key whose digest differs or
that only one file has, and exits 1 when there is any.  Digests of two
checkouts compare only when the same version of this script made both.

``--dump`` writes each argv's stdout, exit status and stderr in full in
place of the digest.  ``--near`` compares two dumps: keys, strings, bools,
exit statuses and stderr must match exactly, and the numbers of two JSON
reports within ``NEAR_TOL`` max(1, |a|, |b|), a JSON int and a float alike;
it prints the worst such deviation of each argv whose output differs, and
exits 1 when any entry differs otherwise or beyond the tolerance.  A
pinned report digest moves only with such a comparison listed beside it in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import pathlib
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = ["tests/data/case1_frame.txt", "tests/data/hyp_ex.txt"]
PROFILES = ["tan(z)", "z^2"]
ORDERS = [None, 2, 3, 4, 5, 6]
OPTION_ARGVS = [
    # --param on each example that takes parameters, and on a file (exit 1)
    ["example", "hyp_c3", "--points", "3", "--param", "eps=1",
     "--param", "c3=1+z^2"],
    ["example", "torus_constC", "--points", "3", "--param", "psi=0.5",
     "--param", "Psi=2*z"],
    ["invariants", "normal_form_3d", "--points", "3", "--param", "eps=-1",
     "--param", "f=sin(x)", "--param", "g=x"],
    ["classify", "eta_frame", "--points", "3", "--param", "f=x"],
    ["invariants", FILES[1], "--points", "3", "--param", "eps=1"],
    # sin of an infinite argument is a DomainError, not math's ValueError
    ["invariants", "eta_frame", "--points", "3", "--param",
     "f=sin(1e200*1e200*x)"],
    # sampling and tolerances
    ["check", "sphere_frame", "--at", "1,0.5,0.2", "--at", "2,-1,1"],
    ["taut", "hyp_c3", "--points", "3", "--box=-0.5:0.5,-0.5:0.5,-0.5:0.5"],
    ["curvature", "torus_constC", "--points", "3", "--seed", "7"],
    # seeds of 1, 2, 3 and 5 32-bit words, and a negative one (exit 1)
    ["classify", "eta_frame", "--points", "3", "--seed", "0"],
    ["fourdim", "fourd_enonzero", "--points", "2", "--seed", "4294967296"],
    ["invariants", "normal_form_3d", "--points", "3",
     "--seed", "18446744073709551617"],
    ["taut", "hyp_c3", "--points", "3",
     "--seed", "340282366920938463463374607431768211461"],
    ["check", "normal_form_3d", "--points", "3", "--seed", "-1"],
    ["fourdim", "fourd_ezero", "--points", "2", "--tol-shallow", "1e-12",
     "--tol-deep", "1e-9"],
    # the four options of normal-form
    ["normal-form", "tan(z)", "--points", "3", "--eps", "-1"],
    ["normal-form", "z^2", "--points", "3", "--z0", "0.3", "--span=-1:1"],
    ["normal-form", "tan(z)", "--points", "3", "--h", "1,0,x^2/2+y,1"],
    ["normal-form", "tan(z)", "--points", "3", "--h", "1,0,x^2/2+z,1"],
    # a usage error (exit 2) and the version
    ["normal-form", "tan(z)", "--span", "nan:1"],
    ["--version"],
]


MANY_POINT_ARGVS = [
    # the sample counts of the benchmark's workloads
    ["curvature", "normal_form_3d", "--points", "60"],
    ["invariants", FILES[0], "--points", "60"],
    ["fourdim", "fourd_enonzero", "--points", "18"],
    ["normal-form", "tan(z)", "--order", "3", "--points", "200"],
    # the shortest many-point list, on the case-2 path (order 6) and the
    # case-1 path (order 5)
    ["curvature", "normal_form_3d", "--points", "2"],
    ["invariants", FILES[0], "--points", "2"],
    # one-point lists, each built by a one-column pass as a stack of one
    ["curvature", "normal_form_3d", "--points", "1"],
    ["invariants", FILES[0], "--points", "1"],
    ["fourdim", "fourd_enonzero", "--points", "1"],
    ["normal-form", "tan(z)", "--points", "1"],
    # ln(y) leaves its domain at the second point only (exit 1): alone, and
    # on lists of 3 and 12 points, whose one many-point build fails
    ["invariants", "normal_form_3d", "--at", "0.5,-1.0,0.1"],
    ["invariants", "normal_form_3d", "--at", "0.5,1.0,0.1",
     "--at", "0.5,-1.0,0.1", "--at", "0.5,1.2,0.2"],
    ["invariants", "normal_form_3d", "--at", "0.5,1.0,0.1",
     "--at", "0.5,-1.0,0.1", "--at", "0.5,1.2,0.2", "--at", "0.3,0.6,0.3",
     "--at", "0.4,0.7,-0.4", "--at", "0.6,0.8,0.5", "--at", "0.7,0.9,-0.6",
     "--at", "0.3,1.3,0.7", "--at", "0.4,1.5,-0.8", "--at", "0.6,1.7,0.2",
     "--at", "0.5,1.8,-0.1", "--at", "0.3,1.1,0.0"],
    # det h = x is 0 at the seventh of 12 points only (exit 1)
    ["normal-form", "tan(z)", "--h", "x,0,0,1", "--at", "0.1,0.2,0.3,1.1",
     "--at", "0.2,-0.3,0.4,1.2", "--at", "0.3,0.4,-0.5,1.3",
     "--at", "0.4,-0.5,0.6,1.4", "--at", "0.5,0.6,-0.7,1.5",
     "--at", "0.6,-0.7,0.8,1.6", "--at", "0,0.5,0.5,0.5",
     "--at", "0.3,0.1,-0.3,0.3", "--at", "0.4,-0.2,0.4,0.4",
     "--at", "0.5,0.3,-0.5,0.5", "--at", "0.6,-0.4,0.6,0.6",
     "--at", "0.7,0.5,-0.7,0.7"],
    # 33 points, and det h = x is 0 at the 35th of 40 points only (exit 1),
    # after 34 rows
    ["normal-form", "tan(z)", "--order", "3", "--points", "33"],
    ["normal-form", "tan(z)", "--h", "x,0,0,1", *(
        f"--at={0 if k == 34 else 0.02 * (k + 1):g},0.3,{0.05 * k - 1:g},1.2"
        for k in range(40))],
    # the stacked 4D and 3D curvature tails on 33 and 40 points; the volume
    # is 0 at y = 0, the 35th of 40 fourdim points only (exit 1), after 34
    # rows
    ["curvature", "fourd_enonzero", "--points", "33"],
    ["curvature", "normal_form_3d", "--points", "40"],
    ["fourdim", "fourd_enonzero", *(
        f"--at={0.3 + 0.02 * k:g},{0 if k == 34 else 0.5 + 0.02 * k:g},"
        f"{0.04 * k - 0.8:g},0.1" for k in range(40))],
    # the stacked 3D pipeline: the case-1 path on 40 points and the case-2
    # path on 33; omega1 ^ d omega1 = sin(theta) vanishes at the 35th of 40
    # sphere_frame points only, whose raw frame builds, so one_adapt fails
    # there (exit 1)
    ["invariants", FILES[0], "--points", "40"],
    ["invariants", "eta_frame", "--points", "33"],
    ["invariants", "sphere_frame", *(
        f"--at={0 if k == 34 else 0.3 + 0.06 * k:g},{0.15 * k - 3:g},"
        f"{0.1 * k - 2:g}" for k in range(40))],
    # the region-wide stages on stacked blocks: taut (circle and hyperbola
    # branches), the 3D check, classify and the Cartan check of
    # sphere_frame, on 33 points and on 40
    *([command, source, *extra, "--points", count]
      for count in ("33", "40")
      for command, source, *extra in (
          ("taut", "hyp_c3"), ("taut", "hyp_c3", "--param", "eps=1"),
          ("check", "normal_form_3d"), ("classify", "normal_form_3d"),
          ("example", "sphere_frame"))),
    # C = z is 1 at the 35th of 40 taut points only, where the circle
    # transform is undefined (exit 1); z crosses 1 at the 35th of 40, so
    # the (1+C, 1-C) branch flips there (exit 1)
    ["taut", "hyp_c3", *(
        f"--at={0.02 * k - 0.4:g},0.3,{1 if k == 34 else 0.02 * k:g}"
        for k in range(40))],
    ["taut", "hyp_c3", *(
        f"--at={0.02 * k - 0.4:g},0.3,{0.02 * k + 0.33:g}"
        for k in range(40))],
    # at the block boundary: 129 points end in a block of one column; C = z
    # is 1 at the 131st of 136 taut points only (exit 1), past the first
    # block
    *([command, source, "--points", "129"] for command, source in (
        ("taut", "hyp_c3"), ("check", "normal_form_3d"),
        ("classify", "normal_form_3d"), ("curvature", "normal_form_3d"))),
    ["taut", "hyp_c3", *(
        f"--at={0.005 * k - 0.3:g},0.3,{1 if k == 130 else 0.005 * k:g}"
        for k in range(136))],
]


# what argparse prints on its own: help, and usage errors (exit 2), from the
# top level and from a command's subparser
SURFACE_ARGVS = [
    ["--help"],
    *([command, "--help"] for command in (
        "check", "invariants", "classify", "taut", "curvature", "fourdim",
        "example", "normal-form")),
    [],
    ["nope", "hyp_c3"],
    ["invariants"],
    ["invariants", "eta_frame", "--points", "x"],
    ["invariants", "eta_frame", "--bogus"],
]


def sweep_argvs(commands, examples):
    for command in commands:
        sources = PROFILES if command == "normal-form" else examples + FILES
        for source in sources:
            for order in ORDERS:
                extra = [] if order is None else ["--order", str(order)]
                yield [command, source, "--points", "3", *extra]


def digest(stdout: str, status: int, stderr: str = "") -> str:
    """SHA-256 of what a command printed on stdout, then a line with its exit
    status, then what it printed on stderr."""
    return hashlib.sha256(
        f"{stdout}\nexit {status}\n{stderr}".encode()).hexdigest()


def _show_warning(message, category, filename, lineno, file=None,
                  line=None):
    # category and message only: the file and line name the checkout
    sys.stderr.write(f"{category.__name__}: {message}\n")


def run_sweep() -> dict:
    """{argv: (stdout, exit status, stderr)} of every argv of the sweep.  A
    warning prints as its category and message, without the file and line
    that issued it, so the digests of two checkouts compare, and each argv
    runs under a fresh warning filter state, so it prints the warnings it
    raises whatever ran before it."""
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    from bicontact import cli
    from bicontact.examples import EXAMPLES

    commands = sorted({command for command, _ in cli.ORDER_NEEDED})
    out = {}
    for argv in [*sweep_argvs(commands, sorted(EXAMPLES)), *OPTION_ARGVS,
                 *MANY_POINT_ARGVS, *SURFACE_ARGVS]:
        buf, err = io.StringIO(), io.StringIO()
        with redirect_stdout(buf), redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.showwarning = _show_warning
            try:
                status = cli.main(argv)
            except SystemExit as exc:      # argparse exits by itself
                status = exc.code
        out[" ".join(argv)] = buf.getvalue(), status, err.getvalue()
    return out


def compare(a: dict, b: dict) -> list:
    """Keys whose digests differ or that only one sweep has, sorted."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


NEAR_TOL = 1e-9


def deviation(a, b):
    """The largest |x - y| / max(1, |x|, |y|) over the numbers x, y at one
    place in two JSON values, or None where the values differ otherwise:
    in keys, lengths, strings, bools or nulls, a number against anything
    else, or a non-finite number against another value.  A JSON int and a
    float compare alike."""
    if isinstance(a, bool) or isinstance(b, bool):
        return 0.0 if a is b else None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        if not (math.isfinite(a) and math.isfinite(b)):
            return None
        return abs(a - b) / max(1.0, abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        parts = [deviation(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        parts = [deviation(x, y) for x, y in zip(a, b)]
    else:
        return 0.0 if a == b else None
    return None if None in parts else max(parts, default=0.0)


def _json_or_text(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def near(a: dict, b: dict) -> dict:
    """{key: worst deviation} of the entries of two dumps whose outputs
    differ, None where they differ beyond ``deviation``'s numbers or only
    one dump has the key."""
    out = {}
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            out[key] = None
        elif a[key] != b[key]:
            ea, eb = a[key], b[key]
            same = (ea["status"] == eb["status"]
                    and ea["stderr"] == eb["stderr"])
            out[key] = deviation(_json_or_text(ea["stdout"]),
                                 _json_or_text(eb["stdout"])) if same else None
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", nargs="?", help="write the sweep's digests here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="print the entries that differ between two sweeps")
    p.add_argument("--dump", metavar="FILE",
                   help="write each argv's stdout, exit status and stderr")
    p.add_argument("--near", nargs=2, metavar=("A", "B"),
                   help="compare two dumps, numbers within NEAR_TOL")
    args = p.parse_args(argv)
    if args.near:
        a, b = (json.loads(pathlib.Path(f).read_text()) for f in args.near)
        diff = near(a, b)
        for key, dev in diff.items():
            print(f"{key}\n  " + ("DIFFERS" if dev is None
                                  else f"worst deviation {dev:.3g}"))
        bad = [k for k, dev in diff.items() if dev is None or dev > NEAR_TOL]
        worst = max((d for d in diff.values() if d is not None), default=0.0)
        print(f"{len(diff)} of {len(a.keys() | b.keys())} entries differ, "
              f"{len(bad)} beyond {NEAR_TOL:g}; worst deviation {worst:.3g}")
        return 1 if bad else 0
    if args.dump:
        out = pathlib.Path(args.dump).resolve()
        outputs = run_sweep()
        out.write_text(json.dumps(
            {key: {"stdout": o, "status": s, "stderr": e}
             for key, (o, s, e) in outputs.items()},
            indent=1, sort_keys=True) + "\n")
        print(f"{len(outputs)} outputs dumped into {out}")
        return 0
    if args.compare:
        a, b = (json.loads(pathlib.Path(f).read_text()) for f in args.compare)
        diff = compare(a, b)
        for key in diff:
            print(f"{key}\n  A {a.get(key)}\n  B {b.get(key)}")
        print(f"{len(diff)} of {len(a.keys() | b.keys())} entries differ")
        return 1 if diff else 0
    if not args.out:
        p.error("give an output file, --dump FILE, --compare A B or "
                "--near A B")
    out = pathlib.Path(args.out).resolve()
    digests = {key: digest(*output) for key, output in run_sweep().items()}
    out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} reports hashed into {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
