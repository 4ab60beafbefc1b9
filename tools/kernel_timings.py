"""Time the sums of products at the shapes the benchmark workloads run.

    python tools/kernel_timings.py              # a table per workload
    python tools/kernel_timings.py --json OUT   # the same rows as JSON

Each workload of ``perfbench/run.py`` runs once, at its seed-42 argv, with
``jets._convolve``, the one entry every product sums through, wrapped to
keep the operands of the first call of each shape, one point (the Taylor
steps of ``fourdim.solve_q``) or many.  A shape is the plan's kind (a jet
product, a series step or a form plan of many terms), its weights (pairs,
times terms for a form plan) and its points.  Each kept call is then timed
on its own operands, three ways: with ``jets.FLAT_PRODUCT_MAX`` as it is
(the path ``_convolve`` chooses), with every sum binned flat, and with
every sum taken by rank groups (``jets._rank_sums``, in its chunks of
``FLAT_PRODUCT_MAX`` weights x points).  A row gives the kind, the weights,
the points, weights x points, the number of such calls in the command, and
the microseconds per call of each way, the best of ``REPEAT`` timings of
``NUMBER`` calls.  The calls run on one core, in this process.

Each row's times are referred to the speed of the machine, as
``perfbench/run.py`` refers its command times: ``perfbench/child.py``'s
reference loop is timed just before and just after the row, and every time
is scaled by ``REF_NOMINAL_S`` over the mean of the two.  A slow spell of a
shared machine, which lasts seconds, slows the loop and the row alike, so
it drops out of the table; a stall shorter than a row's timings can still
move that row alone.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import sys
import timeit

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from bicontact import cli, forms, jets  # noqa: E402
from child import reference_s  # noqa: E402
from run import REF_NOMINAL_S, WORKLOADS, cli_args  # noqa: E402

WAYS = {"chosen": None, "flat": float("inf"), "grouped": 0}
NUMBER, REPEAT = 20, 5


def record(argv):
    """{(kind, weights, points): [calls, args]} of the sums that ``argv``
    runs, with the arguments of the first call of each shape."""
    shapes = {}
    convolve = jets._convolve

    def wrapped(x, y, plan):
        entry = shapes.setdefault(
            (kind(plan), len(plan.T), x.shape[1]),
            # a series step overwrites its operands afterwards
            [0, (x.copy(), y.copy(), plan)])
        entry[0] += 1
        return convolve(x, y, plan)

    jets._convolve = wrapped
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    finally:
        jets._convolve = convolve
    return shapes


def kind(plan) -> str:
    """Which product ``plan`` sums: a form plan, or of jets a product, whose
    first pair is that of the two constant monomials, or a series step,
    which pairs no constant first monomial."""
    if isinstance(plan, forms._Products):
        return "form plan"
    return "jet product" if plan.I[0] == 0 else "series step"


def time_call(kernel, args, limit):
    """Seconds per call of ``kernel(*args)`` with the path limit ``limit``
    in place of ``FLAT_PRODUCT_MAX``, or as it is for None.  The rank sums
    still take their chunks from the shipped value."""
    saved, rank_sums = jets.FLAT_PRODUCT_MAX, jets._rank_sums

    def chunked(*sums):
        jets.FLAT_PRODUCT_MAX = saved
        try:
            return rank_sums(*sums)
        finally:
            jets.FLAT_PRODUCT_MAX = limit

    if limit is not None:
        jets.FLAT_PRODUCT_MAX, jets._rank_sums = limit, chunked
    try:
        best = min(timeit.repeat(lambda: kernel(*args), number=NUMBER,
                                 repeat=REPEAT))
    finally:
        jets.FLAT_PRODUCT_MAX, jets._rank_sums = saved, rank_sums
    return best / NUMBER


def time_row(kernel, args) -> dict:
    """Microseconds per call of each way, referred to the reference loop
    timed around them."""
    before = reference_s()
    seconds = {way: time_call(kernel, args, limit)
               for way, limit in WAYS.items()}
    scale = REF_NOMINAL_S / ((before + reference_s()) / 2)
    return {way: round(s * scale * 1e6, 1) for way, s in seconds.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--json", help="also write the rows to this file")
    args = ap.parse_args(argv)
    rows = []
    for workload in WORKLOADS:
        shapes = record(cli_args(workload, 42))
        print(f"{workload}  (FLAT_PRODUCT_MAX {jets.FLAT_PRODUCT_MAX:,}; "
              f"us referred to a {REF_NOMINAL_S} s reference loop)")
        print(f"  {'kind':<13}{'weights':>8}{'N':>5}{'weights x N':>13}"
              f"{'calls':>6}" + "".join(f"{w + ' us':>13}" for w in WAYS))
        for key in sorted(shapes, key=lambda k: (k[0], k[1] * k[2])):
            calls, call = shapes[key]
            name, weights, points = key
            us = time_row(jets._convolve, call)
            rows.append(dict(workload=workload, kind=name, weights=weights,
                             points=points, weights_x_points=weights * points,
                             calls=calls, us=us))
            print(f"  {name:<13}{weights:>8}{points:>5}"
                  f"{weights * points:>13,}{calls:>6}"
                  + "".join(f"{us[w]:>13.1f}" for w in WAYS))
        total = {w: sum(r["calls"] * r["us"][w] for r in rows
                        if r["workload"] == workload) / 1e3 for w in WAYS}
        print("  ms per command: " + ", ".join(
            f"{w} {t:.2f}" for w, t in total.items()))
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(
            {"flat_product_max": jets.FLAT_PRODUCT_MAX,
             "ref_nominal_s": REF_NOMINAL_S, "rows": rows},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
