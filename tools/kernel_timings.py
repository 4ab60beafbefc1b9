"""Time the two product kernels at the shapes the benchmark workloads run.

    python tools/kernel_timings.py              # a table per workload
    python tools/kernel_timings.py --json OUT   # the same rows as JSON

Each workload of ``perfbench/run.py`` runs once, at its seed-42 argv, with
``forms._multiply`` and ``jets._product`` wrapped to keep the operands of
the first many-point call of each shape.  Each kept call is then timed on
its own operands, three ways: with ``jets.FLAT_PRODUCT_MAX`` as it is (the
path the kernel chooses), with every product binned flat, and with every
product summed by rank groups.  A row gives the kernel, its shape (terms,
dim, order, points), its weights (terms x pairs) times points, the number
of such calls in the command, and the microseconds per call of each way,
the best of ``REPEAT`` timings of ``NUMBER`` calls.  On a tree whose
``forms._multiply`` has no grouped path, its flat and grouped columns both
time the flat bins.  The calls run on one core, in this process.
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
from run import WORKLOADS, cli_args  # noqa: E402

WAYS = {"chosen": None, "flat": float("inf"), "grouped": 0}
NUMBER, REPEAT = 20, 5


def record(argv):
    """{shape: [calls, kernel, args]} of the many-point products that
    ``argv`` runs, with the arguments of the first call of each shape."""
    shapes = {}
    multiply, product = forms._multiply, jets._product

    def keep(key, kernel, args):
        entry = shapes.setdefault(key, [0, kernel, args])
        entry[0] += 1

    def wrapped_multiply(x, y, plan):
        if x.ndim == 3:
            terms = len(plan.rx)
            keep(("forms._multiply", terms,
                  *dim_order(plan.n, len(plan.gx) // terms), x.shape[2],
                  len(plan.gx)), multiply, (x, y, plan))
        return multiply(x, y, plan)

    def wrapped_product(a, b, dim, order):
        if a.ndim == 2:
            keep(("jets._product", 1, dim, order, a.shape[1],
                  len(jets._mul_table(dim, order)[0])),
                 # a series step overwrites its operands afterwards
                 product, (a.copy(), b.copy(), dim, order))
        return product(a, b, dim, order)

    forms._multiply, jets._product = wrapped_multiply, wrapped_product
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    finally:
        forms._multiply, jets._product = multiply, product
    return shapes


def dim_order(n, pairs):
    """(dim, order) of a product of jets of ``n`` coefficients with
    ``pairs`` pairs of monomials, which are the monomials of degree <= order
    in 2 dim variables."""
    return next((dim, order) for dim in range(1, 5) for order in range(23)
                if jets.ncoeffs(dim, order) == n
                and jets.ncoeffs(2 * dim, order) == pairs)


def time_call(kernel, args, limit):
    saved = jets.FLAT_PRODUCT_MAX
    if limit is not None:
        jets.FLAT_PRODUCT_MAX = limit
    try:
        best = min(timeit.repeat(lambda: kernel(*args), number=NUMBER,
                                 repeat=REPEAT))
    finally:
        jets.FLAT_PRODUCT_MAX = saved
    return round(best / NUMBER * 1e6, 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--json", help="also write the rows to this file")
    args = ap.parse_args(argv)
    rows = []
    for workload in WORKLOADS:
        shapes = record(cli_args(workload, 42))
        print(f"{workload}  (FLAT_PRODUCT_MAX {jets.FLAT_PRODUCT_MAX:,})")
        print(f"  {'kernel':<16}{'terms':>6}{'dim':>4}{'ord':>4}{'N':>5}"
              f"{'weights x N':>13}{'calls':>6}"
              + "".join(f"{w + ' us':>13}" for w in WAYS))
        for key in sorted(shapes, key=lambda k: (k[0], k[5] * k[4])):
            calls, kernel, call = shapes[key]
            name, terms, dim, order, points, weights = key
            us = {way: time_call(kernel, call, limit)
                  for way, limit in WAYS.items()}
            rows.append(dict(workload=workload, kernel=name, terms=terms,
                             dim=dim, order=order, points=points,
                             weights_x_points=weights * points, calls=calls,
                             us=us))
            print(f"  {name:<16}{terms:>6}{dim:>4}{order:>4}{points:>5}"
                  f"{weights * points:>13,}{calls:>6}"
                  + "".join(f"{us[w]:>13.1f}" for w in WAYS))
        total = {w: sum(r["calls"] * r["us"][w] for r in rows
                        if r["workload"] == workload) / 1e3 for w in WAYS}
        print("  ms per command: " + ", ".join(
            f"{w} {t:.2f}" for w, t in total.items()))
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(
            {"flat_product_max": jets.FLAT_PRODUCT_MAX, "rows": rows},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
