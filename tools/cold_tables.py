"""Time what building the jet and form tables adds to each benchmark command.

    python tools/cold_tables.py

Each workload of ``perfbench/run.py`` runs at its seed-42 argv through
``bicontact.cli.main`` in this process, from the checkout that holds this
script.  Warm runs find every table built; cold runs first clear every
``functools.lru_cache`` that ``jets`` and ``forms`` define, found by
looking, so the command builds its index, product, derivative and form
plans again, in its own order, as a benchmark run in a fresh process does.
Warm and cold runs alternate, ``RUNS`` of each, so a slow spell of a
shared machine meets both.  A row gives the minimum milliseconds of each
and the cold minimum less the warm one, the cost of the tables.  The import
of NumPy and of the package, and any state outside those caches, stay warm
in both.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from bicontact import cli, forms, jets  # noqa: E402
from run import WORKLOADS, cli_args  # noqa: E402

RUNS = 40


def caches() -> list:
    """Every ``lru_cache``-wrapped function of ``jets`` and ``forms``."""
    return [obj for module in (jets, forms) for obj in vars(module).values()
            if hasattr(obj, "cache_clear")
            and obj.__module__ == module.__name__]


def seconds(argv) -> float:
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        status = cli.main(argv)
        took = time.perf_counter() - start
    if status != 0:
        raise SystemExit(f"{' '.join(argv)}: exit status {status}")
    return took


def main() -> int:
    cached = caches()
    print(f"{len(cached)} caches; minimum ms of {RUNS} runs each")
    print(f"{'workload':<11}{'warm':>9}{'cold':>9}{'cold - warm':>13}")
    for workload in WORKLOADS:
        command = cli_args(workload, 42)
        seconds(command)
        warm, cold = [], []
        for _ in range(RUNS):
            warm.append(seconds(command))
            for cache in cached:
                cache.cache_clear()
            cold.append(seconds(command))
        best = min(warm) * 1e3, min(cold) * 1e3
        print(f"{workload:<11}{best[0]:>9.2f}{best[1]:>9.2f}"
              f"{best[1] - best[0]:>13.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
