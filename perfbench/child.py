"""One benchmark run: import the CLI from the checkout and run one command.

    python3 perfbench/child.py RESULT MODE -- <bicontact arguments>

MODE is ``plain`` (timed), ``trace`` (spans recorded by tracer.py and dumped
to RESULT + ".npz") or ``profile`` (cProfile call counts of the functions
the tracer would wrap, for the completeness check).  The result file holds
the clock readings, the reference-loop time, peak RSS, exit status and the
report text.
"""

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv):
    result_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "trace", "profile"):
        raise SystemExit("usage: child.py RESULT plain|trace|profile -- ARGS")
    sys.path.insert(0, SRC)
    import bicontact.cli
    if not os.path.abspath(bicontact.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported {bicontact.cli.__file__}, not {SRC}")
    tracer = profiler = None
    if mode != "plain":
        import tracer as tracer_mod
        if mode == "trace":
            tracer = tracer_mod.install()
        else:
            import cProfile
            profiler = cProfile.Profile()
    ready = time.monotonic()

    ref_before = reference_s()
    buf = io.StringIO()
    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = bicontact.cli.main(cli_args)
    text = buf.getvalue()
    end = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    ref_after = reference_s()

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"ready": ready, "command_s": end - start, "exit": code,
           "ref_s": (ref_before + ref_after) / 2, "rss_mb": rss_kb / 1024.0,
           "report": text}
    if tracer is not None:
        tracer.dump(result_path + ".npz")
    if profiler is not None:
        out["ncalls"] = _profile_counts(profiler, tracer_mod)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def reference_s() -> float:
    """Seconds for a fixed loop of small NumPy reductions and dict work.

    It is shaped like jet arithmetic but runs no bicontact code, so it
    gauges only how fast the machine runs at the moment.  Timed just before
    and just after the command, it lets run.py take out the slow spells
    that co-tenants of a shared machine cause, which last seconds and slow
    both alike.
    """
    import numpy as np
    n = np.arange(3003)
    i, j, t = n * 7919 % 210, n * 104729 % 210, n % 210
    c = np.linspace(0.0, 1.0, 210)
    start = time.perf_counter()
    for _ in range(8000):
        np.bincount(t, weights=c[i] * c[j], minlength=210)
        {k: k * 0.5 for k in range(30)}
    return time.perf_counter() - start


def _profile_counts(profiler, tracer_mod):
    """cProfile ncalls keyed like Tracer.code_keys, for the wrapped set."""
    import importlib
    import pstats
    wanted = set()
    for layer in tracer_mod.LAYERS:
        mod = importlib.import_module(f"bicontact.{layer}")
        wanted.update(tracer_mod.code_key(fn)
                      for fn in tracer_mod.targets(mod, layer))
    stats = pstats.Stats(profiler).stats
    return [[list(key), nc] for key, (_cc, nc, _tt, _ct, _callers)
            in stats.items() if key in wanted]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
