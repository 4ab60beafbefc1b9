"""bicontact benchmark: seeded CLI workloads, timed end to end and traced.

    python3 perfbench/run.py --workload adapt3d --seed 42 --seconds 35 \
        --trace 0

Each run spawns a fresh ``python3 perfbench/child.py`` that imports
``bicontact.cli`` from this checkout's ``src/`` and calls its ``main`` with
the workload's arguments and ``--seed``.  Runs go one at a time (a closed
loop with one client) until ``--seconds`` have passed.  Every run's report
must pass the correctness gate in ``gate``; its SHA-256 is printed so that
two commits can be shown to produce byte-identical reports.

With ``--trace 0`` the last line holds the end-to-end metrics: medians over
the runs of points per second of command time, set-up time (spawn until
``bicontact.cli`` is imported) and peak RSS, and the share of runs that
passed the gate.  Command times are referred to the speed of a fixed
reference loop timed around each command (``child.reference_s``), which
takes out the slow spells of a shared machine.  With ``--trace 1`` untraced
runs for half of ``--seconds`` give the untraced median; then one run with
tracer.py installed gives the per-layer counts and times, and its command
time over that median is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, ".out")
DEFAULT_SEED = 42          # the CLI's own default --seed

MIN_RUNS = 3               # untraced runs per invocation, whatever --seconds
CHILD_TIMEOUT = 120.0      # seconds for one child
HARD_LIMIT = 170.0         # seconds for the whole invocation
# About child.reference_s on the machine in BASELINE.md.  points_per_s is
# referred to this speed of the machine (see README.md).
REF_NOMINAL_S = 0.2

# name -> (CLI arguments before --seed/--points, points).  Point counts make
# one command take about 3 s on a 2-core Xeon, so that the lazily built jet
# tables and the import are a small part of it.
WORKLOADS = {
    # 3D case-2 adaptation, Levi-Civita, curvature and leaf geometry:
    # expression evaluation and nested frame rebuilds, dim-3 jets.
    "adapt3d": (("curvature", "normal_form_3d"), 60),
    # 4D pattern, E, pairings and curvature block: order-6 dim-4 jet
    # convolutions and coefficient extraction in forms.
    "curv4d": (("fourdim", "fourd_enonzero"), 18),
    # profile ODE (scipy), Leibniz lift and 4D normal form at order 3:
    # per-call overhead of jets and forms rather than convolution.
    "profile4d": (("normal-form", "tan(z)", "--order", "3"), 200),
}

# per-layer metric -> span names whose call counts it sums
COUNTS = {
    "expressions.eval_jet.calls": ("expressions.eval_jet",),
    "pipeline.case2_adapt.calls": ("pipeline.case2_adapt",),
    "jets.add.calls": ("jets.Jet.__add__", "jets.Jet.__sub__",
                       "jets.Jet.__rsub__"),
    "jets.partial.calls": ("jets.partial",),
    "jets.series.calls": ("jets._compose",),
    "jets.matrix_inverse.calls": ("jets.jet_matrix_inverse",),
    "forms.volume.calls": ("forms.Coframe.volume",),
    "forms.wedge.calls": ("forms.wedge",),
    "forms.ext_d.calls": ("forms.ext_d",),
    "forms.top_ratio.calls": ("forms.top_ratio",),
    "forms.two_form_coeffs.calls": ("forms.two_form_coeffs",),
    "fourdim.solve_q.calls": ("fourdim.solve_q",),
}
# per-layer metric -> span name whose calls are divided by the point count
PER_POINT = {
    "expressions.evals_per_point": "expressions.eval_jet",
    "forms.frames_per_point": "forms.CoframeField.at",
}
# per-layer metric -> span name whose outermost calls' wall time it sums
TIMES = {
    "pipeline.one_adapt.s": "pipeline.one_adapt",
    "pipeline.case_detect.s": "pipeline.case_detect",
    "pipeline.case2_adapt.s": "pipeline.case2_adapt",
    "forms.two_form_coeffs.s": "forms.two_form_coeffs",
    "curvature.levi_civita.s": "curvature.levi_civita",
    "curvature.curvature.s": "curvature.curvature",
    "curvature.leaf_geometry.s": "curvature.leaf_geometry",
    "fourdim.symp_structure.s": "fourdim.symp_structure",
    "fourdim.curvature4.s": "fourdim.curvature4",
    "fourdim.solve_q.s": "fourdim.solve_q",
    "fourdim.verify_normal_form.s": "fourdim.verify_normal_form",
    "report.to_json.s": "report.Report.to_json",
}


def cli_args(workload: str, seed: int, points: int | None = None) -> list:
    base, default_points = WORKLOADS[workload]
    return [*base, "--seed", str(seed),
            "--points", str(points or default_points)]


def gate(result: dict, points: int) -> str | None:
    """Why a run's report is not acceptable, or None when it is."""
    if result["exit"] != 0:
        return f"exit status {result['exit']}"
    try:
        rep = json.loads(result["report"])
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if rep.get("passed") is not True:
        return "report not passed"
    if rep.get("errors"):
        return f"report errors: {rep['errors']}"
    checks = rep.get("checks") or []
    if not checks or not all(c.get("passed") is True for c in checks):
        return "a check failed or none ran"
    records = rep.get("records") or []
    if len(records) != points or not all("point" in r for r in records):
        return f"{len(records)} records for {points} points"
    return None


def run_child(args: list, mode: str, workdir: str, timeout: float,
              points: int) -> dict:
    """Spawn one child, wait for it, and gate its report."""
    fd, path = tempfile.mkstemp(dir=workdir, suffix=".json")
    os.close(fd)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, path, mode, "--", *args],
                            cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "why": "timeout", "path": path}
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        return {"ok": False, "why": f"child exit {proc.returncode} {tail}",
                "path": path}
    with open(path, encoding="utf-8") as fh:
        res = json.load(fh)
    why = gate(res, points)
    return {"ok": why is None, "why": why, "path": path,
            "setup_s": res["ready"] - spawned,
            "command_s": res["command_s"], "ref_s": res["ref_s"],
            "rss_mb": res["rss_mb"],
            "sha256": hashlib.sha256(res["report"].encode()).hexdigest()}


def untraced_runs(args, points, workdir, until, hard_deadline) -> list:
    runs = []
    while len(runs) < MIN_RUNS or time.monotonic() < until:
        left = hard_deadline - time.monotonic()
        if left <= 0:
            break
        run = run_child(args, "plain", workdir, min(CHILD_TIMEOUT, left),
                        points)
        os.unlink(run["path"])
        runs.append(run)
        print(f"run {len(runs)}: " + (
            f"{run['command_s']:.3f} s command, {run['setup_s']:.3f} s setup, "
            f"{run['ref_s']:.4f} s reference loop"
            if run["ok"] else f"FAILED: {run['why']}"), flush=True)
    return runs


def layer_metrics(summary: dict, points: int, overhead: float) -> dict:
    names = summary["names"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    m = {}
    for metric, spans in COUNTS.items():
        m[metric] = (sum(calls(s) for s in spans), "count")
    for metric, span in PER_POINT.items():
        m[metric] = (calls(span) / points, "count")
    kinds = summary["mul_kinds"]
    total = sum(kinds.values())
    for kind, n in kinds.items():
        m[f"jets.mul.{kind}"] = (n, "count")
    m["jets.mul.scalar_share"] = (
        (kinds["float"] + kinds["const"]) / total if total else 0.0, "ratio")
    m["jets.mul.self_s"] = (names.get(tracer.MUL, {}).get("self_s", 0.0),
                            "s")
    for metric, span in TIMES.items():
        m[metric] = (summary["inclusive_s"][span], "s")
    for layer, agg in summary["layers"].items():
        m[f"{layer}.self_s"] = (agg["self_s"], "s")
        m[f"{layer}.calls"] = (agg["calls"], "count")
        m[f"{layer}.errors"] = (agg["errors"], "count")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def empty_summary() -> dict:
    """A summary with every count and time zero, for a failed traced run."""
    return {"names": {}, "mul_kinds": dict.fromkeys(tracer.MUL_KINDS, 0),
            "inclusive_s": dict.fromkeys(TIMES.values(), 0.0),
            "layers": {layer: {"calls": 0, "self_s": 0.0, "errors": 0}
                       for layer in tracer.LAYERS}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bicontact", "cli.py")):
        print(f"perfbench: no bicontact sources under {ROOT}/src",
              file=sys.stderr)
        return 2

    began = time.monotonic()
    hard_deadline = began + HARD_LIMIT
    points = WORKLOADS[args.workload][1]
    cmd = cli_args(args.workload, args.seed)
    print("command: bicontact " + " ".join(cmd), flush=True)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        share = 0.5 if args.trace else 1.0
        runs = untraced_runs(cmd, points, workdir,
                             began + share * args.seconds, hard_deadline)
        traced, summary = None, empty_summary()
        if args.trace:
            traced = run_child(cmd, "trace", workdir,
                               hard_deadline - time.monotonic(), points)
            runs.append(traced)
            if traced["ok"]:
                summary = tracer.summarize(traced["path"] + ".npz",
                                           inclusive=TIMES.values())
                print(f"traced: {summary['spans']} spans, "
                      f"{traced['command_s']:.3f} s command")
            else:
                print(f"FAILED traced run: {traced['why']}")
    try:
        os.rmdir(OUT)
    except OSError:
        pass

    good = [r for r in runs if r["ok"]]
    failed = len(runs) - len(good)
    shas = {r["sha256"] for r in good}
    for sha in sorted(shas):
        print(f"report_sha256 {args.workload} seed={args.seed} {sha}")
    if len(shas) > 1:
        print("FAILED: reports differ between runs of one seed")
    correct = failed == 0 and len(shas) == 1
    plain = [r for r in good if r is not traced]

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def referred_s(r):
        """Command time at the reference-loop speed REF_NOMINAL_S."""
        return r["command_s"] * REF_NOMINAL_S / r["ref_s"]

    if args.trace:
        overhead = (referred_s(traced) / med(map(referred_s, plain))
                    if traced["ok"] and plain else 0.0)
        metrics = layer_metrics(summary, points, overhead)
    else:
        wall = med(points / r["command_s"] for r in plain)
        print(f"wall_points_per_s {wall}")
        metrics = {
            "points_per_s": (med(points / referred_s(r) for r in plain),
                             "1/s"),
            "setup_s": (med(r["setup_s"] for r in plain), "s"),
            "peak_rss_mb": (med(r["rss_mb"] for r in plain), "MB"),
            "pass_share": (len(good) / len(runs), "share"),
        }
    print(json.dumps({
        "correct": correct, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
