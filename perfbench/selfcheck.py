"""Checks of the benchmark itself: tracer completeness, count
reproducibility, the correctness gate at a second seed, and the metric names
against BENCHMARK.json.

    python3 perfbench/selfcheck.py
    python3 -m pytest -p no:cacheprovider perfbench/selfcheck.py

Scratch files go under perfbench/.out and are removed afterwards.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402

# A seed not used while the point counts were sized.
SECOND_SEED = 20261017
SMALL = {"adapt3d": 2, "curv4d": 1, "profile4d": 5}


@pytest.fixture
def workdir():
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as d:
        yield d
    try:
        os.rmdir(run.OUT)
    except OSError:
        pass


def _child(workload, mode, workdir, points, seed=run.DEFAULT_SEED):
    res = run.run_child(run.cli_args(workload, seed, points), mode, workdir,
                        run.CHILD_TIMEOUT, points)
    assert res["ok"], res["why"]
    return res


def _traced_summary(workload, workdir):
    res = _child(workload, "trace", workdir, SMALL[workload])
    return tracer.summarize(res["path"] + ".npz",
                            inclusive=run.TIMES.values())


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_counts_equal_cprofile_ncalls(workload, workdir):
    """Every binding is wrapped: no call reaches an original unrecorded."""
    summary = _traced_summary(workload, workdir)
    prof = _child(workload, "profile", workdir, SMALL[workload])
    with open(prof["path"], encoding="utf-8") as fh:
        ncalls = {tuple(key): n for key, n in json.load(fh)["ncalls"]}
    traced = {summary["code_keys"][name]: row["calls"]
              for name, row in summary["names"].items() if row["calls"]}
    assert traced == ncalls
    assert summary["names"]["jets.Jet.__mul__"]["calls"] == sum(
        summary["mul_kinds"].values())


def test_counts_reproduce_for_one_seed(workdir):
    first = _traced_summary("adapt3d", workdir)
    second = _traced_summary("adapt3d", workdir)

    def counts(s):
        return ({n: (r["calls"], r["errors"]) for n, r in s["names"].items()},
                s["mul_kinds"], s["spans"])
    assert counts(first) == counts(second)


def test_metric_spans_exist(workdir):
    names = set(_traced_summary("profile4d", workdir)["names"])
    wanted = {tracer.MUL, *run.PER_POINT.values(), *run.TIMES.values()}
    wanted.update(s for spans in run.COUNTS.values() for s in spans)
    assert wanted <= names, sorted(wanted - names)


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, SECOND_SEED])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_gate_passes_at_full_size(workload, seed, workdir):
    _child(workload, "plain", workdir, run.WORKLOADS[workload][1], seed)


def test_self_time_and_outermost_inclusive_time(workdir):
    # spans: 0 = f [0, 10]; 1 = g [1, 4] under 0; 2 = f [5, 9] under 0
    path = os.path.join(workdir, "spans.npz")
    meta = {"names": ["jets.f", "forms.g"], "layers": ["jets", "forms"],
            "code_keys": [["a", 1, "f"], ["b", 2, "g"]], "errors": [0, 1],
            "mul_kinds": {"full": 0, "float": 0, "const": 0}}
    np.savez(path, meta=np.array(json.dumps(meta)),
             name=np.array([0, 1, 0], dtype=np.int32),
             parent=np.array([-1, 0, 0], dtype=np.int32),
             start=np.array([0.0, 1.0, 5.0]), end=np.array([10.0, 4.0, 9.0]))
    s = tracer.summarize(path, inclusive=["jets.f", "forms.g"])
    assert s["names"]["jets.f"] == {"calls": 2, "self_s": 3.0 + 4.0,
                                    "errors": 0}
    assert s["layers"]["forms"] == {"calls": 1, "self_s": 3.0, "errors": 1}
    assert s["inclusive_s"] == {"jets.f": 10.0, "forms.g": 3.0}


def _result_line(command, cwd=run.ROOT):
    proc = subprocess.run(command, cwd=cwd, timeout=180,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    code, lines = _result_line([*spec["command"], "--workload", "profile4d",
                                "--seed", str(SECOND_SEED), "--seconds", "0",
                                "--trace", str(trace)])
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}
    assert any(line.startswith("report_sha256 profile4d") for line in lines)


def test_refuses_to_run_without_sources(workdir):
    """Only BENCHMARK.json and perfbench/: exit nonzero, print nothing."""
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    code, lines = _result_line(["python3", "perfbench/run.py",
                                "--workload", "curv4d",
                                "--seed", "1", "--seconds", "1",
                                "--trace", "0"], cwd=bare)
    assert code != 0
    assert not lines


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
