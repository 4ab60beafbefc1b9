"""Reports do not depend on which tables a process has built before.

``jets`` and ``forms`` build their index, product, derivative and form
plans on first use and keep them in ``functools.lru_cache``s.  A benchmark
run is one command in a fresh process, so every table it uses is built in
that command's order, while the suite mostly runs on tables other tests
built.  Each command here runs warm, then again with every such cache of
both modules cleared, and prints the same bytes.
"""

import io
from contextlib import redirect_stdout

import pytest

from bicontact import cli, forms, jets

from conftest import DATA


def _caches():
    """Every ``lru_cache``-wrapped function that ``jets`` and ``forms``
    define, found by looking, not from a list."""
    return [obj for module in (jets, forms) for obj in vars(module).values()
            if hasattr(obj, "cache_clear")
            and obj.__module__ == module.__name__]


def _report(args) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(args) == 0
    return out.getvalue()


def test_the_caches_are_found_by_introspection():
    found = _caches()
    for cached in (jets._index, jets._mul_table, jets._step_plan,
                   jets._diff_table, forms._wedge_plan, forms._ext_d_plan):
        assert cached in found
    assert len(set(map(id, found))) == len(found)


@pytest.mark.parametrize("args", [
    ["curvature", "normal_form_3d"], ["fourdim", "fourd_enonzero"],
    ["normal-form", "tan(z)", "--order", "3"],
    ["invariants", str(DATA / "case1_frame.txt")],
], ids=["curvature normal_form_3d", "fourdim fourd_enonzero",
        "normal-form tan(z)", "invariants case1_frame"])
def test_a_cold_run_prints_the_warm_report(args):
    args = args + ["--points", "3"]
    _report(args)
    warm = _report(args)
    for cached in _caches():
        cached.cache_clear()
    assert _report(args) == warm
