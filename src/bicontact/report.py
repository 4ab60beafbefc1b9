"""Deterministic machine-readable run reports.

A report is a plain JSON document with a fixed field order; every float is
rendered with 17 significant digits, so identical configuration + seed give
a byte-identical payload.  Every numeric entry is attached to a named
identity, invariant, or check so nothing in the file is anonymous.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__

__all__ = ["format_float", "dumps_canonical", "record_to_dict", "check",
           "nan_max", "summarize_residuals", "Report"]

TOOL_NAME = "bicontact"


def format_float(x: float) -> str:
    """Render one float with 17 significant digits (round-trip exact)."""
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _ser(obj, out, level):
    # the exact types a report is made of come first; None, bools, ints and
    # subclasses such as np.float64 take the isinstance chain after them
    kind = type(obj)
    if kind is float:
        out.append(format(obj, ".17g") if math.isfinite(obj)
                   else format_float(obj))
    elif kind is str:
        out.append(_quote(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        pad_in = "  " * (level + 1)
        sep = "{\n"
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"report keys must be strings, got {k!r}")
            out.append(f"{sep}{pad_in}{_quote(k)}: ")
            _ser(v, out, level + 1)
            sep = ",\n"
        out.append("\n" + "  " * level + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        pad_in = "  " * (level + 1)
        sep = "[\n"
        for v in obj:
            out.append(sep + pad_in)
            _ser(v, out, level + 1)
            sep = ",\n"
        out.append("\n" + "  " * level + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        _ser(dict(obj), out, level)
    elif isinstance(obj, (list, tuple)):
        _ser(list(obj), out, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_canonical(obj) -> str:
    """Serialize to JSON text with deterministic layout and float rendering."""
    out: list = []
    _ser(obj, out, 0)
    return "".join(out)


def record_to_dict(rec) -> dict:
    """Flatten one per-point ``pipeline.InvariantRecord`` in field order;
    residual keys are sorted."""
    row = {f.name: getattr(rec, f.name) for f in fields(rec)}
    row["point"] = list(rec.point)
    row["residuals"] = {k: rec.residuals[k] for k in sorted(rec.residuals)}
    return row


def check(name: str, value, tol=None, passed=None) -> dict:
    """One named pass/fail entry.  With a tolerance, pass = |value| <= tol."""
    if passed is None:
        if tol is None:
            raise ValueError("check needs either a tolerance or a verdict")
        passed = abs(value) <= tol
    entry = {"name": name, "value": value}
    if tol is not None:
        entry["tol"] = tol
    entry["passed"] = bool(passed)
    return entry


def nan_max(*values):
    """max(*values), except that any NaN among them is the result.

    The built-in max keeps its running maximum when compared with NaN, so a
    NaN residual after the first value would vanish and its check pass.
    Where a value is an array of one value per point, the maximum is taken
    per point, with the first NaN and the first of equal values (0.0 and
    -0.0) kept at each point as here.
    """
    if any(isinstance(value, np.ndarray) for value in values):
        return functools.reduce(_column_max, values)
    return _float_max(*values)


def _float_max(*values):
    """``nan_max`` of floats alone."""
    for value in values:
        if math.isnan(value):
            return value
    return max(values)


def _column_max(worst, value):
    take = ~np.isnan(worst) & (np.isnan(value) | (value > worst))
    return np.where(take, value, worst)


def summarize_residuals(rows) -> dict:
    """max / mean / count per residual name over an iterable of dicts."""
    acc: dict = {}
    for row in rows:
        for name, value in row.items():
            value = abs(float(value))
            slot = acc.setdefault(name, [0.0, 0.0, 0])
            slot[0] = _float_max(slot[0], value)
            slot[1] += value
            slot[2] += 1
    return {name: {"max": mx, "mean": total / n, "count": n}
            for name, (mx, total, n) in sorted(acc.items())}


@dataclass
class Report:
    """Everything one CLI run produced, ready to serialize."""

    command: str
    config: dict
    records: list = field(default_factory=list)     # per-point rows
    summary: dict = field(default_factory=dict)     # residual name -> stats
    histogram: dict = field(default_factory=dict)   # case/class tag -> count
    checks: list = field(default_factory=list)      # entries from check()
    errors: list = field(default_factory=list)      # structured failures

    @property
    def passed(self) -> bool:
        return not self.errors and all(c["passed"] for c in self.checks)

    def add_error(self, stage: str, exc: BaseException):
        self.errors.append({"stage": stage, "type": type(exc).__name__,
                            "message": str(exc)})

    def to_dict(self) -> dict:
        return {
            "tool": TOOL_NAME,
            "version": __version__,
            "command": self.command,
            "config": self.config,
            "records": self.records,
            "summary": self.summary,
            "histogram": {k: self.histogram[k] for k in sorted(self.histogram)},
            "checks": self.checks,
            "errors": self.errors,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return dumps_canonical(self.to_dict()) + "\n"
