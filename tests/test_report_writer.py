"""report.dumps_canonical against the recursive writer it replaced.

``_ser_oracle`` is that writer as it was: an isinstance chain per value and
``json.dumps`` per key and string.  The type-dispatched writer must give the
same bytes for every value a report can hold, and the same errors.
"""

import collections
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicontact.report import dumps_canonical, format_float


def _ser_oracle(obj, out, level):
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"report keys must be strings, got {k!r}")
            out.append(pad_in + json.dumps(k) + ": ")
            _ser_oracle(v, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad_in)
            _ser_oracle(v, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def oracle(obj) -> str:
    out: list = []
    _ser_oracle(obj, out, 0)
    return "".join(out)


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                  -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
# every code point, lone surrogates and control characters included
_text = (st.text(st.characters(exclude_categories=()), max_size=8)
         | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "é ü €",
                            "\U0001f600", "\ud800", 'a"b\\c\nd\te']))
_floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
_leaves = (st.none() | st.booleans() | st.integers() | _floats
           | _floats.map(np.float64) | _text)
_values = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_writer_is_byte_equal_to_the_recursive_oracle(value):
    assert dumps_canonical(value) == oracle(value)


def test_writer_renders_special_floats_and_subclasses_as_the_oracle():
    Row = collections.namedtuple("Row", "x y")
    value = {"floats": SPECIAL_FLOATS,
             "float64": [np.float64(x) for x in SPECIAL_FLOATS],
             "ordered": collections.OrderedDict(
                 [("b", 1), ("a", Row(2.5, True))]),
             "flags": (True, False, None, 0, -1, 2 ** 80)}
    text = dumps_canonical(value)
    assert text == oracle(value)
    assert '"nan"' in text and '"-inf"' in text and "\n    -0,\n" in text


@pytest.mark.parametrize("value, message", [
    ({1: 2.0}, "report keys must be strings, got 1"),
    ({"a": [1, {(0, 1): None}]}, r"report keys must be strings, got \(0, 1\)"),
    ({"a": object()}, "cannot serialize object into a report"),
    ([np.int64(3)], "cannot serialize int64 into a report"),
    ({"a": {1.5}}, "cannot serialize set into a report"),
])
def test_writer_raises_the_oracles_type_errors(value, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        oracle(value)
    with pytest.raises(TypeError, match=f"^{message}$"):
        dumps_canonical(value)
