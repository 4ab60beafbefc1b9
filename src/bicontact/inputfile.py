"""Coframe definitions: the one spec type and its plain-text file format.

A :class:`CoframeSpec` is a chart, one row of coefficient expressions per
covector and the numeric constants those expressions use.  A built-in
example (:mod:`bicontact.examples`) adds a sampling box and a table of
expected invariant values; a parsed file is named by its source and has
neither.  :meth:`CoframeSpec.input_text` writes the section format below and
:func:`parse_coframe_text` reads it, one coframe per file::

    [chart]   coords = x y z          # three or four coordinate names
    [params]  eps = -1   psi = 0.3    # numeric constants usable in expressions
    [omega1]  dx = "1"  dy = "1"  dz = "-((x+y)*z-(x-y))/(1+z^2)"
    [omega2]  ...
    [omega3]  ...
    [omega4]  ...                     # only for a four-coordinate chart

Coefficient keys are ``d<coordinate>``; a missing key means that coefficient
is zero.  ``#`` starts a comment.  A value is either a double-quoted string
(required when several pairs share a line and an expression contains spaces)
or the run of bare tokens up to the next ``key =`` on the same line, so the
one-pair-per-line layout emitted by :meth:`CoframeSpec.input_text` needs no
quotes.  Values do not span lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import expressions
from .errors import ArityError, ParseError
from .forms import Chart, CoframeField, coframe_field_from_expressions

__all__ = ["CoframeSpec", "parse_coframe_text", "load_definition"]

_SECTIONS = ("chart", "params", "omega1", "omega2", "omega3", "omega4")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
_TOKEN_RE = re.compile(r'\[\s*([A-Za-z0-9_]+)\s*\]|"([^"]*)"|(=)|([^\s=\[\]"#]+)')


@dataclass
class CoframeSpec:
    """A named coframe family: expression rows plus, for a built-in
    example, its sampling box and oracle values."""

    name: str
    chart: Chart
    rows: list                      # one {d<coord>: expression} dict per form
    params: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    box: tuple = ()                 # per-coordinate (lo, hi) sampling bounds
    notes: str = ""

    def coframes(self) -> CoframeField:
        """Compile the expression rows into an evaluable coframe family."""
        return coframe_field_from_expressions(self.chart, self.rows,
                                              params=self.params)

    def input_text(self) -> str:
        """Render in the section format that :func:`parse_coframe_text`
        reads."""
        lines = ["[chart]", "coords = " + " ".join(self.chart.coords)]
        if self.params:
            lines.append("")
            lines.append("[params]")
            for k, v in self.params.items():
                lines.append(f"{k} = {v!r}")
        for i, row in enumerate(self.rows, start=1):
            lines.append("")
            lines.append(f"[omega{i}]")
            for coord in self.chart.coords:
                key = "d" + coord
                if key in row and row[key] not in ("0", "0.0"):
                    lines.append(f"{key} = {row[key]}")
        return "\n".join(lines) + "\n"


def _strip_comment(line: str) -> str:
    in_quote = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return line[:i]
    return line


def _tokenize_line(line: str, lineno: int):
    toks = []
    pos = 0
    line = _strip_comment(line)
    while pos < len(line):
        if line[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise ParseError(f"unreadable character {line[pos]!r}", line=lineno)
        if m.group(1) is not None:
            toks.append(("section", m.group(1)))
        elif m.group(2) is not None:
            toks.append(("str", m.group(2)))
        elif m.group(3) is not None:
            toks.append(("eq", "="))
        else:
            toks.append(("word", m.group(4)))
        pos = m.end()
    return toks


def _pairs(text: str):
    """Yield (section, key, value, lineno) for every key = value pair."""
    section = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize_line(raw, lineno)
        i = 0
        while i < len(toks):
            kind, val = toks[i]
            if kind == "section":
                if val not in _SECTIONS:
                    raise ParseError(f"unknown section [{val}]", line=lineno)
                if val in seen:
                    raise ParseError(f"section [{val}] appears twice",
                                     line=lineno)
                seen.add(val)
                section = val
                i += 1
                continue
            if kind == "word" and i + 1 < len(toks) and toks[i + 1][0] == "eq":
                if section is None:
                    raise ParseError(
                        f"key {val!r} appears before any [section] header",
                        line=lineno)
                key = val
                i += 2
                parts = []
                while i < len(toks):
                    k2, v2 = toks[i]
                    if k2 == "section":
                        break
                    if (k2 == "word" and i + 1 < len(toks)
                            and toks[i + 1][0] == "eq"):
                        break
                    parts.append(v2)
                    i += 1
                if not parts:
                    raise ParseError(f"key {key!r} has no value", line=lineno)
                yield section, key, " ".join(parts), lineno
                continue
            raise ParseError(f"expected key = value, found {val!r}",
                             line=lineno)


def parse_coframe_text(text: str, source: str = "<string>") -> CoframeSpec:
    """Parse definition text into a :class:`CoframeSpec` named ``source``.

    Raises :class:`ParseError` (with a line number) for malformed input and
    :class:`ArityError` when the covector sections do not match the chart
    dimension.
    """
    sections: dict = {name: {} for name in _SECTIONS}
    lines: dict = {}
    for section, key, value, lineno in _pairs(text):
        if key in sections[section]:
            raise ParseError(f"duplicate key {key!r} in [{section}]",
                             line=lineno)
        sections[section][key] = value
        lines[(section, key)] = lineno

    chart_sec = sections["chart"]
    if "coords" not in chart_sec:
        raise ParseError(f"{source}: missing [chart] coords entry")
    coords = tuple(chart_sec["coords"].split())
    extra = set(chart_sec) - {"coords"}
    if extra:
        raise ParseError(f"unexpected [chart] keys {sorted(extra)}",
                         line=lines[("chart", sorted(extra)[0])])
    for c in coords:
        if not _IDENT_RE.match(c):
            raise ParseError(f"bad coordinate name {c!r}",
                             line=lines[("chart", "coords")])
    if len(set(coords)) != len(coords):
        raise ParseError(f"repeated coordinate in {coords}",
                         line=lines[("chart", "coords")])
    if len(coords) not in (3, 4):
        raise ArityError(
            f"{source}: chart must have 3 or 4 coordinates, got {coords}")

    params = {}
    for name, value in sections["params"].items():
        lineno = lines[("params", name)]
        if not _IDENT_RE.match(name) or name in coords:
            raise ParseError(f"bad parameter name {name!r}", line=lineno)
        try:
            params[name] = float(value)
        except ValueError:
            try:
                node = expressions.parse(value)
                params[name] = float(expressions.eval_number(node, {}))
            except Exception as exc:
                raise ParseError(
                    f"parameter {name} = {value!r} is not a number ({exc})",
                    line=lineno) from exc

    dim = len(coords)
    rows = []
    for n in range(1, dim + 1):
        name = f"omega{n}"
        if not sections[name]:
            raise ArityError(
                f"{source}: missing [{name}] section; a chart with {dim} "
                f"coordinates needs covectors omega1..omega{dim}")
        rows.append(dict(sections[name]))
    for n in range(dim + 1, 5):
        if sections[f"omega{n}"]:
            raise ArityError(
                f"{source}: [omega{n}] section present but the chart has "
                f"only {dim} coordinates")

    valid_keys = {"d" + c for c in coords}
    pnames = list(params)
    for n, row in enumerate(rows, start=1):
        for key, value in row.items():
            lineno = lines[(f"omega{n}", key)]
            if key not in valid_keys:
                raise ArityError(
                    f"{source}:{lineno}: coefficient key {key!r} does not "
                    f"match any of {sorted(valid_keys)}")
            try:
                expressions.parse(value, coords=coords, params=pnames)
            except ParseError as exc:
                raise ParseError(
                    f"in [omega{n}] {key}: {exc}", line=lineno) from exc

    return CoframeSpec(name=source, chart=Chart(coords), rows=rows,
                       params=params)


def load_definition(path) -> CoframeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_coframe_text(text, source=str(path))
