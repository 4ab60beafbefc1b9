"""Outside-in span tracer for the bicontact layers.

``install`` wraps the functions and methods of each layer module from
outside the package and rebinds every reference to them: module globals
(which covers ``from .forms import wedge`` style imports), class
dictionaries (which covers aliases such as ``Jet.__rmul__ = __mul__``),
module-level containers (``expressions.FUNCTIONS``) and default arguments.
One wrapper exists per original function, so its span count equals the
function's call count as ``cProfile`` reports it.

Each call records a span -- name id, parent span, start, end -- in flat
arrays held in memory; ``Tracer.dump`` writes them out once the traced
command has finished, and ``summarize`` turns a dump into per-layer counts
and self times.  Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time
from types import FunctionType

LAYERS = ("jets", "expressions", "forms", "pipeline", "curvature", "fourdim",
          "report", "cli")

# Operator methods are wrapped along with the public names.
_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__"}

# Private functions that are a unit of work in their own right: every
# elementary function of a jet goes through one Horner series composition.
_PRIVATE = {"jets": {"_compose"}}

MUL = "jets.Jet.__mul__"
MUL_KINDS = ("full", "float", "const")


class Tracer:
    """Span store shared by all wrappers of one traced process."""

    def __init__(self):
        self.names: list = []        # name id -> span name
        self.layers: list = []       # name id -> layer
        self.code_keys: list = []    # name id -> (file, first line, name)
        self.errors: list = []       # name id -> calls that raised
        self.mul_kinds = [0, 0, 0]   # jet multiplies by MUL_KINDS
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]

    def _intern(self, fn, layer) -> int:
        self.names.append(f"{layer}.{fn.__qualname__}")
        self.layers.append(layer)
        self.code_keys.append(code_key(fn))
        self.errors.append(0)
        return len(self.names) - 1

    def wrap(self, fn, layer):
        nid = self._intern(fn, layer)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter
        classify = self._mul_classifier() if self.names[nid] == MUL else None

        def traced(*args, **kwargs):
            if classify is not None:
                classify(*args)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _mul_classifier(self):
        from bicontact.jets import Jet
        kinds = self.mul_kinds

        def classify(a, b):
            if not isinstance(b, Jet):
                kinds[1] += 1
            elif a.c[1:].any() and b.c[1:].any():
                kinds[0] += 1
            else:
                kinds[2] += 1
        return classify

    def dump(self, path) -> None:
        """Write the spans and the name table to ``path`` (.npz)."""
        import numpy as np
        meta = {"names": self.names, "layers": self.layers,
                "code_keys": self.code_keys, "errors": self.errors,
                "mul_kinds": dict(zip(MUL_KINDS, self.mul_kinds))}
        np.savez(path, meta=np.array(json.dumps(meta)),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def code_key(fn) -> tuple:
    """How cProfile names a function: (file, first line, name)."""
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def targets(mod, layer):
    """The functions and methods of `mod` to wrap: public names of public
    classes and functions defined there, operators, and `_PRIVATE`."""
    extra = _PRIVATE.get(layer, set())
    for attr, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if attr.startswith("_") and attr not in extra:
            continue
        if isinstance(obj, FunctionType):
            yield obj
        elif isinstance(obj, type):
            for mname, m in vars(obj).items():
                if mname.startswith("_") and mname not in _OPERATORS:
                    continue
                if isinstance(m, (classmethod, staticmethod)):
                    m = m.__func__
                if isinstance(m, FunctionType):
                    yield m


def _swap(value, table):
    """`value` with wrapped functions substituted, or `value` itself."""
    if isinstance(value, FunctionType):
        return table.get(value, value)
    if isinstance(value, classmethod) and value.__func__ in table:
        return classmethod(table[value.__func__])
    if isinstance(value, staticmethod) and value.__func__ in table:
        return staticmethod(table[value.__func__])
    if isinstance(value, tuple):
        new = tuple(_swap(v, table) for v in value)
        return new if any(a is not b for a, b in zip(new, value)) else value
    return value


def _rebind(namespace: dict, table: dict, setter) -> None:
    for key, value in list(namespace.items()):
        new = _swap(value, table)
        if new is not value:
            setter(key, new)
        elif isinstance(value, dict) and value is not namespace:
            for k, v in list(value.items()):
                nv = _swap(v, table)
                if nv is not v:
                    value[k] = nv
        elif isinstance(value, list):
            value[:] = [_swap(v, table) for v in value]


def install() -> Tracer:
    """Import every layer, wrap it, and rebind all references package-wide."""
    tracer = Tracer()
    table = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"bicontact.{layer}")
        for fn in targets(mod, layer):
            if fn not in table:
                table[fn] = tracer.wrap(fn, layer)
    modules = [m for name, m in list(sys.modules.items())
               if name == "bicontact" or name.startswith("bicontact.")]
    for mod in modules:
        ns = vars(mod)
        _rebind(ns, table, ns.__setitem__)
        for obj in list(ns.values()):
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                _rebind(dict(vars(obj)), table,
                        lambda k, v, cls=obj: setattr(cls, k, v))
    for fn in {f for mod in modules for f in vars(mod).values()
               if isinstance(f, FunctionType)} | set(table):
        if fn.__defaults__:
            fn.__defaults__ = _swap(fn.__defaults__, table)
        if fn.__kwdefaults__:
            _rebind(fn.__kwdefaults__, table, fn.__kwdefaults__.__setitem__)
    return tracer


# ---------------------------------------------------------------------------
# summaries of a dump

def load(path):
    import numpy as np
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        spans = {k: z[k] for k in ("name", "parent", "start", "end")}
    return meta, spans


def summarize(path, inclusive=()) -> dict:
    """Per-name and per-layer aggregates of a span dump.

    Returns ``calls``, ``self_s`` and ``errors`` per span name and per layer,
    the jet multiply kinds, and for each name in ``inclusive`` the wall time
    its outermost calls cover (calls nested in a call of the same name are
    not counted twice).
    """
    import numpy as np
    meta, sp = load(path)
    names, layers = meta["names"], meta["layers"]
    nname = len(names)
    dur = sp["end"] - sp["start"]
    has_parent = sp["parent"] >= 0
    child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_t = dur - child
    calls = np.bincount(sp["name"], minlength=nname)
    self_by_name = np.bincount(sp["name"], weights=self_t, minlength=nname)
    out = {"names": {}, "layers": {layer: {"calls": 0, "self_s": 0.0,
                                            "errors": 0} for layer in LAYERS},
           "mul_kinds": meta["mul_kinds"], "inclusive_s": {},
           "code_keys": dict(zip(names, map(tuple, meta["code_keys"]))),
           "spans": int(len(dur))}
    for i, name in enumerate(names):
        row = {"calls": int(calls[i]), "self_s": float(self_by_name[i]),
               "errors": int(meta["errors"][i])}
        out["names"][name] = row
        agg = out["layers"][layers[i]]
        agg["calls"] += row["calls"]
        agg["self_s"] += row["self_s"]
        agg["errors"] += row["errors"]
    ids = {name: i for i, name in enumerate(names)}
    parent, sname = sp["parent"], sp["name"]
    for name in inclusive:
        nid = ids.get(name)
        total = 0.0
        if nid is not None:
            for s in np.flatnonzero(sname == nid):
                p = parent[s]
                while p >= 0 and sname[p] != nid:
                    p = parent[p]
                if p < 0:
                    total += float(dur[s])
        out["inclusive_s"][name] = total
    return out
