"""A tiny closed-form expression language for coframe coefficients.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?
    base   := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')' | '-' base

``^`` is right-associative.  ``pi`` and ``e`` are predefined constants.
There is deliberately no abs() or sgn(): non-smooth functions would poison
jet arithmetic, and sign branches are chosen by the pipeline instead.

Identifiers are resolved at parse time against the chart coordinates and the
parameter table, so a well-formed AST has no free names.

Evaluation to jets runs on a :class:`Tape`: a sequence of ASTs compiled once
into an ordered list of operations over slots, in which structurally
identical subtrees share one slot (a ``Num`` by its bit pattern).  A run
computes each distinct subexpression once, at all of its sample points in
one pass, and returns one jet per root, a column per point.
The compiler also lowers each division to a product with one reciprocal per
divisor, and the circular and hyperbolic functions to one sin/cos or
sinh/cosh pair series per argument, so that ``cot(2*x)`` and ``csc(2*x)``
take one pair and one reciprocal between them.  Jet operations are pure
and the lowered ops are the ones ``Jet.__truediv__`` and ``jets.cot`` and
the rest run, so a shared slot's jet is bit-identical to computing the
subtree again; since slots follow the depth-first post-order of the
recursive evaluation, and a shared series raises under the name of its
first user, the first error raised is the same.  :func:`eval_number`
evaluates to a plain float.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import jets
from .errors import DomainError, ParseError, UnknownIdentifier
from .jets import Jet

__all__ = ["parse", "to_text", "Tape", "eval_number", "differentiate",
           "Num", "Var", "Neg", "BinOp", "Call", "FUNCTIONS"]

# function tag -> (jet implementation, float implementation, arity)
FUNCTIONS = {
    "sin": (jets.sin, math.sin, 1),
    "cos": (jets.cos, math.cos, 1),
    "tan": (jets.tan, math.tan, 1),
    "csc": (jets.csc, lambda v: 1.0 / math.sin(v), 1),
    "cot": (jets.cot, lambda v: math.cos(v) / math.sin(v), 1),
    "exp": (jets.exp, math.exp, 1),
    "ln": (jets.ln, math.log, 1),
    "sqrt": (jets.sqrt, math.sqrt, 1),
    "sinh": (jets.sinh, math.sinh, 1),
    "cosh": (jets.cosh, math.cosh, 1),
    "tanh": (jets.tanh, math.tanh, 1),
    "sech": (jets.sech, lambda v: 1.0 / math.cosh(v), 1),
    "asinh": (jets.asinh, math.asinh, 1),
    "atan": (jets.atan, math.atan, 1),
    "atan2": (jets.atan2, math.atan2, 2),
}

CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


# ---------------------------------------------------------------------------
# lexer / parser

_OPS = set("+-*/^(),")


def _tokenize(text):
    toks = []  # (kind, value, pos)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            toks.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE" and (
                j + 1 < n and (text[j + 1].isdigit() or
                               (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit()))
            ):
                j += 2 if text[j + 1] in "+-" else 1
                while j < n and text[j].isdigit():
                    j += 1
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ParseError(f"bad number literal {lit!r}", pos=i) from None
            toks.append(("num", val, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", pos=i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, toks, names):
        self.toks = toks
        self.k = 0
        self.names = names  # identifiers valid as variables

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect_op(self, ch):
        kind, val, pos = self.peek()
        if kind == "op" and val == ch:
            return self.take()
        raise ParseError(f"expected {ch!r}", pos=pos)

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                node = BinOp(val, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            node = BinOp("^", node, self.factor())
        return node

    def base(self):
        kind, val, pos = self.take()
        if kind == "num":
            return Num(val)
        if kind == "op" and val == "-":
            return Neg(self.base())
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            pk, pv, _ = self.peek()
            if pk == "op" and pv == "(":
                self.take()
                args = [self.expr()]
                while True:
                    k2, v2, p2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.take()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if val not in FUNCTIONS:
                    raise UnknownIdentifier(val)
                if len(args) != FUNCTIONS[val][2]:
                    raise ParseError(
                        f"{val} takes {FUNCTIONS[val][2]} argument(s), got {len(args)}",
                        pos=pos)
                return Call(val, tuple(args))
            if val not in self.names and val not in CONSTANTS:
                raise UnknownIdentifier(val)
            return Var(val)
        raise ParseError("expected a value", pos=pos)


def parse(text, coords=(), params=()):
    """Parse `text` into an AST; identifiers must come from coords/params."""
    toks = _tokenize(text)
    p = _Parser(toks, set(coords) | set(params))
    node = p.expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos=pos)
    return node


# ---------------------------------------------------------------------------
# printing (minimal parentheses; parse(to_text(ast)) reproduces ast)

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(node, parent_level, right_side):
    if isinstance(node, Num):
        return _fmt_num(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return node.name + "(" + ", ".join(_print(a, 0, False) for a in node.args) + ")"
    if isinstance(node, Neg):
        inner = _print(node.arg, 3, False)
        if isinstance(node.arg, BinOp) and node.arg.op == "^":
            # "-x^2" would re-parse as (-x)^2 under this grammar
            inner = "(" + inner + ")"
        s = "-" + inner
        # unary minus lives at the `base` level: parenthesize under any binop
        return "(" + s + ")" if parent_level >= 1 else s
    lvl = _LEVEL[node.op]
    if node.op == "^":
        left = _print(node.left, 5, False)       # base of ^ must be an atom
        right = _print(node.right, 4, True)      # right-assoc: bare ^ allowed
        s = left + "^" + right
    else:
        left = _print(node.left, lvl, False)
        right = _print(node.right, lvl + 1, True)
        s = left + node.op + right
    need = lvl < parent_level or (lvl == parent_level and right_side and node.op in "+-*/")
    # ^ as a left child of ^ needs parens (right-associativity)
    if parent_level == 5 and isinstance(node, BinOp):
        need = True
    return "(" + s + ")" if need else s


def to_text(node):
    return _print(node, 0, False)


# ---------------------------------------------------------------------------
# evaluation: a tape of distinct subexpressions

_NUM, _VAR = "num", "var"
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "^": jets.power}

# function -> (the pair whose one series it reads, the name under which
# that series raises, the name of its nonzero guard, the part it
# multiplies, the part it takes the reciprocal of), as jets.sin, jets.cot,
# jets.csc, jets.sech and the rest take them: csc and tanh raise in their
# pair's series as sin and sinh do, since they call them
_PAIRED = {
    "sin": (jets._sin_cos, "sin", None, 0, None),
    "cos": (jets._sin_cos, "cos", None, 1, None),
    "tan": (jets._sin_cos, "tan", "tan", 0, 1),
    "cot": (jets._sin_cos, "cot", "cot", 1, 0),
    "csc": (jets._sin_cos, "sin", "csc", None, 0),
    "sinh": (jets._sinh_cosh, "sinh", None, 0, None),
    "cosh": (jets._sinh_cosh, "cosh", None, 1, None),
    "tanh": (jets._sinh_cosh, "sinh", None, 0, 1),
    "sech": (jets._sinh_cosh, "cosh", None, None, 1),
}


class Tape:
    """The ASTs ``roots`` compiled once into an ordered list of operations.

    Each instruction is ``(op, arg)``: a constant (``_NUM``, its value), a
    name (``_VAR``, resolved per run), or a jet function with the slots of
    its arguments.  Structurally identical subtrees share one slot, so a run
    computes each distinct subexpression once.  A ``Num`` is keyed by its
    bit pattern, since ``Num(0.0) == Num(-0.0)``.  Slots are interned in
    depth-first post-order over the roots in the order given, which is the
    order of the recursive evaluation.

    Two lowerings let repeated series share a slot too.  ``a / b`` is
    ``a * reciprocal(b)``, with one reciprocal per divisor, as
    ``Jet.__truediv__`` takes it.  sin, cos, tan, cot and csc of one
    argument read one pair slot, ``jets._sin_cos``, and sinh, cosh, tanh
    and sech one ``jets._sinh_cosh``, followed by the guard, pick,
    reciprocal and product of ``jets.tan`` and the rest (``_PAIRED``).  A
    pair's series raises under the name its first user's jet function
    would give it, and a guard under its first user's name, so the first
    op to raise is the one the recursive evaluation would raise at, with
    the same type and text, and every root is bit-equal to it.  Nothing is
    folded: ``x*0`` stays a product, as inf*0 is NaN.

    A run carries each slot as one jet over all its points, an (ncoeffs,
    N) array through the same jet functions, and frees a slot after its
    last use; each point's jets are bit-equal to a run on its stack of
    one.
    """

    def __init__(self, roots):
        self.code = []
        slots = {}
        self.roots = tuple(self._intern(node, slots) for node in roots)
        # the slots to free after each instruction, their last reader
        last = {i: pos for pos, (op, arg) in enumerate(self.code)
                if op is not _NUM and op is not _VAR for i in arg}
        self._free = [[] for _ in self.code]
        for slot, pos in last.items():
            if slot not in self.roots:
                self._free[pos].append(slot)

    def _slot(self, slots, key, op, arg) -> int:
        """The slot of ``key``, appending ``(op, arg)`` on first use."""
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(self.code)
            self.code.append((op, arg))
        return slot

    def _intern(self, node, slots) -> int:
        if isinstance(node, Num):
            return self._slot(slots, (_NUM, struct.pack("<d", node.value)),
                              _NUM, node.value)
        if isinstance(node, Var):
            return self._slot(slots, (_VAR, node.name), _VAR, node.name)
        if isinstance(node, Neg):
            arg = (self._intern(node.arg, slots),)
            return self._slot(slots, ("neg", arg), operator.neg, arg)
        if isinstance(node, Call):
            arg = tuple(self._intern(a, slots) for a in node.args)
            if node.name in _PAIRED:
                return self._paired(slots, node.name, *arg)
            return self._slot(slots, (node.name, arg),
                              FUNCTIONS[node.name][0], arg)
        arg = (self._intern(node.left, slots),
               self._intern(node.right, slots))
        if node.op == "/":
            arg = (arg[0], self._reciprocal(slots, arg[1]))
            return self._slot(slots, ("*", arg), operator.mul, arg)
        return self._slot(slots, (node.op, arg), _BINARY[node.op], arg)

    def _reciprocal(self, slots, slot) -> int:
        return self._slot(slots, ("reciprocal", slot), jets.reciprocal,
                          (slot,))

    def _paired(self, slots, name, u) -> int:
        """The slot of ``name(u)`` for a function of ``_PAIRED``."""
        pair, series, guard, num, den = _PAIRED[name]
        both = self._slot(slots, (pair, u), partial(pair, fn=series), (u,))

        def part(i):
            return self._slot(slots, ("part", both, i), operator.itemgetter(i),
                              (both,))

        if den is None:
            return part(num)
        den = part(den)
        if guard is not None:
            # a check only; its slot holds None
            self._slot(slots, ("nonzero", u, den),
                       partial(jets._nonzero, guard), (u, den))
        out = self._reciprocal(slots, den)
        if num is None:
            return out
        arg = (part(num), out)
        return self._slot(slots, ("*", arg), operator.mul, arg)

    def run(self, x, order, coords, params=None) -> list:
        """The root jets at coordinate values ``x``, an (N,) array per
        coordinate for N points, seeding coordinate i with slot i; column k
        of each jet is point k's.

        The N points run as one pass over the tape.  Where some point fails,
        the pass raises at the first op that fails at any point, which need
        not be what the first failing point raises on its own;
        ``CoframeField.blocks`` then builds the list by halves, down to the
        failing point."""
        dim, count = len(coords), len(x[0])

        def constant(value):
            return Jet.constant(np.full(count, value), dim, order)

        env = {name: Jet.variable(x[i], i, dim, order)
               for i, name in enumerate(coords)}
        for name, value in (params or {}).items():
            env[name] = constant(float(value))
        for name, value in CONSTANTS.items():
            env.setdefault(name, constant(value))
        vals = []
        for (op, arg), free in zip(self.code, self._free):
            if op is _NUM:
                vals.append(constant(arg))
            elif op is _VAR:
                try:
                    vals.append(env[arg])
                except KeyError:
                    raise UnknownIdentifier(arg) from None
            else:
                vals.append(op(*[vals[i] for i in arg]))
            for i in free:
                vals[i] = None
        return [vals[i] for i in self.roots]


def eval_number(node, scope):
    """Plain float evaluation (no jets); scope maps names to numbers."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name in scope:
            return float(scope[node.name])
        if node.name in CONSTANTS:
            return CONSTANTS[node.name]
        raise UnknownIdentifier(node.name)
    if isinstance(node, Neg):
        return -eval_number(node.arg, scope)
    if isinstance(node, Call):
        fn = FUNCTIONS[node.name][1]
        return fn(*[eval_number(a, scope) for a in node.args])
    a = eval_number(node.left, scope)
    b = eval_number(node.right, scope)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    if math.isfinite(b) and b == int(b):
        try:
            return float(a ** int(b))
        except ZeroDivisionError:
            raise DomainError("power", a) from None
    if a < 0.0:
        raise DomainError("power", a)
    return float(a ** b)


# ---------------------------------------------------------------------------
# symbolic differentiation (used by generators that need f' as text)

def _is_num(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def _neg(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return BinOp("/", a, b)


def _pow(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    return BinOp("^", a, b)


_DERIVATIVES = {
    "sin": lambda u: Call("cos", (u,)),
    "cos": lambda u: _neg(Call("sin", (u,))),
    "tan": lambda u: _div(Num(1.0), _pow(Call("cos", (u,)), Num(2.0))),
    "csc": lambda u: _neg(_mul(Call("csc", (u,)), Call("cot", (u,)))),
    "cot": lambda u: _neg(_pow(Call("csc", (u,)), Num(2.0))),
    "exp": lambda u: Call("exp", (u,)),
    "ln": lambda u: _div(Num(1.0), u),
    "sqrt": lambda u: _div(Num(1.0), _mul(Num(2.0), Call("sqrt", (u,)))),
    "sinh": lambda u: Call("cosh", (u,)),
    "cosh": lambda u: Call("sinh", (u,)),
    "tanh": lambda u: _pow(Call("sech", (u,)), Num(2.0)),
    "sech": lambda u: _neg(_mul(Call("sech", (u,)), Call("tanh", (u,)))),
    "asinh": lambda u: _div(Num(1.0), Call("sqrt", (_add(_pow(u, Num(2.0)), Num(1.0)),))),
    "atan": lambda u: _div(Num(1.0), _add(Num(1.0), _pow(u, Num(2.0)))),
}


def differentiate(node, var):
    """Partial derivative of an AST with respect to the named variable."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return _neg(differentiate(node.arg, var))
    if isinstance(node, Call):
        if node.name == "atan2":
            y, x = node.args
            num = _sub(_mul(differentiate(y, var), x), _mul(differentiate(x, var), y))
            den = _add(_pow(x, Num(2.0)), _pow(y, Num(2.0)))
            return _div(num, den)
        u = node.args[0]
        return _mul(_DERIVATIVES[node.name](u), differentiate(u, var))
    a, b, da, db = node.left, node.right, \
        differentiate(node.left, var), differentiate(node.right, var)
    if node.op == "+":
        return _add(da, db)
    if node.op == "-":
        return _sub(da, db)
    if node.op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if node.op == "/":
        return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, Num(2.0)))
    # power: constant exponent stays algebraic, otherwise via exp/ln
    if _is_num(b):
        return _mul(_mul(b, _pow(a, Num(b.value - 1.0))), da)
    inner = _add(_mul(db, Call("ln", (a,))), _div(_mul(b, da), a))
    return _mul(_pow(a, b), inner)
