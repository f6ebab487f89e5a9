"""Complex function expressions: parsing, evaluation, and composition.

Expressions denote entire (or oracle meromorphic) maps of one complex
variable ``z``. The surface syntax is a small arithmetic language:

    expr   :  term (("+" | "-") term)*
    term   :  factor (("*" | "/") factor)*
    factor :  "-" factor | atom
    atom   :  number | "z" | "i" | "pi" | "e"
           |  ("exp" | "sin" | "cos") "(" expr ")"
           |  "pow" "(" expr "," integer ")"
           |  "(" expr ")"
    number :  digits ["." digits] [("e" | "E") ["+" | "-"] digits]

There is no implicit multiplication, ``i``/``pi``/``e`` are reserved, and
the ``pow`` exponent must be a positive integer literal. Numbers must be
finite doubles (not ``1e999``). Complex literals are spelled ``a+b*i``.
``digits`` are Unicode decimal digits (``١`` reads as 1, but ``²`` is a
syntax error). Parentheses, calls and unary minus nest at most 200 levels
deep.

Evaluation is guarded rather than exception-driven: results that leave the
representable range come back as event values (`InfinityEvent`,
`PoleEvent`) instead of raising. ``exp`` is treated as overflowed as soon
as the real part of its argument exceeds 700, and ``sin``/``cos`` as soon
as the imaginary part of theirs does, since beyond that the double range
is effectively exhausted. Division by exact zero yields `PoleEvent`; it
can only arise for the meromorphic oracle family ``1/pow(z,d)``.

Expression nodes and `FunctionExpr` are immutable slotted values, safe
to share across threads. Built by hand, they refuse what `parse` does: a
`Const` must be finite and a `Pow` exponent an int >= 1. They have one
identity rule: ``==`` and ``hash`` read the value's type and its compiled
program, which `compile_expr` builds without recursion; a node's
``repr`` is built from that program.
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import itertools
import math
import operator
import re
from typing import NamedTuple, Optional, Union

import numpy as np

__all__ = [
    "Var",
    "Const",
    "Named",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "Apply",
    "FunctionExpr",
    "InfinityEvent",
    "PoleEvent",
    "ExprSyntaxError",
    "parse",
    "format_expr",
    "evaluate",
    "eval_array",
    "compile_expr",
    "Program",
    "compose",
    "conjugate",
    "affine_post",
    "EVENT_NONE",
    "EVENT_INFINITY",
    "EVENT_POLE",
    "EXP_REAL_LIMIT",
    "TRIG_IMAG_LIMIT",
]

EXP_REAL_LIMIT = 700.0
TRIG_IMAG_LIMIT = 700.0

EVENT_NONE = 0
EVENT_INFINITY = 1
EVENT_POLE = 2


class _Record:
    """An immutable record whose fields, ``_fields``, are the ``__slots__``
    of its class and its bases, in order.

    It is built from values by position or keyword, with ``_defaults``
    for the fields left out, and then checked by ``__post_init__``. ``==``,
    between records of one exact type, and ``hash`` read the fields, and
    the ``repr`` names them, all but those of ``_hidden``. Copies and pickles
    rebuild the record from all its fields. No code is generated per class.
    """

    __slots__ = ()
    _fields: tuple = ()
    _shown: tuple = ()  # the fields that ==, hash and repr read
    _hidden: tuple = ()
    _defaults: dict = {}
    _setters: tuple = ()  # the __set__ of each field's slot

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__slots__", ()))
        cls._shown = tuple(name for name in cls._fields if name not in cls._hidden)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            fields, rest = self._fields, {**self._defaults, **kwargs}
            try:
                full = (*args, *[rest.pop(k) for k in fields[len(args) :]])
            except KeyError:
                full = ()
            if len(full) != len(fields) or kwargs.keys() & rest.keys():  # a field missing, unknown or given twice
                raise TypeError(f"{type(self).__name__} takes fields {fields}, "
                                f"got {len(args)} values and keywords {sorted(kwargs)}")
            args = full
        for setter, value in zip(setters, args):
            setter(self, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Refuse bad field values; a record without checks takes any."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self._shown)})"

    def _plain_fields(self) -> dict:
        """The fields by name, numpy scalars as the Python numbers JSON takes."""
        values = (getattr(self, name) for name in self._fields)
        return {k: v.item() if isinstance(v, np.generic) else v for k, v in zip(self._fields, values)}


class _Value(_Record):
    """An expression value: a `_Record` with its own identity rule.

    ``==`` and ``hash`` read the value's type and its compiled program (see
    `compile_expr`), and a node's ``repr`` is built from that program, so
    none of them recurses once per tree level. Copies and pickles rebuild
    the value from the flat post-order list of `_flatten`, with a stack,
    so they do not recurse either.
    """

    __slots__ = ()

    def __reduce__(self):
        return _rebuild, (_flatten(self),)

    def _key(self) -> tuple:
        return type(self), tuple((op, type(node), arg) for op, node, arg in compile_expr(self).code)

    def __repr__(self) -> str:
        stack: list = []  # the reprs of the nodes whose parents are still to come
        for op, node, _ in compile_expr(self).code:
            if op == "bind":
                continue
            values = [getattr(node, name) for name in node.__slots__]
            operands = [stack.pop() for value in values if isinstance(value, _Value)]
            if op != "unbind":  # operands were pushed in field order, but an Apply's inner map first
                operands.reverse()
            operands = iter(operands)
            fields = (f"{name}={next(operands) if isinstance(value, _Value) else repr(value)}"
                      for name, value in zip(node.__slots__, values))
            stack.append(f"{type(node).__qualname__}({', '.join(fields)})")
        return stack.pop()


# The fields of expression values that hold child values.
_CHILD_FIELDS = frozenset(("arg", "left", "right", "base", "outer", "inner", "root"))


def _flatten(value: _Value) -> tuple:
    """``value``'s tree in post-order, without recursion: per value, its
    type and its other fields; a value met before is its position instead."""
    entries: list = []
    seen: dict = {}  # id of a value -> its position in entries
    todo: list = [(value, False)]
    while todo:
        item, done = todo.pop()
        if id(item) in seen:
            entries.append(seen[id(item)])
        elif done:
            seen[id(item)] = len(entries)
            entries.append((type(item), tuple(getattr(item, f) for f in item.__slots__ if f not in _CHILD_FIELDS)))
        else:
            todo.append((item, True))
            todo += [(getattr(item, f), False) for f in reversed(item.__slots__) if f in _CHILD_FIELDS]
    return tuple(entries)


def _rebuild(entries: tuple) -> _Value:
    """The value `_flatten` took apart, rebuilt with a stack."""
    built: list = []  # the value of each entry
    stack: list = []
    for entry in entries:
        if isinstance(entry, int):
            value = built[entry]
        else:
            kind, plain = entry
            plain = iter(plain)
            arity = sum(f in _CHILD_FIELDS for f in kind.__slots__)
            children = iter(stack[len(stack) - arity :])
            del stack[len(stack) - arity :]
            value = kind(*(next(children) if f in _CHILD_FIELDS else next(plain) for f in kind.__slots__))
        built.append(value)
        stack.append(value)
    return stack.pop()


class Var(_Value):
    """The free variable ``z``."""

    __slots__ = ()


class Const(_Value):
    __slots__ = ("value",)  # complex

    def __post_init__(self) -> None:
        if not cmath.isfinite(self.value):  # as parse refuses 1e999
            raise ValueError(f"a constant must be finite, not {self.value!r}")


class Named(_Value):
    """A reserved constant: ``pi``, ``e`` or ``i``."""

    __slots__ = ("name",)

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name in _NAMED_VALUES):
            raise ValueError(f"a named constant must be pi, e or i, not {self.name!r}")


class Neg(_Value):
    __slots__ = ("arg",)


class BinOp(_Value):
    __slots__ = ("op", "left", "right")

    def __post_init__(self) -> None:
        if not (isinstance(self.op, str) and self.op in _BINARY):
            raise ValueError(f"a binary operator must be +, -, * or /, not {self.op!r}")


class Pow(_Value):
    __slots__ = ("base", "exponent")

    def __post_init__(self) -> None:
        if type(self.exponent) is not int or self.exponent < 1:  # as parse refuses pow(z,0)
            raise ValueError(f"a pow exponent must be an int >= 1, not {self.exponent!r}")


class Call(_Value):
    __slots__ = ("name", "arg")

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name in _UFUNCS):
            raise ValueError(f"a function must be exp, sin or cos, not {self.name!r}")


class Apply(_Value):
    """Composition node: evaluate ``inner`` first, then ``outer`` there."""

    __slots__ = ("outer", "inner")


Expr = Union[Var, Const, Named, Neg, BinOp, Pow, Call, Apply]


class FunctionExpr(_Value):
    """An immutable function of ``z``, wrapping an expression tree.

    Its ``repr`` renders the text, and its identity is its tree's.
    """

    __slots__ = ("root",)

    def __str__(self) -> str:
        return format_expr(self)

    def __repr__(self) -> str:
        return f"parse({format_expr(self)!r})"


class InfinityEvent(_Record):
    """Evaluation left the representable range at ``node``."""

    __slots__ = ("node",)  # an Expr


class PoleEvent(_Record):
    """Division by exact zero at ``node``."""

    __slots__ = ("node",)  # an Expr


EvalResult = Union[complex, InfinityEvent, PoleEvent]

_NAMED_VALUES = {"pi": complex(np.pi), "e": complex(np.e), "i": 1j}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_UFUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}
_FUNC_NAMES = tuple(_UFUNCS)
_UNCHECKED = ("load", "bind", "unbind", "neg")  # instructions that never check finiteness
_CARRIERS = ("+", "-", "*")  # an inf or NaN operand lane is inf or NaN in the result
_ARITY = {"load": 0, "unbind": 0, "+": 2, "-": 2, "*": 2, "/": 2}  # operands popped; others pop 1


class ExprSyntaxError(ValueError):
    """Parse failure, carrying a 1-based byte offset into the source."""

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"syntax error at offset {offset}: expected {expected}")


# --- tokenizer ---------------------------------------------------------

# One alternative per token kind; anything else is a bad character. Digits
# are Unicode decimal digits, which float() and int() accept.
_TOKEN = re.compile(r"(?P<blank>[ \t\r\n]+)|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
                    r"|(?P<name>[^\W\d]\w*)|(?P<symbol>[-+*/(),])|(?P<bad>.)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, offset)`` tokens of ``text`` and an ``end`` token;
    ``offset`` is the 1-based byte offset of the token's first byte."""
    tokens = []
    offset = 1
    for match in _TOKEN.finditer(text):
        kind, lexeme = match.lastgroup, match.group()
        if kind == "bad":
            raise ExprSyntaxError(offset, "a number, name, operator or parenthesis")
        if kind != "blank":
            tokens.append((kind, lexeme, offset))
        offset += len(lexeme.encode("utf-8"))
    tokens.append(("end", "", offset))
    return tokens


# --- parser ------------------------------------------------------------

# Deepest nesting of parentheses, calls and unary minus that `parse` takes:
# at up to four stack frames a level, within Python's default recursion limit.
_MAX_NESTING = 200


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> None:
        self.pos += 1

    def expect_symbol(self, sym: str) -> None:
        kind, text, offset = self.peek()
        if kind != "symbol" or text != sym:
            raise ExprSyntaxError(offset, f"'{sym}'")
        self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "symbol" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "symbol" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Expr:
        kind, text, offset = self.peek()
        if self.depth > _MAX_NESTING:
            raise ExprSyntaxError(offset, f"at most {_MAX_NESTING} levels of nesting")
        self.depth += 1
        if kind == "symbol" and text == "-":
            self.advance()
            node: Expr = Neg(self.parse_factor())
        else:
            node = self.parse_atom()
        self.depth -= 1
        return node

    def parse_atom(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "number":
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(offset, "a finite number")
            self.advance()
            return Const(complex(value))
        if kind == "name":
            if text == "z":
                self.advance()
                return Var()
            if text in _NAMED_VALUES:
                self.advance()
                return Named(text)
            if text in _FUNC_NAMES:
                self.advance()
                self.expect_symbol("(")
                arg = self.parse_expr()
                self.expect_symbol(")")
                return Call(text, arg)
            if text == "pow":
                self.advance()
                self.expect_symbol("(")
                base = self.parse_expr()
                self.expect_symbol(",")
                exp_kind, exp_text, exp_offset = self.peek()
                if exp_kind != "number" or not exp_text.isdigit() or int(exp_text) < 1:
                    raise ExprSyntaxError(exp_offset, "a positive integer exponent")
                self.advance()
                self.expect_symbol(")")
                return Pow(base, int(exp_text))
            raise ExprSyntaxError(offset, "a value (unknown name)")
        if kind == "symbol" and text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_symbol(")")
            return node
        raise ExprSyntaxError(offset, "a value")


def parse(text: str) -> FunctionExpr:
    """Parse an expression string into a `FunctionExpr`.

    Raises `ExprSyntaxError` with a 1-based byte offset and a description
    of the expected token on malformed input.
    """
    parser = _Parser(_tokenize(text))
    root = parser.parse_expr()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(offset, "end of input")
    return FunctionExpr(root)


# --- formatting --------------------------------------------------------

# binding strength of a rendered fragment; parents require a minimum level
_ATOM = 4
_UNARY = 3
_TERM = 2
_SUM = 1


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _leaf(node: Union[Const, Named]) -> tuple[str, int]:
    if isinstance(node, Named):
        return node.name, _ATOM
    re, im = node.value.real, node.value.imag
    if im == 0:
        if re >= 0:
            return _fmt_real(re), _ATOM
        return "-" + _fmt_real(-re), _UNARY
    if re == 0:
        if im >= 0:
            return _fmt_real(im) + "*i", _TERM
        return "-" + _fmt_real(-im) + "*i", _TERM
    sign = "+" if im >= 0 else "-"
    return f"{_fmt_real(re) if re >= 0 else '-' + _fmt_real(-re)}{sign}{_fmt_real(abs(im))}*i", _SUM


def _wrap(fragment: tuple[str, int], minimum: int) -> str:
    text, level = fragment
    return "(" + text + ")" if level < minimum else text


def _render(k: int, op: str, node, arg, x=None, y=None) -> tuple[str, int]:
    """The ``(text, level)`` fragment of one instruction from its operands'."""
    if op == "load":
        return _leaf(node)
    if op == "neg":
        return "-" + _wrap(x, _UNARY), _UNARY
    if op == "pow":
        return f"pow({x[0]},{arg})", _ATOM
    if op in _FUNC_NAMES:
        return f"{op}({x[0]})", _ATOM
    level, right_minimum = (_SUM, _TERM) if op in "+-" else (_TERM, _UNARY)
    return _wrap(x, level) + op + _wrap(y, right_minimum), level


def format_expr(f: FunctionExpr | Expr) -> str:
    """Render an expression to a string that reparses to the same tree.

    The guarantee is structural for any tree produced by `parse`.
    Programmatic trees containing complex constants or composition nodes
    render to semantically equal expressions in the plain grammar.

    Rendering walks the compiled program over ``(text, level)`` fragments,
    without recursion; ``Var`` renders as the inner map of the innermost
    ``Apply``, or as ``z``.
    """
    return _walk(compile_expr(f), ("z", _ATOM), _render)[0]


# --- evaluation --------------------------------------------------------


class Program(NamedTuple):
    """A map compiled by `compile_expr`: a flat post-order instruction list.

    Each instruction ``(op, node, arg)`` keeps its ``node`` so that events
    can name it; ``arg`` is a ``load``'s constant (None loads what ``Var``
    reads) or a ``pow`` exponent. ``checked[k]`` says whether instruction
    ``k`` checks its value's finiteness; a ``Program(code)`` built by hand
    leaves it None, and then every ``+ - * / pow exp sin cos`` checks.
    """

    code: tuple
    checked: Optional[tuple] = None


def _walk(program: Program, var, apply):
    """The value of ``program`` in some arithmetic, without recursion.

    ``Var`` reads ``var``, or the inner value of the innermost ``Apply``,
    which ``bind`` and ``unbind`` push and pop. Every other instruction
    ``k`` has the value ``apply(k, op, node, arg, *operands)``: no operand
    for a constant's ``load``, two for ``+ - * /``, one for the rest.

    `_run` keeps a loop of its own, since a call per instruction would
    slow a one-lane `eval_array` by 5-12%; `compile_expr` and a node's
    ``repr`` read the tree's structure, not the values ``Var`` reads.
    """
    stack: list = []
    env = [var]
    for k, (op, node, arg) in enumerate(program.code):
        if op == "load":
            stack.append(env[-1] if arg is None else apply(k, op, node, arg))
        elif op == "bind":
            env.append(stack.pop())
        elif op == "unbind":
            env.pop()
        elif _ARITY.get(op, 1) == 1:
            stack.append(apply(k, op, node, arg, stack.pop()))
        else:
            y = stack.pop()
            stack.append(apply(k, op, node, arg, stack.pop(), y))
    return stack.pop()


def compile_expr(f: FunctionExpr | Expr) -> Program:
    """Compile ``f`` once into a `Program`, without recursion.

    Operands precede the node that uses them, in reading order, so events
    fire in depth-first order. ``Apply`` becomes its inner map, ``bind``
    (``Var`` now reads that value), its outer map and ``unbind``.

    An instruction whose only consumer is ``+``, ``-`` or ``*`` is not
    checked: those operations carry an inf or NaN lane on to their own
    value, which is checked or carried on in turn, up to the last
    instruction, so the same lanes are marked. Unary minus never checks,
    so it carries nothing. In a program with ``/`` every instruction is
    checked, so that no pole mark overtakes an earlier infinity mark.
    """
    code: list = []
    todo: list = [f.root if isinstance(f, FunctionExpr) else f]  # nodes, and instructions due
    while todo:
        item = todo.pop()
        if isinstance(item, tuple):
            code.append(item)
        elif isinstance(item, Var):
            code.append(("load", item, None))
        elif isinstance(item, (Const, Named)):
            value = item.value if isinstance(item, Const) else _NAMED_VALUES[item.name]
            code.append(("load", item, np.complex128(value)))
        elif isinstance(item, Apply):
            todo += [("unbind", item, None), item.outer, ("bind", item, None), item.inner]
        elif isinstance(item, BinOp):
            todo += [(item.op, item, None), item.right, item.left]
        elif isinstance(item, Pow):
            todo += [("pow", item, item.exponent), item.base]
        elif isinstance(item, (Neg, Call)):
            todo += [("neg" if isinstance(item, Neg) else item.name, item, None), item.arg]
        else:
            raise TypeError(f"not an expression node: {item!r}")
    checked = [op not in _UNCHECKED for op, _, _ in code]
    if "/" not in {op for op, _, _ in code}:
        operands: list = []  # indices of the instructions whose values are on the stack
        for k, (op, _, _) in enumerate(code):
            used = [operands.pop() for _ in range(_ARITY.get(op, 1))]
            if op in _CARRIERS:
                for j in used:
                    checked[j] = False
            if op not in ("bind", "unbind"):
                operands.append(k)
    return Program(tuple(code), tuple(checked))


# Set by `_ignoring_errors`, which holds np.errstate(all="ignore") across many eval_array calls.
_ERRORS_IGNORED = contextvars.ContextVar("errors_ignored", default=False)


@contextlib.contextmanager
def _ignoring_errors():
    token = _ERRORS_IGNORED.set(True)
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _ERRORS_IGNORED.reset(token)


def _run(program: Program, z: np.ndarray) -> tuple[np.ndarray, list]:
    """Run ``program`` over ``z``: its values, and the marks ``(event code,
    lane mask, node)`` of the tests that fired, in evaluation order.

    A checked node (see `Program.checked`) tests its lanes with one
    reduction: a lane sum is finite iff every lane is. ``exp``/``sin``/``cos``
    count the lanes whose argument is past its limit. A ``/`` counts its
    zero divisors only when its quotient fails that test, checked or not,
    since a complex ``x/0`` is never finite; their pole mark comes before
    the node's infinity mark. A lane mask is built only when a test fires,
    and only constant maps are broadcast.
    """
    stack: list = []
    env = [z]  # what Var reads: z, or the inner value of the innermost Apply
    marks = []
    checks = itertools.repeat(True) if program.checked is None else program.checked
    with contextlib.nullcontext() if _ERRORS_IGNORED.get() else np.errstate(all="ignore"):
        for (op, node, arg), check in zip(program.code, checks):
            if op == "load":
                stack.append(env[-1] if arg is None else arg)
                continue
            if op == "bind":
                env.append(stack.pop())
                continue
            if op == "unbind":
                env.pop()
                continue
            x = stack.pop()
            if op == "neg":
                stack.append(-x)
                continue
            if op in _FUNC_NAMES:
                over = np.real(x) > EXP_REAL_LIMIT if op == "exp" else np.abs(np.imag(x)) > TRIG_IMAG_LIMIT
                if np.count_nonzero(over):
                    marks.append((EVENT_INFINITY, over, node))
                v = _UFUNCS[op](x)
            elif op == "pow":
                v = x**arg
            else:
                x, y = stack.pop(), x
                v = _BINARY[op](x, y)
            if (check or op == "/") and not cmath.isfinite(np.add.reduce(v, axis=None)):
                if op == "/" and np.count_nonzero(y) != np.size(y):  # x/0 is never finite
                    marks.append((EVENT_POLE, y == 0, node))
                if check:
                    marks.append((EVENT_INFINITY, ~np.isfinite(v), node))
            stack.append(v)
        values = stack.pop()
        if not (isinstance(values, np.ndarray) and values.dtype == np.complex128 and values.shape == z.shape):
            values = np.broadcast_to(np.asarray(values, dtype=np.complex128), z.shape)  # a constant map
    return values, marks


def eval_array(f: FunctionExpr | Expr | Program, z: np.ndarray):
    """Evaluate ``f`` elementwise over a complex array.

    ``f`` may be a `Program`, so that a caller evaluating one map many
    times compiles it once. Returns ``(values, events)``. Event codes are
    EVENT_NONE, EVENT_INFINITY, EVENT_POLE; the first event along the
    evaluation order wins and later garbage in that lane is ignored.
    Values at event positions are unspecified.
    """
    program = f if isinstance(f, Program) else compile_expr(f)
    z = np.asarray(z, dtype=np.complex128)
    values, marks = _run(program, z)
    events = np.zeros(z.shape, dtype=np.int8)
    for code, mask, _ in marks:
        events[mask & (events == EVENT_NONE)] = code
    return values, events


def evaluate(f: FunctionExpr, z: complex) -> EvalResult:
    """Evaluate at a single point: a value, or the first event and the node it names."""
    # Program(code) checks every node, so the first mark is the lane's first event.
    values, marks = _run(Program(compile_expr(f).code), np.array([z], dtype=np.complex128))
    if marks:
        code, _, node = marks[0]
        return InfinityEvent(node) if code == EVENT_INFINITY else PoleEvent(node)
    return complex(values[0])


# --- composition and affine algebra -------------------------------------


def compose(f: FunctionExpr, g: FunctionExpr) -> FunctionExpr:
    """The composite map ``z -> f(g(z))``."""
    return FunctionExpr(Apply(f.root, g.root))


def _check_affine(a: complex, b: complex) -> None:
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise ValueError("affine coefficients a and b must be finite")
    if a == 0:
        raise ValueError("affine coefficient a must be nonzero")


def affine_post(f: FunctionExpr, a: complex, b: complex) -> FunctionExpr:
    """The map ``z -> a*f(z) + b`` with finite ``a != 0`` and ``b``."""
    _check_affine(a, b)
    return FunctionExpr(BinOp("+", BinOp("*", Const(complex(a)), f.root), Const(complex(b))))


def conjugate(f: FunctionExpr, a: complex, b: complex) -> FunctionExpr:
    """The conjugate map ``phi o f o phi^-1`` for ``phi(z) = a*z + b``, ``a != 0``."""
    _check_affine(a, b)
    inverse = BinOp("/", BinOp("-", Var(), Const(complex(b))), Const(complex(a)))
    transported = Apply(f.root, inverse)
    return FunctionExpr(BinOp("+", BinOp("*", Const(complex(a)), transported), Const(complex(b))))
