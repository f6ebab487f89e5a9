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
Parentheses, calls and unary minus nest at most 200 levels deep.

Evaluation is guarded rather than exception-driven: results that leave the
representable range come back as event values (`InfinityEvent`,
`PoleEvent`) instead of raising. ``exp`` is treated as overflowed as soon
as the real part of its argument exceeds 700, and ``sin``/``cos`` as soon
as the imaginary part of theirs does, since beyond that the double range
is effectively exhausted. Division by exact zero yields `PoleEvent`; it
can only arise for the meromorphic oracle family ``1/pow(z,d)``.

All expression trees are immutable and safe to share across threads.
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import itertools
import math
import operator
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Var:
    """The free variable ``z``."""


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Named:
    """A reserved constant: ``pi``, ``e`` or ``i``."""

    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int  # >= 1


@dataclass(frozen=True)
class Call:
    name: str  # one of exp sin cos
    arg: "Expr"


@dataclass(frozen=True)
class Apply:
    """Composition node: evaluate ``inner`` first, then ``outer`` there."""

    outer: "Expr"
    inner: "Expr"


Expr = Union[Var, Const, Named, Neg, BinOp, Pow, Call, Apply]


@dataclass(frozen=True, eq=False)
class FunctionExpr:
    """An immutable function of ``z``, wrapping an expression tree.

    Equality and hashing read the compiled program, so that neither
    recurses once per tree level.
    """

    root: Expr

    def __str__(self) -> str:
        return format_expr(self)

    def _key(self) -> tuple:
        return tuple((op, type(node), arg) for op, node, arg in compile_expr(self).code)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, FunctionExpr) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class InfinityEvent:
    """Evaluation left the representable range at ``node``."""

    node: Expr


@dataclass(frozen=True)
class PoleEvent:
    """Division by exact zero at ``node``."""

    node: Expr


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

_SYMBOLS = "+-*/(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | symbol | end
    text: str
    offset: int  # 1-based byte offset of the first byte


def _tokenize(text: str) -> list[_Token]:
    # byte offset of each character position, for error reporting
    starts = [1]
    for ch in text:
        starts.append(starts[-1] + len(ch.encode("utf-8")))
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token("symbol", ch, starts[i]))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_Token("number", text[i:j], starts[i]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], starts[i]))
            i = j
            continue
        raise ExprSyntaxError(starts[i], "a number, name, operator or parenthesis")
    tokens.append(_Token("end", "", starts[n]))
    return tokens


# --- parser ------------------------------------------------------------

# Deepest nesting of parentheses, calls and unary minus that `parse` takes:
# at up to four stack frames a level, within Python's default recursion limit.
_MAX_NESTING = 200


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_symbol(self, sym: str) -> None:
        tok = self.peek()
        if tok.kind != "symbol" or tok.text != sym:
            raise ExprSyntaxError(tok.offset, f"'{sym}'")
        self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "symbol" and tok.text in "+-":
                self.advance()
                node = BinOp(tok.text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "symbol" and tok.text in "*/":
                self.advance()
                node = BinOp(tok.text, node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if self.depth > _MAX_NESTING:
            raise ExprSyntaxError(tok.offset, f"at most {_MAX_NESTING} levels of nesting")
        self.depth += 1
        if tok.kind == "symbol" and tok.text == "-":
            self.advance()
            node: Expr = Neg(self.parse_factor())
        else:
            node = self.parse_atom()
        self.depth -= 1
        return node

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(tok.offset, "a finite number")
            self.advance()
            return Const(complex(value))
        if tok.kind == "name":
            if tok.text == "z":
                self.advance()
                return Var()
            if tok.text in _NAMED_VALUES:
                self.advance()
                return Named(tok.text)
            if tok.text in _FUNC_NAMES:
                self.advance()
                self.expect_symbol("(")
                arg = self.parse_expr()
                self.expect_symbol(")")
                return Call(tok.text, arg)
            if tok.text == "pow":
                self.advance()
                self.expect_symbol("(")
                base = self.parse_expr()
                self.expect_symbol(",")
                exp_tok = self.peek()
                if exp_tok.kind != "number" or not exp_tok.text.isdigit() or int(exp_tok.text) < 1:
                    raise ExprSyntaxError(exp_tok.offset, "a positive integer exponent")
                self.advance()
                self.expect_symbol(")")
                return Pow(base, int(exp_tok.text))
            raise ExprSyntaxError(tok.offset, "a value (unknown name)")
        if tok.kind == "symbol" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_symbol(")")
            return node
        raise ExprSyntaxError(tok.offset, "a value")


def parse(text: str) -> FunctionExpr:
    """Parse an expression string into a `FunctionExpr`.

    Raises `ExprSyntaxError` with a 1-based byte offset and a description
    of the expected token on malformed input.
    """
    parser = _Parser(_tokenize(text))
    root = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(tok.offset, "end of input")
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


def format_expr(f: FunctionExpr | Expr) -> str:
    """Render an expression to a string that reparses to the same tree.

    The guarantee is structural for any tree produced by `parse`.
    Programmatic trees containing complex constants or composition nodes
    render to semantically equal expressions in the plain grammar.

    Rendering runs the compiled program over ``(text, level)`` fragments,
    without recursion; ``Var`` renders as the inner map of the innermost
    ``Apply``, or as ``z``.
    """
    stack: list = []
    bound = [("z", _ATOM)]
    for op, node, arg in compile_expr(f).code:
        if op == "load":
            stack.append(bound[-1] if arg is None else _leaf(node))
        elif op == "bind":
            bound.append(stack.pop())
        elif op == "unbind":
            bound.pop()
        elif op == "neg":
            stack.append(("-" + _wrap(stack.pop(), _UNARY), _UNARY))
        elif op == "pow":
            stack.append((f"pow({stack.pop()[0]},{arg})", _ATOM))
        elif op in _FUNC_NAMES:
            stack.append((f"{op}({stack.pop()[0]})", _ATOM))
        else:
            level, right_minimum = (_SUM, _TERM) if op in "+-" else (_TERM, _UNARY)
            right = _wrap(stack.pop(), right_minimum)
            stack.append((_wrap(stack.pop(), level) + op + right, level))
    return stack.pop()[0]


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
    reduction: a lane sum is finite iff every lane is, and no divisor is
    zero iff all are counted nonzero. ``exp``/``sin``/``cos`` count the
    lanes whose argument is past its limit. A lane mask is built only when
    a test fires, and only constant maps are broadcast.
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
                if op == "/" and np.count_nonzero(y) != np.size(y):
                    marks.append((EVENT_POLE, y == 0, node))
                v = _BINARY[op](x, y)
            if check and not cmath.isfinite(np.add.reduce(v, axis=None)):
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
