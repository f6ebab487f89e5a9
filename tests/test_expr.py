"""Grammar, evaluation, and algebra of function expressions.

Oracle values used below are derived by hand or by independent two-step
evaluation inside the test, never by running the code under test twice.
"""

from __future__ import annotations

import cmath
import contextlib
import copy
import math
import pickle
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bungee.expr
import bungee.orbit
from bungee import (
    Classification,
    ExprSyntaxError,
    InfinityEvent,
    PoleEvent,
    affine_post,
    classify_batch,
    classify_point,
    compose,
    conjugate,
    evaluate,
    format_expr,
    get_example,
    list_examples,
    parse,
)
from bungee.expr import (
    EVENT_INFINITY,
    EVENT_NONE,
    EVENT_POLE,
    Apply,
    BinOp,
    Call,
    Const,
    FunctionExpr,
    Named,
    Neg,
    Pow,
    Program,
    Var,
    _ignoring_errors,
    _tokenize,
    compile_expr,
    eval_array,
)

# Deterministic off-axis sample points reused across identity checks.
SAMPLE_POINTS = [
    0 + 0j,
    1 + 0j,
    -0.5 + 0.25j,
    0.3 - 1.2j,
    2 + 2j,
    -1.7 + 0.9j,
    0 + 1j,
    0.125 - 0.875j,
    -2 - 0.1j,
    1.5 + 0.5j,
]


# --- parsing -------------------------------------------------------------


def test_parse_identity():
    f = parse("z")
    for z in SAMPLE_POINTS:
        assert evaluate(f, z) == z


def test_parse_is_whitespace_insensitive():
    assert parse("z + sin( z ) + 2*pi") == parse("z+sin(z)+2*pi")


def test_parse_unterminated_call_reports_offset_and_expectation():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("exp(z")
    assert exc.value.offset == 6
    assert ")" in exc.value.expected


@pytest.mark.parametrize(
    "text",
    [
        "",
        "z +",
        "(z",
        "2z",
        "2 pi",
        "z ** 2",
        "pow(z)",
        "pow(z, 0)",
        "pow(z, -2)",
        "pow(z, 1.5)",
        "pow(z, z)",
        "sin z",
        "w",
        "1..2",
        "²",
        "z*²",
        "pow(z,²)",
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ExprSyntaxError):
        parse(text)


# Digits are Unicode decimal digits, which float() and int() read; a
# superscript is a digit to str.isdigit() but not to them.
@pytest.mark.parametrize("text, offset", [("²", 1), ("z*²", 3), ("pow(z,²)", 7), ("z+١²", 5)])
def test_superscript_digits_are_a_syntax_error_at_their_offset(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text, plain", [("z+١", "z+1"), ("pow(z,١)", "pow(z,1)"), ("١٢.٥*z", "12.5*z")])
def test_decimal_digits_of_any_script_are_numbers(text, plain):
    assert parse(text) == parse(plain)


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The character-by-character scanner the regular expression replaced.

    It reads digits by ``str.isdigit``, so it takes a superscript for a
    number; on ASCII input its tokens, offsets and errors are the grammar's.
    """
    starts = [1]  # byte offset of each character position
    for ch in text:
        starts.append(starts[-1] + len(ch.encode("utf-8")))
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "+-*/(),":
            tokens.append(("symbol", ch, starts[i]))
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
            tokens.append(("number", text[i:j], starts[i]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], starts[i]))
            i = j
            continue
        raise ExprSyntaxError(starts[i], "a number, name, operator or parenthesis")
    tokens.append(("end", "", starts[n]))
    return tokens


def _scan(tokenize, text):
    try:
        return tokenize(text)
    except ExprSyntaxError as exc:
        return ("error", exc.offset, str(exc))


# The grammar's alphabet, blanks (trailing ones too), and a few characters
# no token takes.
@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="zipexsncow_0123456789.eE+-*/(), \t\r\n#^\x0b", max_size=24))
def test_scanner_matches_reference_on_ascii(text):
    assert _scan(_tokenize, text) == _scan(reference_tokenize, text)


@pytest.mark.parametrize("text", ["6 ", " ", "", "1.", "1e", "1e+", "1.5e-3z", "1_0", "z2\t+\n", "é*z+#",
                                  "z +\u00a0", "١٢.٥e١", "sin(é)"])
def test_scanner_matches_reference_on_edge_cases(text):
    assert _scan(_tokenize, text) == _scan(reference_tokenize, text)


@pytest.mark.parametrize(
    "text, offset", [("1e999", 1), ("z+1e999", 3), ("sin(2E+400)", 5), ("1" + "0" * 400, 1)]
)
def test_parse_rejects_non_finite_literals_at_their_offset(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert "finite" in exc.value.expected


@pytest.mark.parametrize(
    "opener, closer, offset",
    [("(", ")", 202), ("-", "", 202), ("exp(", ")", 805)],
    ids=["parentheses", "unary-minus", "calls"],
)
def test_parse_caps_nesting_depth(opener, closer, offset):
    parse(opener * 200 + "z" + closer * 200)  # at the cap: accepted
    with pytest.raises(ExprSyntaxError) as exc:
        parse(opener * 3000 + "z" + closer * 3000)
    assert exc.value.offset == offset
    assert "nesting" in exc.value.expected


def test_long_sum_chain_evaluates_and_classifies():
    # A left-associative chain nests 5,000 deep in the tree, not in the text.
    f = parse("+".join(["z"] * 5000))
    assert evaluate(f, 1) == 5000
    assert classify_batch(f, np.array([0, 1e-6, 1], dtype=np.complex128)).tolist() == [
        Classification.BOUNDED,
        Classification.ESCAPING,
        Classification.ESCAPING,
    ]
    assert classify_point(f, 0) == Classification.BOUNDED


def test_number_literals_accept_fraction_and_exponent():
    assert evaluate(parse("1.5e-3"), 0) == 1.5e-3
    assert evaluate(parse("10e2"), 0) == 1000.0
    assert evaluate(parse("0.25*z"), 2) == 0.5


def test_operator_precedence_and_associativity():
    assert evaluate(parse("1+2*3"), 0) == 7
    assert evaluate(parse("1-2-3"), 0) == -4
    assert evaluate(parse("12/4/3"), 0) == 1
    assert evaluate(parse("2*z+1"), 1) == 3
    assert evaluate(parse("2*(z+1)"), 1) == 4
    assert evaluate(parse("-z*2"), 3) == -6


def test_named_constants():
    assert evaluate(parse("pi"), 0) == complex(math.pi)
    assert evaluate(parse("e"), 0) == complex(math.e)
    assert evaluate(parse("i"), 0) == 1j
    assert abs(evaluate(parse("2*pi*i"), 0) - 2j * math.pi) == 0


# --- evaluation ----------------------------------------------------------


def test_evaluate_sine_map_fixes_origin():
    assert evaluate(parse("z+sin(z)"), 0) == 0


def test_evaluate_exp_at_origin():
    assert evaluate(parse("exp(z)"), 0) == 1


def test_evaluate_inverse_square():
    # 1 / 0.5**2 = 4, exact in binary floating point.
    assert evaluate(parse("1/pow(z,2)"), 0.5) == 4


def test_division_by_exact_zero_is_a_pole_event():
    assert isinstance(evaluate(parse("1/pow(z,2)"), 0), PoleEvent)
    assert isinstance(evaluate(parse("z/(z-1)"), 1), PoleEvent)


def test_exp_guard_fires_before_overflow():
    assert isinstance(evaluate(parse("exp(z)"), 800), InfinityEvent)
    assert isinstance(evaluate(parse("exp(z)"), 701 + 5j), InfinityEvent)
    # Re <= 700 stays finite even with large modulus.
    assert isinstance(evaluate(parse("exp(z)"), 699), complex)


def test_trig_guard_fires_on_large_imaginary_part():
    assert isinstance(evaluate(parse("sin(z)"), 800j), InfinityEvent)
    assert isinstance(evaluate(parse("cos(z)"), -750j), InfinityEvent)
    assert isinstance(evaluate(parse("sin(z)"), 700), complex)


def test_finite_results_have_finite_components():
    for text in ("z+sin(z)+2*pi", "0.3*exp(z)", "1/pow(z,2)", "cos(z)/2"):
        f = parse(text)
        for z in SAMPLE_POINTS:
            result = evaluate(f, z)
            if isinstance(result, complex):
                assert math.isfinite(result.real) and math.isfinite(result.imag)


def test_eval_array_reports_events_per_element():
    f = parse("1/pow(z,2)")
    z = np.array([0.0, 0.5, 2.0], dtype=np.complex128)
    values, events = eval_array(f, z)
    assert events.tolist() == [EVENT_POLE, EVENT_NONE, EVENT_NONE]
    assert values[1] == 4 and values[2] == 0.25


# The map z returns its input's array, and a constant map is broadcast:
# either way the values take the input's shape, in or out of the engine's
# held error state.
@pytest.mark.parametrize("held", [False, True], ids=["own-errstate", "held-errstate"])
@pytest.mark.parametrize("lanes", [0, 1, 5])
@pytest.mark.parametrize("text, value", [("z", None), ("2", 2), ("i", 1j)])
def test_eval_array_result_contract(text, value, lanes, held):
    z = np.linspace(-1.0, 1.0, lanes) + 0.5j
    with _ignoring_errors() if held else contextlib.nullcontext():
        values, events = eval_array(compile_expr(parse(text)), z)
    assert values.dtype == np.complex128 and values.shape == z.shape
    assert events.shape == z.shape and (events == EVENT_NONE).all()
    assert np.array_equal(values, z if value is None else np.full(z.shape, value))


def test_eval_array_keeps_its_own_errstate_after_engine_runs(monkeypatch):
    # The engine holds numpy's error state for a whole run; once a run ends,
    # even by an exception, a lone call must ignore errors by itself again.
    f = parse("exp(z)")
    classify_point(f, 800)

    def broken(*args, **kwargs):
        raise RuntimeError("stop")

    monkeypatch.setattr(bungee.orbit, "eval_array", broken)
    with pytest.raises(RuntimeError, match="stop"):
        classify_point(f, 0)
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, events = eval_array(f, np.array([800.0 + 0j]))
    assert events.tolist() == [EVENT_INFINITY]


# Each case names the node that must fire first, as a path from the root.
# Checking finiteness only at the root would miss the first two: the Pow
# overflows, yet the root comes out finite (0 and 0).
@pytest.mark.parametrize(
    "text, z, event, path",
    [
        ("1/(1/pow(z,2))", 1e200, InfinityEvent, ("right", "right")),
        ("exp(-pow(z,3))", 1e150, InfinityEvent, ("arg", "arg")),
        ("1/exp(-z)", 800, PoleEvent, ()),
        ("1/(0*exp(z))", 800, InfinityEvent, ("right", "right")),
        ("pow(z,5)*2+1", 1e100, InfinityEvent, ("left", "left")),
    ],
)
def test_first_event_names_its_node(text, z, event, path):
    f = parse(text)
    node = f.root
    for attr in path:
        node = getattr(node, attr)
    result = evaluate(f, z)
    assert type(result) is event and result.node is node


def test_compiled_program_reports_events_per_lane():
    f = parse("exp(z)+1/pow(z,2)")
    exp_node, div_node, pow_node = f.root.left, f.root.right, f.root.right.right
    z = np.array([2.0, 800.0, 0.0, -1e200], dtype=np.complex128)
    values, events = eval_array(compile_expr(f), z)
    assert events.tolist() == [EVENT_NONE, EVENT_INFINITY, EVENT_POLE, EVENT_INFINITY]
    assert values[0] == evaluate(f, z[0]) == cmath.exp(2) + 0.25
    named = [evaluate(f, complex(lane)) for lane in z[1:]]
    assert [type(event) for event in named] == [InfinityEvent, PoleEvent, InfinityEvent]
    assert named[0].node is exp_node and named[1].node is div_node and named[2].node is pow_node
    plain_values, plain_events = eval_array(f, z)
    assert np.array_equal(plain_events, events)
    assert np.array_equal(plain_values, values, equal_nan=True)


def _counted_checks(monkeypatch, program, z):
    """``eval_array``'s result and its finiteness checks (``np.add.reduce`` calls)."""
    calls = []
    counted = types.ModuleType("numpy")
    counted.__getattr__ = lambda name: getattr(np, name)
    counted.add = types.SimpleNamespace(reduce=lambda *a, **k: calls.append(1) or np.add.reduce(*a, **k))
    with monkeypatch.context() as patch:
        patch.setattr(bungee.expr, "np", counted)
        result = eval_array(program, z)
    return result, len(calls)


# A value consumed only by + - * is not checked; unary minus passes nothing
# on, so what feeds it or ends in it is checked; with / everything is.
@pytest.mark.parametrize(
    "text, z, events, compiled, every",
    [
        ("z+1+exp(-z)", [1, -710], [EVENT_NONE, EVENT_INFINITY], 1, 3),
        ("-(exp(z)*pow(z,5))", [1, 705, 1e100], [EVENT_NONE, EVENT_INFINITY, EVENT_INFINITY], 1, 3),
        ("-(exp(z))", [1, 710], [EVENT_NONE, EVENT_INFINITY], 1, 1),
        ("(-exp(z))+1", [1, 710], [EVENT_NONE, EVENT_INFINITY], 2, 2),
        ("z*z+1/pow(z,2)", [1, 0, 1e200], [EVENT_NONE, EVENT_POLE, EVENT_INFINITY], 4, 4),
        ("pow(z,2)+1/(z-z)", [1, 1e300], [EVENT_POLE, EVENT_INFINITY], 4, 4),  # no pole overtakes
    ],
)
def test_compiled_checks_skip_only_what_a_consumer_checks(monkeypatch, text, z, events, compiled, every):
    program = compile_expr(parse(text))
    z = np.array(z, dtype=np.complex128)
    assert sum(program.checked) == compiled
    for prog, checks in [
        (program, compiled),
        (Program(program.code), every),  # a hand-built program checks every node
    ]:
        (values, got), count = _counted_checks(monkeypatch, prog, z)
        assert (got.tolist(), count) == (events, checks)
        if events[0] == EVENT_NONE:
            assert values[0] == evaluate(parse(text), complex(z[0]))


# `/` counts zero divisors only when its quotient is not finite, which a
# complex x/0 never is, and its pole mark still comes before its infinity
# mark. At 1e-200 the square underflows to 0, a pole; at 1e-160 it is a
# nonzero subnormal, so the quotient overflows with no zero divisor.
@pytest.mark.parametrize(
    "text, z, results, marks",
    [
        ("1/pow(z,2)", [0, 1e-200, 1e-160, 2], [PoleEvent, PoleEvent, InfinityEvent, 0.25],
         [(EVENT_POLE, [1, 1, 0, 0]), (EVENT_INFINITY, [1, 1, 1, 0])]),
        ("z/0", [0, 1, 1e300], [PoleEvent] * 3, [(EVENT_POLE, [1, 1, 1]), (EVENT_INFINITY, [1, 1, 1])]),
        ("(z-z)/(z-z)", [0, 1, 1e300], [PoleEvent] * 3, [(EVENT_POLE, [1, 1, 1]), (EVENT_INFINITY, [1, 1, 1])]),
    ],
    ids=["inverse-square", "constant-zero-divisor", "zero-over-zero"],
)
def test_divisors_are_counted_behind_a_non_finite_quotient(text, z, results, marks):
    f = parse(text)
    z = np.array(z, dtype=np.complex128)
    _, events = eval_array(f, z)
    codes = {PoleEvent: EVENT_POLE, InfinityEvent: EVENT_INFINITY}
    assert events.tolist() == [codes.get(want, EVENT_NONE) for want in results]
    for lane, want in zip(z, results):
        got = evaluate(f, complex(lane))
        if isinstance(want, type):
            assert type(got) is want and got.node is f.root
        else:
            assert got == want
    code = compile_expr(f).code
    unchecked = Program(code, (False,) * len(code))  # a pole is still marked, and only a pole
    for program, want in [
        (compile_expr(f), marks),
        (Program(code), marks),
        (unchecked, [mark for mark in marks if mark[0] == EVENT_POLE]),
    ]:
        _, got = bungee.expr._run(program, z)
        assert [(c, np.broadcast_to(mask, z.shape).astype(int).tolist()) for c, mask, _ in got] == want
        assert all(node is f.root for _, _, node in got)


def test_evaluation_is_deterministic():
    f = parse("exp(z)/(1+pow(z,3))-sin(z)*cos(z)")
    for z in SAMPLE_POINTS:
        assert evaluate(f, z) == evaluate(f, z)


# --- composition ---------------------------------------------------------


def test_compose_with_identity_is_transparent():
    g = parse("z+sin(z)+2*pi")
    left = compose(parse("z"), g)
    right = compose(g, parse("z"))
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20)
    for z in pts:
        want = evaluate(g, complex(z))
        assert evaluate(left, complex(z)) == want
        assert evaluate(right, complex(z)) == want


def test_compose_exp_with_period_translation():
    h = compose(parse("exp(z)"), parse("z+2*pi*i"))
    assert abs(evaluate(h, 0) - 1) <= 1e-12


def test_compose_matches_two_step_evaluation():
    f = parse("z+1+exp(-z)")
    g = parse("z+1+exp(-z)+2*pi*i")
    # Independent oracle: evaluate g, then f, in two separate calls.
    inner = evaluate(g, 0)
    assert isinstance(inner, complex)
    want = evaluate(f, inner)
    got = evaluate(compose(f, g), 0)
    assert abs(got - want) <= 1e-12 * (1 + abs(want))
    # Closed form: f(2 + 2*pi*i) = 3 + e^-2 + 2*pi*i.
    assert abs(got - (3 + math.exp(-2) + 2j * math.pi)) <= 1e-12


# --- conjugation and affine images --------------------------------------


def test_conjugate_by_identity_is_transparent():
    f = parse("0.3*exp(z)")
    h = conjugate(f, 1, 0)
    for z in SAMPLE_POINTS:
        want = evaluate(f, z)
        got = evaluate(h, z)
        assert isinstance(got, complex)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_conjugate_exp_by_doubling_halves_the_argument():
    h = conjugate(parse("exp(z)"), 2, 0)
    closed = parse("2*exp(z/2)")
    for z in SAMPLE_POINTS:
        want = evaluate(closed, z)
        got = evaluate(h, z)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_conjugate_agrees_with_two_step_transport():
    # phi(z) = 2z + 1 sends 0 to 1; there the conjugate map must equal
    # 2 * (0.3 * e^0) + 1 = 1.6.
    h = conjugate(parse("0.3*exp(z)"), 2, 1)
    assert abs(evaluate(h, 1) - 1.6) <= 1e-12


def test_conjugate_rejects_zero_scale():
    with pytest.raises(ValueError):
        conjugate(parse("z"), 0, 1)


def test_affine_post_identity():
    f = parse("z+sin(z)")
    g = affine_post(f, 1, 0)
    for z in SAMPLE_POINTS:
        want = evaluate(f, z)
        got = evaluate(g, z)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_affine_post_translation_matches_literal_form():
    g = affine_post(parse("z+sin(z)"), 1, 2 * math.pi)
    literal = parse("z+sin(z)+2*pi")
    for z in SAMPLE_POINTS:
        want = evaluate(literal, z)
        got = evaluate(g, z)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_affine_post_scales_and_shifts():
    g = affine_post(parse("exp(z)"), 0.5, 1)
    assert evaluate(g, 0) == 1.5


def test_affine_post_rejects_zero_scale():
    with pytest.raises(ValueError):
        affine_post(parse("z"), 0, 0)


@pytest.mark.parametrize("a, b", [(math.nan, 0), (math.inf, 0), (1, complex(0, math.inf)), (1, math.nan)])
@pytest.mark.parametrize("build", [affine_post, conjugate])
def test_affine_maps_reject_non_finite_coefficients(build, a, b):
    with pytest.raises(ValueError, match="finite"):
        build(parse("z*z"), a, b)


# --- formatting ----------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "z",
        "-z",
        "-(z+1)",
        "z-(1-z)",
        "z*(z+1)",
        "0.3*exp(z)",
        "z+sin(z)+2*pi",
        "1/pow(z,2)",
        "pow(z,3)",
        "z+1+exp(-z)",
        "z+1+exp(-z)+2*pi*i",
        "exp(-z-1)+1",
        "exp(z-1)-1",
        "2e-3*z+i",
        "cos(z)/sin(z)",
        "z/2/3",
        "z-1-2",
        "-pow(z,2)",
    ],
)
def test_format_round_trip(text):
    tree = parse(text)
    assert parse(format_expr(tree)) == tree


def test_format_round_trips_composite_trees():
    f = parse("exp(z)")
    g = parse("z+2*pi*i")
    for tree in (compose(f, g), conjugate(f, 2, 1j), affine_post(f, 0.5 + 0.5j, -1)):
        assert parse(format_expr(tree)) == parse(format_expr(parse(format_expr(tree))))
        z = 0.25 - 0.75j
        want = evaluate(tree, z)
        got = evaluate(parse(format_expr(tree)), z)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_str_matches_format():
    f = parse("z+sin(z)+2*pi")
    assert str(f) == format_expr(f)


def test_long_sum_chain_formats_and_reparses():
    # The tree nests 5,000 deep; rendering it must not recurse per level.
    text = "+".join(["z"] * 5000)
    f = parse(text)
    assert str(f) == text
    z = np.array([0.5 - 0.25j, 2 + 1j, -3j])
    assert eval_array(parse(str(f)), z)[0].tolist() == eval_array(f, z)[0].tolist()
    # Equality and hashing must not recurse per level either.
    g = parse(text)
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != parse(text + "+1") and f != text
    assert parse("e") != parse("2.718281828459045")
    # Nor must repr, which renders the text.
    assert repr(f) == f"parse({text!r})"
    # Nor must the nodes' own hash, == and repr.
    assert hash(f.root) == hash(g.root) and f.root == g.root and f.root != parse(text + "+1").root
    assert repr(f.root) == "BinOp(op='+', left=" * 4999 + "Var()" + ", right=Var())" * 4999
    assert repr(InfinityEvent(f.root)) == f"InfinityEvent(node={f.root!r})"


def test_repr_names_the_map():
    assert repr(parse("z+sin(z)+2*pi")) == "parse('z+sin(z)+2*pi')"
    assert repr(compose(parse("exp(z)"), parse("z+1"))) == "parse('exp(z+1)')"


# --- node values ---------------------------------------------------------

# Each node type's fields, in declaration order.
FIELDS = {
    Var: (),
    Const: ("value",),
    Named: ("name",),
    Neg: ("arg",),
    BinOp: ("op", "left", "right"),
    Pow: ("base", "exponent"),
    Call: ("name", "arg"),
    Apply: ("outer", "inner"),
}


def reference_repr(node) -> str:
    """A dataclass-style repr, recursing into the node's fields in declaration order."""
    fields = (f"{name}={reference_repr(value) if type(value) in FIELDS else repr(value)}"
              for name, value in ((name, getattr(node, name)) for name in FIELDS[type(node)]))
    return f"{type(node).__name__}({', '.join(fields)})"


def _catalog_trees():
    maps = [m for eid, _ in list_examples() for m in (get_example(eid).f, get_example(eid).g) if m is not None]
    for f in dict.fromkeys(maps):
        yield from (f, compose(f, f), conjugate(f, 2, 1j), affine_post(f, 0.5 - 1j, 2))


def test_node_repr_matches_reference_on_catalog_trees():
    seen = set()
    for tree in _catalog_trees():
        assert repr(tree.root) == reference_repr(tree.root)
        seen |= {type(node) for _, node, _ in compile_expr(tree).code}
    assert seen == set(FIELDS)


# An Apply's program runs its inner map first, so a repr built in program
# order could print its two fields swapped.
def test_apply_repr_keeps_field_order():
    node = Apply(Call("exp", Var()), BinOp("+", Var(), Const(1j)))
    assert repr(node) == reference_repr(node) == (
        "Apply(outer=Call(name='exp', arg=Var()), inner=BinOp(op='+', left=Var(), right=Const(value=1j)))")
    nested = Apply(Apply(Neg(Var()), Pow(Var(), 3)), Named("pi"))
    assert repr(nested) == reference_repr(nested)


NODES = [
    Var(),
    Const(1.5 - 2j),
    Named("pi"),
    Neg(Var()),
    BinOp("/", Var(), Const(2)),
    Pow(Var(), 3),
    Call("sin", Var()),
    Apply(Call("exp", Var()), BinOp("+", Var(), Const(1j))),
    parse("z+1+exp(-z)"),
]


@pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
def test_nodes_are_immutable_values(node):
    for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert type(twin) is type(node) and twin == node and hash(twin) == hash(node)
        assert repr(twin) == repr(node)
    for name in type(node).__slots__ or ("anything",):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)


def test_deep_trees_copy_and_pickle_without_recursion():
    """Copies and pickles go through a flat post-order list of the tree,
    rebuilt with a stack; a subtree shared by ``compose`` stays shared."""
    f = parse("+".join(["z"] * 5000))
    for twin in (pickle.loads(pickle.dumps(f)), pickle.loads(pickle.dumps(f.root)), copy.deepcopy(f)):
        assert twin == f or twin == f.root
    twin = pickle.loads(pickle.dumps(compose(f, f)))
    assert twin.root.outer is twin.root.inner and twin.root.outer == f.root
    assert eval_array(twin, np.array([0.5]))[0][0] == 5000 * 2500


def test_node_identity_rule():
    x = parse("z+1").root
    assert FunctionExpr(x) != x and x != FunctionExpr(x) and FunctionExpr(x) == parse("z+1")
    assert Const(1) == Const(1 + 0j) and hash(Const(1)) == hash(Const(1 + 0j))
    assert parse("e") != parse("2.718281828459045") and parse("e").root != parse("2.718281828459045").root
    assert BinOp("+", Var(), Const(1)) != BinOp("-", Var(), Const(1))
    assert Apply(Var(), Neg(Var())) != Apply(Neg(Var()), Var())
    assert Neg(Var()) != Call("exp", Var()) and Var() != Const(0)


# --- what the nodes refuse, as parse does -------------------------------------


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1, math.inf), complex(math.nan, 0)])
def test_const_refuses_non_finite_values(value):
    """``1e999`` is a syntax error, and a non-finite constant built by hand
    is refused too: ``z + Const(nan)`` would read Escaping by an overflow."""
    with pytest.raises(ValueError, match="a constant must be finite"):
        Const(value)
    with pytest.raises(ExprSyntaxError):
        parse("z+1e999")


@pytest.mark.parametrize("exponent", [0, -1, True, False, 2.0, "2", None])
def test_pow_refuses_exponents_parse_refuses(exponent):
    """``pow(z,True)`` would not reparse, and a certificate would read an
    exponent below 1 as another: only an int >= 1 is taken."""
    with pytest.raises(ValueError, match="a pow exponent must be an int >= 1"):
        Pow(Var(), exponent)


@pytest.mark.parametrize("name", ["x", "z", "E", "", None, ("pi",)])
def test_named_refuses_names_parse_refuses(name):
    """``Named("x")`` failed late, with a KeyError when the map was compiled
    or classified: only pi, e and i are taken."""
    with pytest.raises(ValueError, match="a named constant must be pi, e or i"):
        FunctionExpr(Named(name))


@pytest.mark.parametrize("name", ["tan", "log", "Exp", "", None, ["exp"]])
def test_call_refuses_functions_parse_refuses(name):
    """``Call("tan", z)`` failed late, with a KeyError when evaluated and a
    TypeError when formatted: only exp, sin and cos are taken."""
    with pytest.raises(ValueError, match="a function must be exp, sin or cos"):
        FunctionExpr(Call(name, Var()))


@pytest.mark.parametrize("op", ["^", "**", "//", "", None, ["+"]])
def test_binop_refuses_operators_parse_refuses(op):
    """``BinOp("^", z, z)`` failed late, with a KeyError when evaluated and a
    TypeError when formatted: only + - * / are taken."""
    with pytest.raises(ValueError, match=r"a binary operator must be \+, -, \* or /"):
        FunctionExpr(BinOp(op, Var(), Var()))


def test_an_isometry_built_by_hand_is_refused():
    """``(3z)**0 * z * exp(0.1i)`` turns the plane, so no orbit escapes; an
    exponent 0 the certificates read as 1 made it a certified escape."""
    with pytest.raises(ValueError, match="a pow exponent"):
        FunctionExpr(BinOp("*", BinOp("*", Pow(BinOp("*", Const(3), Var()), 0), Var()), Const(cmath.exp(0.1j))))


def test_nodes_take_what_parse_takes():
    f = FunctionExpr(BinOp("+", Pow(Var(), 1), Const(1.5e308)))
    assert format_expr(f) == "pow(z,1)+1.5e+308" and parse(format_expr(f)) == f
    assert pickle.loads(pickle.dumps(f)) == f


def test_deep_compositions_format_without_recursion():
    """1,000 nested ``compose`` of ``z+1``, nested either way, renders as the
    sum it denotes: ``Var`` reads the innermost bound fragment."""
    f = parse("z+1")
    outer = inner = f
    for _ in range(999):
        outer, inner = compose(outer, f), compose(f, inner)
    assert format_expr(outer) == format_expr(inner) == "z" + "+1" * 1000
