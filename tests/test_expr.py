"""Grammar, evaluation, and algebra of function expressions.

Oracle values used below are derived by hand or by independent two-step
evaluation inside the test, never by running the code under test twice.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import types
import warnings

import numpy as np
import pytest

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
    parse,
)
from bungee.expr import (
    EVENT_INFINITY,
    EVENT_NONE,
    EVENT_POLE,
    Program,
    _ignoring_errors,
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
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ExprSyntaxError):
        parse(text)


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
