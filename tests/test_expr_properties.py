"""Randomized algebraic properties of the expression layer."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, example, given, settings

from bungee import affine_post, compose, conjugate, evaluate, format_expr, parse
from bungee.expr import EVENT_NONE, Program, compile_expr, eval_array

from strategies import affine_scales, expression_strings, sample_points


@settings(max_examples=200, deadline=None)
@given(expression_strings())
def test_format_parse_round_trip(text):
    tree = parse(text)
    assert parse(format_expr(tree)) == tree


@settings(max_examples=200, deadline=None)
@given(expression_strings(), expression_strings(), sample_points())
def test_composition_matches_two_step_evaluation(ftext, gtext, z):
    f, g = parse(ftext), parse(gtext)
    inner = evaluate(g, z)
    assume(isinstance(inner, complex))
    want = evaluate(f, inner)
    assume(isinstance(want, complex))
    got = evaluate(compose(f, g), z)
    assert isinstance(got, complex)
    assert abs(got - want) <= 1e-10 * (1 + abs(want))


@settings(max_examples=200, deadline=None)
@given(expression_strings(), affine_scales(), sample_points(), sample_points())
def test_conjugation_transports_evaluation(ftext, a, b, z):
    f = parse(ftext)
    direct = evaluate(f, z)
    assume(isinstance(direct, complex))
    want = a * direct + b
    got = evaluate(conjugate(f, a, b), a * z + b)
    assume(isinstance(got, complex))
    assert abs(got - want) <= 1e-10 * (1 + abs(want))


# Seeds where evaluation events fire: exp guards at 710, sin/cos guards at
# 710j, powers and products overflowing at 1e300.
EVENT_SEEDS = np.array([0, 1e300, 710, 710j, -710, 1e300j, 1.5 - 2j], dtype=np.complex128)


@settings(max_examples=300, deadline=None)
@given(expression_strings(), sample_points())
def test_skipped_checks_mark_the_same_lanes(text, z):
    """Checks skipped by a compiled program lose no event and move no value.

    A hand-built ``Program(code)`` checks every node; the compiled
    program's events must equal its events, byte for byte, and its values
    must agree wherever no event fired.
    """
    program = compile_expr(parse(text))
    seeds = np.append(EVENT_SEEDS, z)
    values, events = eval_array(program, seeds)
    hand_values, hand_events = eval_array(Program(program.code), seeds)
    assert events.tobytes() == hand_events.tobytes()
    quiet = events == EVENT_NONE
    assert np.array_equal(values[quiet], hand_values[quiet])


def reference_checked(code) -> tuple:
    """The check analysis as a loop over the indices of the instructions
    whose values are on the stack: ``bind`` consumes the inner map's value,
    and ``unbind`` leaves the outer map's value as the ``Apply``'s."""
    checked = [op not in ("load", "bind", "unbind", "neg") for op, _, _ in code]
    popped = {"load": 0, "unbind": 0, "+": 2, "-": 2, "*": 2}  # bind and the rest pop 1
    if "/" not in {op for op, _, _ in code}:
        operands: list = []
        for k, (op, _, _) in enumerate(code):
            used = [operands.pop() for _ in range(popped.get(op, 1))]
            if op in ("+", "-", "*"):
                for j in used:
                    checked[j] = False
            if op not in ("bind", "unbind"):
                operands.append(k)
    return tuple(checked)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(expression_strings(), expression_strings())
@example("1/pow(z,2)", "z*z+exp(z)")
@example("-(z/(z-1))*sin(z)", "exp(z/2)*z+1")
def test_check_analysis_matches_the_operand_loop(ftext, gtext):
    """Over maps, their composites, a composite that feeds a ``*`` (a
    composite's value is its outer map's) and a conjugate. A program with
    a ``/``, such as every conjugate's, checks every instruction that can."""
    f, g = parse(ftext), parse(gtext)
    for tree in (f, compose(f, g), compose(g, f), affine_post(compose(f, g), 2, 1j), conjugate(f, 2, 1j)):
        program = compile_expr(tree)
        assert program.checked == reference_checked(program.code)
        if "/" in {op for op, _, _ in program.code}:
            assert program.checked == tuple(op not in ("load", "bind", "unbind", "neg") for op, _, _ in program.code)
