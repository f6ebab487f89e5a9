"""
Building and evaluating function expressions
============================================

Parse strings into immutable ASTs, evaluate them at complex points, and
combine them by composition, affine post-maps, and conjugation.
"""

import math

from bungee import (
    affine_post,
    compose,
    conjugate,
    evaluate,
    format_expr,
    parse,
)

# The grammar knows z, numeric literals, i/pi/e, exp/sin/cos, pow, and
# the four arithmetic operators. Multiplication is always explicit.
f = parse("z+sin(z)")
g = parse("z+sin(z)+2*pi")
print("f     =", format_expr(f))
print("g     =", format_expr(g))
print("f(0)  =", evaluate(f, 0))
print("g(0)  =", evaluate(g, 0))

# Composition is a first-class node: evaluating compose(f, g) walks g
# first, then f, exactly like the two-step evaluation.
h = compose(parse("exp(z)"), parse("z+2*pi*i"))
print("exp(0 + 2*pi*i) =", evaluate(h, 0))

# affine_post builds a*f + b; translating the sine map by its period
# 2*pi reproduces g.
translated = affine_post(f, 1, 2 * math.pi)
print("|g(1) - (f+2*pi)(1)| =", abs(evaluate(g, 1) - evaluate(translated, 1)))

# conjugate transports f by phi(z) = a*z + b. With phi(z) = 2z the
# exponential becomes 2*exp(z/2).
k = conjugate(parse("exp(z)"), 2, 0)
print("conjugated exp:", format_expr(k))
print("value at 2:", evaluate(k, 2), "vs closed form:", 2 * math.exp(1))

# Evaluation never raises on analytic blowups; it returns event values.
pole = evaluate(parse("1/pow(z,2)"), 0)
spill = evaluate(parse("exp(z)"), 800)
print("at a pole:", type(pole).__name__)
print("past double range:", type(spill).__name__)

# Formatting a parsed tree round-trips exactly. Compose nodes print in
# substituted form, so their strings reparse to plain application trees.
print("compose prints as:", format_expr(h))
print("round trip ok:", parse(format_expr(g)) == g)
