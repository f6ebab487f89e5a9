"""Certified regions: where a map provably escapes, is Bungee, or is bounded.

Each search runs a compiled `Program` in an arithmetic of its own through
the one walker of `bungee.expr`, which reads ``Var`` and keeps the values
that ``Apply`` binds to it; an arithmetic is one function that gives an
instruction's value from its operands': `_affine` over a box, for the
affine interval forms below; `_dominant` at a radius, for the
dominant-term forms further below; and `_float_value`, numpy's float
values with none of `eval_array`'s event tests, for the trap probe.

The first arithmetic is that of *affine interval forms* ``alpha*z + I``:
``alpha`` is an exact rational (an int or a `Fraction`) and ``I`` a
rectangle of the complex plane, ``[re_lo, re_hi] x [im_lo, im_hi]``,
whose float endpoints are rounded outward with `math.nextafter`.
Reading ``z``, ``+``, ``-``, unary minus and composition carry ``alpha``
exactly, and so do multiplication and division by an exact real
constant, so that an affine conjugate ``a*f((z-b)/a)+b`` with real ``a``
keeps the ``alpha`` of ``f``.
Every other instruction first collapses its operands to rectangles over
the region ``B`` being tried (``alpha*B + I``). An endpoint product
``0 * inf`` is 0. ``sin`` and ``cos`` of a real interval are exactly 0
and 1 at the point 0; elsewhere they span their end values, widened by
2 ulps each way, and ±1 wherever an extremum ``(j + 1/2) * pi`` or
``j * pi`` may lie in the interval, placed by outward-rounded bounds on
pi (Tucker 2011); an interval as wide as 7 or reaching ``2**50`` gives
``[-1, 1]``.

`escape_regions` tries, once per map:

- the four axis half-planes ``Re(z/u) >= R``, ``u`` in {1, -1, i, -i};
- the real rays ``[R, inf)`` and ``(-inf, -R]``, when every constant the
  map loads is real, so that the map sends real numbers to real numbers;

with ``R`` on `LADDER`. A region is certified when its form has
``alpha >= 1`` and ``delta = inf Re(I/u) > 0``. Then, for every ``z`` in
the region, ``Re(f(z)/u) >= alpha*Re(z/u) + delta >= Re(z/u) + delta``,
so the region maps into itself and every orbit that enters it escapes,
at least ``delta`` further out each step. (That the image lies in the
region shifted by ``delta`` would prove only the first half: the ray
``[1/16, inf)`` of ``exp(-z-1)+1`` maps into ``[1, 1.35]``, which holds
the map's attracting fixed point 1.12.) Fatou's map ``z+1+exp(-z)``
certifies ``Re z >= 1/16`` (Fatou 1926).

Interval evaluation is inclusion-isotone: a larger ``R`` gives a smaller
box and a narrower enclosure. So each region is tried at the top rung
first and dropped if that fails; otherwise at the bottom rung, which is
the lowest certified rung if it holds, and else bisected between the
two. Every certified rung is checked directly, so the search order
affects only how far a region reaches.

`form_regions` is the second search, for polynomial and rational maps.
It runs the program over *dominant-term forms*: on ``|t| >= rho`` a value
is ``c * t**d * (1+E)`` with ``d`` an integer, ``c`` an outward-rounded
rectangle that excludes 0 and ``|E| <= e``. In a sum the larger degree
wins and the smaller joins ``E``; a tie adds the coefficients; a product
adds the degrees. A value that reads no ``z`` is a constant: it keeps
the rectangle `enclose` gives it, ``exp``, ``sin`` and ``cos`` included,
until it meets a value that reads ``z``, where it becomes a form of
degree 0, as ``exp(0.001)*z`` and ``cos(0)*z*z`` need, unless its
rectangle holds 0; an exact 0 added or subtracted is dropped, so the
``+0`` of an affine map ``a*f(z)+0`` keeps its form, and ``0-x`` is
``-x``, the form of ``x`` with its coefficient negated. ``exp``, ``sin``
and ``cos`` of a value that reads ``z`` have no form, and one walk over
the program, whose values say which read ``z``, refuses them before any
interval arithmetic. With ``t = z`` the form holds near infinity; with
``t = 1/z``, the *mirror form*, on ``0 < |z| <= 1/rho``, where the
lowest degree in ``z`` wins; and run on the map's own form, the program
gives the second iterate ``f(f(z))`` without a composed tree. With ``R``
on `RADII`:

- a map of degree ``d >= 1`` at infinity escapes on ``|z| >= R`` when
  ``kappa = inf|c| (1-e) R**(d-1)`` exceeds 1 by `_MARGIN`, for then
  ``|f(z)| >= kappa |z| >= |z| + (kappa-1) R`` (the escape radius of
  polynomials, Milnor 2006, ch. 9): ``1.001*z`` on ``|z| >= 1/16``;
- a map of degree ``d < 0`` is Bungee on ``|z| >= R or 0 < |z| <= r``
  when ``f(f(z))`` escapes on ``E = {|z| >= R}``, ``f`` maps ``E`` into
  ``0 < |z| <= r`` and, by the mirror form, the disk back into ``E``:
  the even iterates of an orbit that enters the region escape and the
  odd ones stay within ``r``, so it lies in BU (Osborne and Sixsmith
  2016). ``1/pow(z,2)`` is Bungee on ``|z| >= 1 + 2**-10`` or
  ``0 < |z| <= 1/(1 + 2**-10)``, rounded down.

`regions` runs both searches, as the orbit engine does once per call.

`trap_regions` is the third search, for bounded orbits: it iterates a
fixed probe, 0 and the map's constants, `TRAP_PROBE_STEPS` times, in
float values alone through the walker, which equal `eval_array`'s, and
about each end point ``c`` within ``r_bound`` keeps the first box
``c ± r``, ``r`` on `TRAP_RADII`, whose `enclose` image lies strictly
inside it. Then ``f(B)`` lies in the interior of ``B``, so every orbit
that enters ``B`` stays in it and is bounded (attracting basins, Milnor
2006, ch. 8). The engine runs it at most once per call, on demand.

A certificate speaks of the exact orbit of the float iterate that enters
its region, as a half-plane's does.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache, partial
from typing import NamedTuple, Optional

import numpy as np

from .expr import _BINARY, _UFUNCS, Program, _walk

__all__ = [
    "Region", "LADDER", "enclose", "certifies", "escape_regions",
    "DiskRegion", "RADII", "dominant_form", "escape_rate", "form_regions", "regions",
    "TrapBox", "TRAP_PROBE_STEPS", "TRAP_RADII", "traps", "trap_regions", "locate",
]

_INF = math.inf
LADDER = tuple(2.0**k for k in range(-4, 61))  # the radii R tried, ascending

_ZERO = (0.0, 0.0)
_ONE = (1.0, 1.0)
_UNIT = (-1.0, 1.0)
_ALL = (-_INF, _INF)


class Region(NamedTuple):
    """``sign * part(z) >= radius``, ``part`` the real (axis 0) or
    imaginary (axis 1) part; a ``ray`` also needs ``imag(z) == 0``."""

    axis: int
    sign: int
    radius: float
    ray: bool = False

    bungee = False  # its orbits escape

    def __str__(self) -> str:
        if self.ray:
            return f"z in [{self.radius!r}, inf)" if self.sign > 0 else f"z in (-inf, {-self.radius!r}]"
        part = "Re z" if self.axis == 0 else "Im z"
        return f"{part} >= {self.radius!r}" if self.sign > 0 else f"{part} <= {-self.radius!r}"

    def box(self) -> tuple:
        """The region as a rectangle ``(re, im)`` of intervals."""
        side = (self.radius, _INF) if self.sign > 0 else (-_INF, -self.radius)
        other = _ZERO if self.ray else _ALL
        return (side, other) if self.axis == 0 else (other, side)

    def contains(self, z: np.ndarray, m: Optional[np.ndarray] = None) -> np.ndarray:
        part = z.real if self.axis == 0 else z.imag
        inside = self.sign * part >= self.radius
        return inside & (z.imag == 0) if self.ray else inside


# --- real intervals with outward rounding -----------------------------------

# `_sum`, `_add`, `_mul` and `_square` run thousands of times per search,
# so they call no helper and build no list or generator.
_nextafter = math.nextafter


def _down(x: float) -> float:
    return _nextafter(x, -_INF)


def _up(x: float) -> float:
    return _nextafter(x, _INF)


def _sum(x: float, y: float, toward: float) -> float:
    """``x + y`` rounded toward ``toward`` (±inf), exact sums kept as they are.

    By Fast2Sum, with ``|big| >= |small|``, the rounding error is 0 iff
    ``s - big == small``; that test also fails for every sum that is not
    finite, where ``s - big`` is infinite or NaN."""
    s = x + y
    if (s - x == y) if abs(x) >= abs(y) else (s - y == x):
        return s
    return _nextafter(s, toward)


def _add(a, b):
    """``a + b``, each end rounded as `_sum` rounds it, toward its own side."""
    (x, y), (u, v) = a, b
    lo, hi = x + u, y + v
    if not ((lo - x == u) if abs(x) >= abs(u) else (lo - u == x)):
        lo = _nextafter(lo, -_INF)
    if not ((hi - y == v) if abs(y) >= abs(v) else (hi - v == y)):
        hi = _nextafter(hi, _INF)
    return (lo, hi)


def _neg(a):
    return (-a[1], -a[0])


def _mul(a, b):
    """``a * b``: the least and the greatest of the endpoint products, with
    ``0 * inf = 0`` and the first of equal ones (0.0 or -0.0) kept, rounded
    outward unless a factor is the point 0 or ±1, by which every product
    is exact."""
    (p, q), (r, s) = a, b
    if p == q and r == s:  # two points: one product
        lo = hi = p * r if p and r else 0.0
    else:
        products = (p * r if p and r else 0.0, p * s if p and s else 0.0,
                    q * r if q and r else 0.0, q * s if q and s else 0.0)
        lo, hi = min(products), max(products)
    if p == q and abs(p) in (0.0, 1.0) or r == s and abs(r) in (0.0, 1.0):
        return (lo, hi)
    return (_nextafter(lo, -_INF), _nextafter(hi, _INF))


def _square(a):
    x, y = abs(a[0]), abs(a[1])
    lo, hi = (y, x) if y < x else (x, y)
    if a[0] <= 0 <= a[1]:
        lo = 0.0
    lo = _nextafter(lo * lo, -_INF)
    return (lo if lo > 0.0 else 0.0, _nextafter(hi * hi, _INF))


def _monotone(fn, a, floor=-_INF):
    """Enclosure of increasing ``fn`` over ``a``, allowing 2 ulps of error
    in the library function and clamped below at ``floor``."""

    def at(x, toward):
        try:
            v = fn(x)
        except OverflowError:
            v = math.copysign(_INF, x)
        return math.nextafter(math.nextafter(v, toward), toward)

    return (max(floor, at(a[0], -_INF)), at(a[1], _INF))


def _cosh(a):
    """cosh is even and increasing on [0, inf)."""
    lo, hi = sorted((abs(a[0]), abs(a[1])))
    return _monotone(math.cosh, (0.0 if a[0] <= 0 <= a[1] else lo, hi), 1.0)


# pi lies strictly between these two adjacent doubles: math.pi is pi rounded down.
_PI = (math.pi, _up(math.pi))


def _extrema_within(a, shift: float) -> tuple[bool, bool]:
    """Whether a point ``(j + shift) * pi`` with ``j`` even, and one with
    ``j`` odd, may lie in the real interval ``a``: each candidate ``j`` near
    ``a / pi`` is placed between its products with the two bounds of `_PI`,
    rounded outward."""
    lo, hi = a
    even = odd = False
    for j in range(math.floor(lo / math.pi - shift) - 1, math.ceil(hi / math.pi - shift) + 2):
        k = j + shift  # exact: |j| < 2**51
        p, q = sorted((k * _PI[0], k * _PI[1]))
        if _down(p) <= hi and _up(q) >= lo:
            even, odd = even or j % 2 == 0, odd or j % 2 == 1
    return even, odd


def _sin_or_cos(fn, a, shift: float):
    """``fn``, sin (``shift`` 1/2) or cos (``shift`` 0), over ``a``: it is
    monotone between its extrema ``(j + shift) * pi``, 1 at even ``j`` and
    -1 at odd ``j``, so its range is that of its end values, widened as
    `_monotone` widens them, and of the extrema that may lie in ``a``."""
    ends = [fn(x) for x in a]
    top, bottom = _extrema_within(a, shift)
    lo = -1.0 if bottom else max(-1.0, _down(_down(min(ends))))
    hi = 1.0 if top else min(1.0, _up(_up(max(ends))))
    return (lo, hi)


def _sin_cos(a):
    """``(sin a, cos a)`` for a real interval ``a``: exactly 0 and 1 at the
    point 0, [-1, 1] for an interval as wide as 7 or reaching ``2**50``
    (where ``a / pi`` may be off by one), else by `_sin_or_cos`."""
    if a == _ZERO:
        return (_ZERO, _ONE)
    if not (a[1] - a[0] < 7 and max(abs(a[0]), abs(a[1])) < 2.0**50):  # also refuses NaN and inf
        return (_UNIT, _UNIT)
    return (_sin_or_cos(math.sin, a, 0.5), _sin_or_cos(math.cos, a, 0.0))


# --- complex rectangles -----------------------------------------------------


def _cmul(x, y):
    (a, b), (c, d) = x, y
    return (_add(_mul(a, c), _neg(_mul(b, d))), _add(_mul(a, d), _mul(b, c)))


def _cdiv(x, y):
    d = _add(_square(y[0]), _square(y[1]))  # |y|^2
    if d[0] <= 0:
        return (_ALL, _ALL)  # y may be 0: a pole
    recip = (max(0.0, _down(1.0 / d[1])), _up(1.0 / d[0]))
    num = _cmul(x, (y[0], _neg(y[1])))
    return (_mul(num[0], recip), _mul(num[1], recip))


def _cexp(x):
    m = _monotone(math.exp, x[0], 0.0)
    s, c = _sin_cos(x[1])
    return (_mul(m, c), _mul(m, s))


def _csin(x):
    s, c = _sin_cos(x[0])
    return (_mul(s, _cosh(x[1])), _mul(c, _monotone(math.sinh, x[1])))


def _ccos(x):
    s, c = _sin_cos(x[0])
    return (_mul(c, _cosh(x[1])), _neg(_mul(s, _monotone(math.sinh, x[1]))))


def _cpow(x, n: int):
    return _power(x, n, _cmul)


def _power(x, n: int, mul):
    """``x ** n`` for ``n >= 1`` under the product ``mul``, by
    square-and-multiply from the leading bit of ``n`` down: about
    ``2 * log2(n)`` products, ``x*x`` and ``(x*x)*x`` for 2 and 3."""
    v = x
    for bit in bin(n)[3:]:
        v = mul(v, v)
        if bit == "1":
            v = mul(v, x)
    return v


_FUNCS = {"exp": _cexp, "sin": _csin, "cos": _ccos}


# --- the interpreter --------------------------------------------------------


def _collapse(form, box):
    """The rectangle ``alpha*box + I`` of an affine form."""
    alpha, (re, im) = form
    if alpha == 0:
        return (re, im)
    try:
        k = float(alpha)
        span = (k, k) if k == alpha else (_down(k), _up(k))  # == compares exactly
    except OverflowError:
        span = _ALL
    return (_add(_mul(span, box[0]), re), _add(_mul(span, box[1]), im))


def _constant(form):
    """The value of a form that is one exact real number, else None."""
    alpha, (re, im) = form
    return re[0] if alpha == 0 and re[0] == re[1] and math.isfinite(re[0]) and im == _ZERO else None


def _scale(form, c: float, divide: bool):
    """``form * c``, or ``form / c``, for an exact real ``c``: alpha stays exact."""
    alpha, (re, im) = form
    if alpha != 0:
        # Imported here: only maps that scale z pay its ~4 ms import.
        from fractions import Fraction

        alpha = alpha / Fraction(c) if divide else alpha * Fraction(c)
    if not divide:
        return (alpha, (_mul(re, (c, c)), _mul(im, (c, c))))

    def quotient(a):
        lo, hi = sorted((a[0] / c, a[1] / c))
        return (lo, hi) if abs(c) == 1 else (_down(lo), _up(hi))

    return (alpha, (quotient(re), quotient(im)))


def _affine(box, k: int, op: str, node, arg, x=None, y=None):
    """The form of an instruction's value from its operands' forms ``x``
    and ``y``, over ``box``, which only a form with ``alpha != 0`` reads:
    `_walk`'s ``apply`` once ``box`` is bound."""
    if op == "load":
        c = complex(arg)
        return (0, ((c.real, c.real), (c.imag, c.imag)))
    if op == "neg":
        alpha, (re, im) = x
        return (-alpha, (_neg(re), _neg(im)))
    if op in ("+", "-"):
        (alpha, u), (beta, v) = x, y
        if op == "-":
            beta, v = -beta, (_neg(v[0]), _neg(v[1]))
        return (alpha + beta, (_add(u[0], v[0]), _add(u[1], v[1])))
    if op in ("*", "/"):
        if op == "*" and _constant(y) is None:
            x, y = y, x  # a constant factor may stand on either side
        c = _constant(y)
        if c is None or (op == "/" and c == 0):
            x, y = _collapse(x, box), _collapse(y, box)
            return (0, _cmul(x, y) if op == "*" else _cdiv(x, y))
        return _scale(x, c, op == "/")
    if op == "pow":
        return (0, _cpow(_collapse(x, box), arg))
    return (0, _FUNCS[op](_collapse(x, box)))


def enclose(program: Program, box) -> tuple:
    """``(alpha, I)`` such that ``f(z) - alpha*z`` lies in ``I`` for every
    ``z`` in ``box``, a rectangle ``((re_lo, re_hi), (im_lo, im_hi))``
    whose sides may be infinite; ``alpha`` is an int or a `Fraction`."""
    return _walk(program, (1, (_ZERO, _ZERO)), partial(_affine, box))


def certifies(program: Program, region: Region) -> bool:
    """Whether ``alpha >= 1`` and ``inf Re(I/u) > 0`` on ``region``."""
    return _certified(enclose(program, region.box()), region)


def _certified(form, region: Region) -> bool:
    """`certifies`, from ``form``, the enclosure of ``region``'s box."""
    alpha, rect = form
    part = rect[region.axis]
    delta = part[0] if region.sign > 0 else -part[1]
    return alpha >= 1 and delta > 0


def _lowest(holds, rungs):
    """The lowest of ``rungs`` (ascending) where ``holds``, or None if the
    top rung fails: the bottom rung if it holds too, else found by
    bisection between the two."""
    hi = len(rungs) - 1
    if not holds(rungs[hi]):
        return None
    if hi == 0 or holds(rungs[0]):
        return rungs[0]
    lo = 0  # every rung at or below lo fails, if isotone
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(rungs[mid]):
            hi = mid
        else:
            lo = mid
    return rungs[hi]


def _lowest_rung(program: Program, axis: int, sign: int, ray: bool, known: dict):
    """The region of the lowest certified rung, or None if the top rung
    fails; ``known`` maps regions to the enclosures of their boxes already
    made."""

    def holds(radius):
        region = Region(axis, sign, radius, ray)
        form = known.get(region)
        return certifies(program, region) if form is None else _certified(form, region)

    radius = _lowest(holds, LADDER)
    return None if radius is None else Region(axis, sign, radius, ray)


def escape_regions(program: Program) -> tuple[Region, ...]:
    """The certified regions of a map: half-planes, then each ray that
    reaches further than the half-plane on its side."""
    # alpha does not depend on the box, and alpha < 1 certifies nothing.
    # The box is the top rung of the first half-plane, which reuses it.
    first = Region(0, 1, LADDER[-1])
    known = {first: enclose(program, first.box())}
    if known[first][0] < 1:
        return ()
    found = [
        region
        for axis, sign in ((0, 1), (0, -1), (1, 1), (1, -1))
        if (region := _lowest_rung(program, axis, sign, False, known)) is not None
    ]
    if all(complex(arg).imag == 0 for op, _, arg in program.code if op == "load" and arg is not None):
        for sign in (1, -1):
            reach = min((r.radius for r in found if r.axis == 0 and r.sign == sign), default=_INF)
            if reach > LADDER[0]:
                ray = _lowest_rung(program, 0, sign, True, known)
                if ray is not None and ray.radius < reach:
                    found.append(ray)
    return tuple(found)


# --- dominant-term forms at infinity and at 0 ---------------------------------

# The radii tried for regions about 0: the half-planes' ladder, and rungs
# 1 + 2**-k and their reciprocals, which reach toward the unit circle, where
# a map with a Bungee region swaps the outside and the inside.
RADII = tuple(sorted({*LADDER, *(1 + 2.0**-k for k in range(1, 11)), *(1 / (1 + 2.0**-k) for k in range(1, 11))}))
# A certified escape rate must exceed 1 by this much: a rate within rounding
# of 1, as of a rotation whose float coefficient has modulus 1 + 2.4e-17, is
# no escape worth proving.
_MARGIN = 2.0**-30
# The relative error of np.abs on complex128 reaches 1.2 * 2**-52 (numpy
# 2.4; |0.8 exp(1.647i)| is 0.8 + 7e-17 and reads 0.7999999999999999, more
# than an ulp low), so a disk test reads |z| this far inside each radius.
_ABS_SLACK = 2.0**-50
# Forms ``(c, d, e, lo, hi)`` of what ``z`` reads: ``t`` itself at infinity,
# and ``1/t`` at 0, where ``|t| >= rho`` is ``0 < |z| <= 1/rho``.
_AT_INFINITY = ((_ONE, _ZERO), 1, 0.0, 1.0, 1.0)
_AT_ZERO = ((_ONE, _ZERO), -1, 0.0, 1.0, 1.0)
# The affine form of the constant 0, which a sum drops.
_EXACT_ZERO = (0, (_ZERO, _ZERO))


class DiskRegion(NamedTuple):
    """``|z| >= radius``, which the map moves outward, so orbits that
    enter it escape; with ``inner > 0`` the Bungee region ``|z| >= radius``
    or ``0 < |z| <= inner``, whose orbits alternate between its two parts."""

    radius: float
    inner: float = 0.0

    def __str__(self) -> str:
        outer = f"|z| >= {self.radius!r}"
        return f"{outer} or 0 < |z| <= {self.inner!r}" if self.inner else outer

    @property
    def bungee(self) -> bool:
        return self.inner > 0

    def contains(self, z: np.ndarray, m: Optional[np.ndarray] = None) -> np.ndarray:
        """Membership read from ``m``, the ``|z|`` of `np.abs`, each radius
        tested `_ABS_SLACK` inside."""
        m = np.abs(z) if m is None else m
        inside = m >= self.radius * (1 + _ABS_SLACK)
        if self.inner:
            inside |= (m <= self.inner * (1 - _ABS_SLACK)) & (m > 0)  # |z| is 0 only at z == 0
        return inside


def _shape(c, d: int):
    """The shape ``(c, d, lo, hi)`` of a form, ``lo`` and ``hi`` bounding
    ``|c|``, or None if ``c`` may hold 0."""
    lo, hi = _add(_square(c[0]), _square(c[1]))
    lo = _down(math.sqrt(lo)) if lo > 0 else 0.0
    return (c, d, lo, _up(math.sqrt(hi))) if lo > 0 else None


def _neg_shape(shape):
    (re, im), d, lo, hi = shape
    return (_neg(re), _neg(im)), d, lo, hi


def _dominant(rho: float, shapes: dict, k: int, op: str, node, arg, *xs):
    """The value ``(shape, e, const)`` of instruction ``k`` on ``|t| >= rho``
    from its operands' values ``xs``, or None if it has no form: `_walk`'s
    ``apply`` once ``rho`` and ``shapes`` are bound.

    A value that reads no ``z`` is a constant: ``const`` is its form as
    `enclose` takes it, and ``shape`` that of degree 0, None if it may hold
    0. A value that reads ``z`` has ``const`` None, and its shape ``(c, d,
    lo, hi)`` does not depend on ``rho``: once known, it is kept in
    ``shapes`` under ``k``, and read from there.
    """
    if None in xs:
        return None
    consts = [const for _, _, const in xs]
    if None not in consts:  # a constant, as `enclose` takes it
        const = _affine(None, k, op, node, arg, *consts)
        return (_shape(const[1], 0), 0.0, const)
    if op in ("+", "-") and consts[1] == _EXACT_ZERO:  # x + 0 and x - 0 are x
        return xs[0]
    if op == "+" and consts[0] == _EXACT_ZERO:  # and so is 0 + x
        return xs[1]
    if op == "-" and consts[0] == _EXACT_ZERO:  # 0 - x is -x
        op, xs = "neg", xs[1:]
    if op in _FUNCS or None in [x for x, _, _ in xs]:  # of a value that reads z, or a constant that may be 0
        return None
    shape = shapes.get(k)
    x, ex, _ = xs[0]
    if op == "neg":
        shape, e = shape or _neg_shape(x), ex
    elif op == "pow":  # (1+E)**arg - 1
        shape, e = shape or _shape(_cpow(x[0], arg), arg * x[1]), _power(ex, arg, _grown)
    else:
        y, ey, _ = xs[1]
        y = _neg_shape(y) if op == "-" else y
        (cx, dx, _, hix), (cy, dy, _, hiy) = x, y
        if op == "*":
            shape, e = shape or _shape(_cmul(cx, cy), dx + dy), _grown(ex, ey)
        elif op == "/":  # (1+E_x)/(1+E_y) - 1 = (E_x-E_y)/(1+E_y)
            shape = shape or _shape(_cdiv(cx, cy), dx - dy)
            e = _udiv(_sum(ex, ey, _INF), _sum(1.0, -ey, -_INF)) if ey < 1 else None
        elif dx == dy:  # a tie adds the coefficients; they may cancel
            shape = shape or _shape((_add(cx[0], cy[0]), _add(cx[1], cy[1])), dx)
            e = None if shape is None else _udiv(_sum(_umul(hix, ex), _umul(hiy, ey), _INF), shape[2])
        else:  # the larger degree wins
            if dx < dy:
                x, ex, y, ey = y, ey, x, ex
            # x + y = c_x t**d_x (1 + E_x + (c_y/c_x) t**(d_y-d_x) (1+E_y)), where
            # |t|**(d_y-d_x) <= rho**(d_y-d_x)
            ratio = _umul(_udiv(y[3], x[2]), _rpow(rho, y[1] - x[1], _INF))
            shape, e = x, _sum(ex, _umul(ratio, _sum(1.0, ey, _INF)), _INF)
    if shape is None or e is None:
        return None
    shapes[k] = shape
    return (shape, e, None)



def _grown(ex: float, ey: float) -> float:
    """``(1+E_x)(1+E_y) - 1`` for ``|E_x| <= ex`` and ``|E_y| <= ey``, rounded up."""
    return _sum(_sum(ex, ey, _INF), _umul(ex, ey), _INF)


def _umul(x: float, y: float) -> float:
    """``x * y`` for ``x, y >= 0``, rounded up (0 when either is 0)."""
    return _up(x * y) if x and y else 0.0


def _udiv(x: float, y: float) -> float:
    """``x / y`` for ``x >= 0`` and ``y > 0``, rounded up (0 when ``x`` is 0)."""
    return _up(x / y) if x else 0.0


def _rpow(rho: float, k: int, toward: float) -> float:
    """``rho ** k`` rounded toward ``toward`` (±inf), allowing 2 ulps of error."""
    try:
        v = rho**k
    except OverflowError:
        v = _INF
    return math.nextafter(math.nextafter(v, toward), toward)


def _floor(form, rho: float, k: int) -> float:
    """``lo * (1-e) * rho**k`` rounded down: a lower bound on
    ``|f| / |t|**(d-k)`` over ``|t| >= rho``; 0 if ``e >= 1``."""
    _, _, e, lo, _ = form
    return _down(_down(lo * _sum(1.0, -e, -_INF)) * _rpow(rho, k, -_INF)) if e < 1 else 0.0


def dominant_form(program: Program, rho: float, var=_AT_INFINITY, shapes: Optional[dict] = None):
    """The map as ``c * t**d * (1+E)`` for every ``t`` with ``|t| >= rho``:
    ``(c, d, e, lo, hi)``, or None if there is no such form.

    The coefficient lies in ``c``, a rectangle ``(re, im)`` of intervals
    with ``0 < lo <= |c| <= hi``; ``d`` is an integer and ``|E| <= e``.
    ``var`` is the form of what ``z`` reads: ``t`` itself by default;
    `_AT_ZERO`, ``1/t``, for the mirror form on ``0 < |z| <= 1/rho``; or
    the map's own form, for its second iterate. A value that reads no
    ``z`` is a constant: it keeps the rectangle that `enclose` gives it
    until it meets a value that reads ``z``, where it becomes a form of
    degree 0 with ``e == 0``, so ``cos(0)*z`` has the form of ``z``. A sum
    keeps its term of larger degree and moves the other into ``E``; every
    such bound falls as ``|t|`` grows, so the bound at ``rho`` holds on all
    of ``|t| >= rho``; ``x+0``, ``0+x`` and ``x-0`` are ``x``, and ``0-x``
    is ``-x``. ``exp``,
    ``sin`` or ``cos`` of a value that reads ``z``, any other constant
    whose rectangle holds 0 and a sum that may cancel have no form.

    Only ``e`` depends on ``rho``: ``shapes``, a dict kept by a caller
    that tries many ``rho`` with forms of ``var`` of one shape, holds the
    shape of each instruction that reads ``z``, by its position in the
    program, once it is known.
    """
    c, d, e, lo, hi = var
    value = _walk(program, ((c, d, lo, hi), e, None), partial(_dominant, rho, {} if shapes is None else shapes))
    if value is None or value[0] is None:
        return None
    (c, d, lo, hi), e, _ = value
    return c, d, e, lo, hi


def escape_rate(form, radius: float) -> float:
    """A lower bound ``kappa`` on ``|f(z)| / |z|`` over ``|z| >= radius``,
    given the form of ``f`` at infinity there, or 0 if its degree is below 1.

    ``|f(z)| >= lo (1-e) |z|**d >= kappa |z|`` with
    ``kappa = lo (1-e) radius**(d-1)``; with ``kappa > 1`` every point
    moves out by at least ``(kappa-1)*radius``.
    """
    return 0.0 if form is None or form[1] < 1 else _floor(form, radius, form[1] - 1)


def _forms(program: Program, var):
    """The form of the map on ``|t| >= rho`` as a function of ``rho``, each
    computed once; ``var`` is what ``z`` reads, or a function of ``rho``
    giving it. When the form at the top rung has ``e == 0``, no bound in
    it depends on ``rho`` (every term of ``e`` is positive once any is),
    so that form is the form at every rung."""
    shapes: dict = {}

    @cache
    def at(rho: float):
        inner = var(rho) if callable(var) else var
        return None if inner is None else dominant_form(program, rho, inner, shapes)

    top = at(RADII[-1])
    return (lambda rho: top) if top is not None and top[2] == 0 else at


def _bungee_region(program: Program, at_infinity) -> Optional[DiskRegion]:
    """The region ``|z| >= R or 0 < |z| <= r`` of a map of negative degree
    at infinity, with the lowest rung ``R`` where

    - ``f(f(z))`` escapes on ``E = {|z| >= R}``,
    - ``f(E)`` lies in ``0 < |z| <= r``, and
    - ``f(0 < |z| <= r)`` lies in ``E``,

    and the largest ``r``, ``1/rho`` rounded down for a rung ``rho``, with
    the last two. From ``E`` the even iterates then escape and the odd ones
    stay within ``r``, so the orbit is in BU (Osborne and Sixsmith 2016).
    ``f(f(z))`` is the program run on the form of ``f``, and the mirror
    form, on ``0 < |z| <= 1/rho``, the program run on ``1/t``.
    """
    second = _forms(program, at_infinity)
    at_zero = _forms(program, _AT_ZERO)

    def floor_at_zero(rho: float) -> float:
        """A lower bound on ``|f(z)|`` over ``0 < |z| <= 1/rho``, or 0."""
        form = at_zero(rho)
        return 0.0 if form is None or form[1] < 1 else _floor(form, rho, form[1])

    def fitting(radius: float) -> int:
        """How many rungs ``rho`` have a disk ``|z| <= 1/rho`` that holds
        ``f(E)``; 0 also if ``f(f(z))`` does not escape on ``E``."""
        form = at_infinity(radius)
        if form is None or not form[2] < 1 or not escape_rate(second(radius), radius) > 1 + _MARGIN:
            return 0
        # |f(z)| <= hi (1+e) radius**d on E, as d < 0
        reach = _umul(_umul(form[4], _sum(1.0, form[2], _INF)), _rpow(radius, form[1], _INF))
        if not reach > 0:  # a NaN bound proves nothing
            return 0
        k = bisect_right(RADII, 1.0 / reach)
        while k and _down(1.0 / RADII[k - 1]) < reach:
            k -= 1
        return k

    radius = _lowest(lambda r: (k := fitting(r)) > 0 and floor_at_zero(RADII[k - 1]) >= r, RADII)
    if radius is None:
        return None
    rho = _lowest(lambda p: floor_at_zero(p) >= radius, RADII[: fitting(radius)])
    return DiskRegion(radius, _down(1.0 / rho))


def _function_of_z(program: Program) -> bool:
    """Whether the program applies ``exp``, ``sin`` or ``cos`` to a value
    that reads ``z``: one walk, whose values say whether each reads ``z``."""
    found = []

    def reads_z(k, op, node, arg, *xs):
        if op in _FUNCS and xs[0]:
            found.append(k)
        return any(xs)

    _walk(program, True, reads_z)
    return bool(found)


def form_regions(program: Program) -> tuple[DiskRegion, ...]:
    """The regions about 0 that dominant-term forms certify: ``|z| >= R``
    for a map of degree ``d >= 1`` at infinity, with ``R`` the lowest rung
    of `RADII` where `escape_rate` exceeds 1 by `_MARGIN`; the Bungee
    region of `_bungee_region` for ``d < 0``; none otherwise."""
    if _function_of_z(program):
        return ()
    at_infinity = _forms(program, _AT_INFINITY)
    top = at_infinity(RADII[-1])
    if top is None or top[1] == 0:
        return ()
    if top[1] < 0:
        region = _bungee_region(program, at_infinity)
        return () if region is None else (region,)
    radius = _lowest(lambda r: escape_rate(at_infinity(r), r) > 1 + _MARGIN, RADII)
    return () if radius is None else (DiskRegion(radius),)


def regions(program: Program) -> tuple:
    """Every region certified for a map: the half-planes and rays of
    `escape_regions`, then the disks of `form_regions`."""
    return escape_regions(program) + form_regions(program)


# --- trap boxes -----------------------------------------------------------

TRAP_PROBE_STEPS = 16  # iterations of the probe before its end points are tried
TRAP_RADII = (0.5, 0.25, 0.125, 0.0625)  # half-widths of the boxes tried, widest first


class TrapBox(NamedTuple):
    """The closed box ``re x im``, which the map provably sends into its
    interior, so every orbit that enters it stays in it: it is bounded."""

    re: tuple
    im: tuple

    def __str__(self) -> str:
        return f"Re z in [{self.re[0]!r}, {self.re[1]!r}], Im z in [{self.im[0]!r}, {self.im[1]!r}]"

    def contains(self, z, m: Optional[np.ndarray] = None):
        """Membership of an array ``z``, or of one complex number."""
        re, im = z.real, z.imag
        return (re >= self.re[0]) & (re <= self.re[1]) & (im >= self.im[0]) & (im <= self.im[1])


def traps(program: Program, box) -> bool:
    """Whether the image of ``box`` that `enclose` gives lies strictly
    inside it: then ``f(box)`` lies in its interior."""
    image = _collapse(enclose(program, box), box)
    return all(side[0] < part[0] and part[1] < side[1] for side, part in zip(box, image))


def _float_value(k: int, op: str, node, arg, x=None, y=None):
    """The float value of an instruction over numpy arrays from its
    operands' values, by the operations `expr._run` applies, so it equals
    `eval_array`'s, with no event test: `_walk`'s ``apply`` for the trap
    probe. A constant stays a numpy scalar, as it does in `expr._run`."""
    if op in _BINARY:
        return _BINARY[op](x, y)
    if op in _UFUNCS:
        return _UFUNCS[op](x)
    return arg if op == "load" else -x if op == "neg" else x**arg


def _probe(program: Program) -> tuple[np.ndarray, np.ndarray]:
    """The trap probe's end points and their float images: the probe, 0 and
    the constants the map loads, iterated `TRAP_PROBE_STEPS` times, and once
    more, through `_walk` in `_float_value`. A constant map's value is
    broadcast to the probe's shape at every step, as `eval_array` does.
    Call it under ``np.errstate(all="ignore")``: a lane whose evaluation
    fails just goes on with its inf or NaN value."""
    loaded = (complex(arg) for op, _, arg in program.code if op == "load" and arg is not None)
    z = np.array(list(dict.fromkeys((0j, *loaded))), dtype=np.complex128)
    for _ in range(TRAP_PROBE_STEPS + 1):
        end, z = z, _walk(program, z, _float_value)
        if np.shape(z) != end.shape:
            z = np.broadcast_to(z, end.shape)
    return end, z


def trap_regions(program: Program, cfg) -> tuple[TrapBox, ...]:
    """The trap boxes of a map, found from its program and ``cfg`` alone.

    A fixed probe, 0 and the constants the map loads, is iterated
    `TRAP_PROBE_STEPS` times by `_probe`, in float values alone through
    `_walk`, with no event test, since the probe only proposes boxes, each
    proved on its own. For each finite end point ``c`` with
    ``|c| <= cfg.r_bound`` that no box kept so far holds, the first box
    ``c ± r``, ``r`` on `TRAP_RADII`, that `traps` certifies is kept. A box
    that traps holds the image of its center, so a radius ``r`` is tried
    only if the float image of ``c``, one more step of the probe, lies
    within ``r`` of it in both parts: a probe that still drifts costs no
    interval evaluation. An end point that has settled usually lies near
    an attracting cycle of period 1 (Milnor 2006, ch. 8): ``0.3*exp(z)``
    traps ``0.48940... ± 0.5``. The interval evaluation that proves each
    box follows Tucker (2011).
    """
    with np.errstate(all="ignore"):
        end, image = _probe(program)
        within = np.abs(end) <= cfg.r_bound
        moves = np.maximum(np.abs(image.real - end.real), np.abs(image.imag - end.imag))
    found: list = []
    for c, move in zip(end[within].tolist(), moves[within].tolist()):
        if any(box.contains(c) for box in found):
            continue
        for r in TRAP_RADII:
            box = TrapBox((c.real - r, c.real + r), (c.imag - r, c.imag + r))
            if move < r and traps(program, box):
                found.append(box)
                break
    return tuple(found)


def locate(regions: tuple, z: np.ndarray, m: Optional[np.ndarray] = None) -> np.ndarray:
    """The index of the first region holding each value of ``z``, -1 for
    none; ``m``, if given, is ``|z|``, which disk regions read."""
    which = np.full(z.shape, -1, dtype=np.int8)
    for k in range(len(regions) - 1, -1, -1):
        which[regions[k].contains(z, m)] = k
    return which
