"""Escape certificates: regions that a map provably moves outward.

A compiled `Program` is run over *affine interval forms* ``alpha*z + I``:
``alpha`` is an exact rational (an int or a `Fraction`) and ``I`` a
rectangle of the complex plane, ``[re_lo, re_hi] x [im_lo, im_hi]``,
whose float endpoints are rounded outward with `math.nextafter`. Loading ``z``, ``+``, ``-``,
unary minus and ``bind``/``unbind`` carry ``alpha`` exactly, and so do
multiplication and division by an exact real constant, so that an affine
conjugate ``a*f((z-b)/a)+b`` with real ``a`` keeps the ``alpha`` of ``f``.
Every other instruction first collapses its operands to rectangles over
the region ``B`` being tried (``alpha*B + I``). An endpoint product
``0 * inf`` is 0, and ``sin``/``cos`` of a real interval are taken as
``[-1, 1]`` (exactly 1 and 0 at the point 0).

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
first, dropped if that fails, and otherwise bisected down to its lowest
certified rung. Every certified rung is checked directly, so the search
order affects only how far a region reaches.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .expr import Program

__all__ = ["Region", "LADDER", "enclose", "certifies", "escape_regions", "locate"]

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

    def contains(self, z: np.ndarray) -> np.ndarray:
        part = z.real if self.axis == 0 else z.imag
        inside = self.sign * part >= self.radius
        return inside & (z.imag == 0) if self.ray else inside


# --- real intervals with outward rounding -----------------------------------


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _sum(x: float, y: float, toward: float) -> float:
    """``x + y`` rounded toward ``toward`` (±inf), exact sums kept as they are."""
    s = x + y
    big, small = (x, y) if abs(x) >= abs(y) else (y, x)
    if math.isfinite(s) and s - big == small:  # Fast2Sum: the rounding error is 0
        return s
    return math.nextafter(s, toward)


def _add(a, b):
    return (_sum(a[0], b[0], -_INF), _sum(a[1], b[1], _INF))


def _neg(a):
    return (-a[1], -a[0])


def _mul(a, b):
    products = [x * y if x and y else 0.0 for x in a for y in b]  # 0 * inf = 0
    lo, hi = min(products), max(products)
    if any(p[0] == p[1] and abs(p[0]) in (0.0, 1.0) for p in (a, b)):
        return (lo, hi)  # a factor of 0 or ±1: every product is exact
    return (_down(lo), _up(hi))


def _square(a):
    lo, hi = sorted((abs(a[0]), abs(a[1])))
    if a[0] <= 0 <= a[1]:
        lo = 0.0
    return (max(0.0, _down(lo * lo)), _up(hi * hi))


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


def _sin_cos(a):
    """``(sin a, cos a)`` for a real interval ``a``."""
    return (_ZERO, _ONE) if a == _ZERO else (_UNIT, _UNIT)


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
    v = x
    for _ in range(n - 1):
        v = _cmul(v, x)
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


def enclose(program: Program, box) -> tuple:
    """``(alpha, I)`` such that ``f(z) - alpha*z`` lies in ``I`` for every
    ``z`` in ``box``, a rectangle ``((re_lo, re_hi), (im_lo, im_hi))``
    whose sides may be infinite; ``alpha`` is an int or a `Fraction`."""
    stack: list = []
    env = [(1, (_ZERO, _ZERO))]  # what Var reads: z, or an inner map's form
    for op, _, arg in program.code:
        if op == "load":
            if arg is None:
                stack.append(env[-1])
            else:
                c = complex(arg)
                stack.append((0, ((c.real, c.real), (c.imag, c.imag))))
        elif op == "bind":
            env.append(stack.pop())
        elif op == "unbind":
            env.pop()
        elif op == "neg":
            alpha, (re, im) = stack.pop()
            stack.append((-alpha, (_neg(re), _neg(im))))
        elif op in ("+", "-"):
            (beta, y), (alpha, x) = stack.pop(), stack.pop()
            if op == "-":
                beta, y = -beta, (_neg(y[0]), _neg(y[1]))
            stack.append((alpha + beta, (_add(x[0], y[0]), _add(x[1], y[1]))))
        elif op in ("*", "/"):
            y, x = stack.pop(), stack.pop()
            if op == "*" and _constant(y) is None:
                x, y = y, x  # a constant factor may stand on either side
            c = _constant(y)
            if c is None or (op == "/" and c == 0):
                x, y = _collapse(x, box), _collapse(y, box)
                stack.append((0, _cmul(x, y) if op == "*" else _cdiv(x, y)))
            else:
                stack.append(_scale(x, c, op == "/"))
        elif op == "pow":
            stack.append((0, _cpow(_collapse(stack.pop(), box), arg)))
        else:
            stack.append((0, _FUNCS[op](_collapse(stack.pop(), box))))
    return stack.pop()


def certifies(program: Program, region: Region) -> bool:
    """Whether ``alpha >= 1`` and ``inf Re(I/u) > 0`` on ``region``."""
    alpha, rect = enclose(program, region.box())
    part = rect[region.axis]
    delta = part[0] if region.sign > 0 else -part[1]
    return alpha >= 1 and delta > 0


def _lowest_rung(program: Program, axis: int, sign: int, ray: bool):
    """The region of the lowest certified rung, or None if the top rung fails."""

    def region(k: int) -> Region:
        return Region(axis, sign, LADDER[k], ray)

    hi = len(LADDER) - 1
    if not certifies(program, region(hi)):
        return None
    lo = -1  # every rung at or below lo fails, if isotone
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certifies(program, region(mid)):
            hi = mid
        else:
            lo = mid
    return region(hi)


def escape_regions(program: Program) -> tuple[Region, ...]:
    """The certified regions of a map: half-planes, then each ray that
    reaches further than the half-plane on its side."""
    # alpha does not depend on the box, and alpha < 1 certifies nothing.
    if enclose(program, Region(0, 1, LADDER[-1]).box())[0] < 1:
        return ()
    found = [
        region
        for axis, sign in ((0, 1), (0, -1), (1, 1), (1, -1))
        if (region := _lowest_rung(program, axis, sign, False)) is not None
    ]
    if all(complex(arg).imag == 0 for op, _, arg in program.code if op == "load" and arg is not None):
        for sign in (1, -1):
            reach = min((r.radius for r in found if r.axis == 0 and r.sign == sign), default=_INF)
            if reach > LADDER[0]:
                ray = _lowest_rung(program, 0, sign, True)
                if ray is not None and ray.radius < reach:
                    found.append(ray)
    return tuple(found)


def locate(regions: tuple[Region, ...], z: np.ndarray) -> np.ndarray:
    """The index of the first region holding each value of ``z``, -1 for none."""
    which = np.full(z.shape, -1, dtype=np.int8)
    for k in range(len(regions) - 1, -1, -1):
        which[regions[k].contains(z)] = k
    return which
