"""Escape, Bungee and trap certificates: the interval interpreter, sin and
cos of a real interval, the dominant-term forms, the region and trap-box
searches and the engine's certified terminations.

Soundness is checked two ways at random points of random boxes, some with
infinite sides: against `eval_array`, whose float value may differ from
the exact one by rounding (hence a relative slack of 1e-9), and against
`mpmath.iv` at 113 bits, which encloses the exact value at the point, so
that check has no slack. The forms and the disk regions are checked
against `mpmath.iv` alone, at random points with ``|z| >= R`` and
``0 < |z| <= r``. mpmath is a test dependency only: the package never
imports it.
"""

from __future__ import annotations

import math
import operator
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import iv

import bungee.certify
from bungee import (
    CertifiedBounded,
    CertifiedBungee,
    CertifiedEscape,
    Classification,
    Completed,
    CycleFound,
    GridSpec,
    Overflowed,
    affine_post,
    classify_batch,
    classify_point,
    compose,
    conjugate,
    get_example,
    iterate_orbit,
    list_examples,
    parse,
)
from bungee.certify import (
    _AT_INFINITY,
    _AT_ZERO,
    _MARGIN,
    LADDER,
    RADII,
    DiskRegion,
    Region,
    TrapBox,
    _forms,
    _sin_cos,
    certifies,
    dominant_form,
    enclose,
    escape_rate,
    escape_regions,
    form_regions,
    locate,
    trap_regions,
    traps,
)
from bungee.expr import EVENT_NONE, compile_expr, eval_array
from bungee.orbit import (
    _CERTIFIED,
    _CERTIFIED_BUNGEE,
    _CYCLE,
    _OVERFLOWED,
    _TRAP_STEP,
    _TRAPPED,
    DEFAULT_CONFIG,
    _run_batch,
)

from strategies import expression_strings

SRC = Path(__file__).resolve().parent.parent / "src"
iv.prec = 113


def catalog_maps() -> dict:
    maps = {}
    for ex_id, _ in list_examples():
        entry = get_example(ex_id)
        for h in (entry.f, entry.g):
            if h is not None:
                maps[str(h)] = h
        if entry.g is not None:
            for h in (compose(entry.f, entry.g), compose(entry.g, entry.f)):
                maps[str(h)] = h
    for text in ("z+1+exp(-z)", "0.3*exp(z)", "z+sin(z)+2*pi", "1/pow(z,2)"):
        for a, b in ((2, 1), (1j, 0.5), (0.5 - 0.5j, -1)):
            h = conjugate(parse(text), a, b)
            maps[str(h)] = h
    for text in ("z+1", "z*z-1", "1/pow(z,2)-1", "z*cos(z)-2*z", "pow(z+1,3)/(z-2*i)"):
        maps[text] = parse(text)
    return maps


MAPS = catalog_maps()


@st.composite
def box_and_points(draw):
    """A rectangle with sides possibly infinite, and points inside it within
    40 of its finite sides."""
    sides, coords = [], []
    for _ in range(2):
        lo = draw(st.one_of(st.just(-math.inf), st.floats(-30, 30)))
        hi = draw(st.one_of(st.just(math.inf), st.floats(0, 40).map(lambda w: (0.0 if lo == -math.inf else lo) + w)))
        if lo == -math.inf and hi != math.inf:
            pick = st.floats(0, 40).map(lambda s: hi - s)
        elif lo == -math.inf:
            pick = st.floats(-40, 40)
        elif hi == math.inf:
            pick = st.floats(0, 40).map(lambda s: lo + s)
        else:
            pick = st.floats(0, 1).map(lambda t: min(hi, lo + t * (hi - lo)))
        sides.append((lo, hi))
        coords.append(draw(st.lists(pick, min_size=4, max_size=4)))
    return tuple(sides), [complex(x, y) for x, y in zip(*coords)]


def contains(interval, value, slack=0.0) -> bool:
    return interval[0] - slack <= value <= interval[1] + slack


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(MAPS)), box_and_points())
def test_enclosure_holds_every_float_value(name, sample):
    box, points = sample
    program = compile_expr(MAPS[name])
    alpha, (re, im) = enclose(program, box)
    values, events = eval_array(program, np.array(points))
    for z, v, ev in zip(points, values, events):
        if ev != EVENT_NONE or not np.isfinite(v):
            continue
        d = complex(v) - alpha * z
        slack = 1e-9 * (1 + abs(v) + abs(alpha * z))
        assert contains(re, d.real, slack) and contains(im, d.imag, slack), (name, box, z, v)


BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def iv_eval(program, z):
    """The map at ``z`` in `mpmath.iv` arithmetic, a walk of the same program."""
    stack, env = [], [z]
    for op, _, arg in program.code:
        if op == "load":
            c = None if arg is None else complex(arg)
            stack.append(env[-1] if c is None else iv.mpc(iv.mpf(c.real), iv.mpf(c.imag)))
        elif op == "bind":
            env.append(stack.pop())
        elif op == "unbind":
            env.pop()
        elif op == "neg":
            stack.append(-stack.pop())
        elif op == "pow":
            stack.append(stack.pop() ** arg)
        elif op in ("exp", "sin", "cos"):
            stack.append(getattr(iv, op)(stack.pop()))
        else:
            y, x = stack.pop(), stack.pop()
            stack.append(BINARY[op](x, y))
    return stack.pop()


def exact_value_inside(program, box, z) -> bool:
    """``f(z) - alpha*z``, enclosed by mpmath at 113 bits, meets ``I``."""
    alpha, (re, im) = enclose(program, box)
    point = iv.mpc(iv.mpf(z.real), iv.mpf(z.imag))
    rest = iv_eval(program, point) - iv.mpf(alpha.numerator) / alpha.denominator * point
    for part, (lo, hi) in ((rest.real, re), (rest.imag, im)):
        if not (part.a <= hi and part.b >= lo):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(MAPS)), box_and_points())
def test_enclosure_holds_the_exact_value_of_every_map(name, sample):
    box, points = sample
    program = compile_expr(MAPS[name])
    for z in points:
        try:
            assert exact_value_inside(program, box, z), (name, box, z)
        except ZeroDivisionError:  # mpmath refuses a point at a pole
            continue


@settings(max_examples=200, deadline=None)
@given(expression_strings(max_leaves=8), box_and_points())
def test_enclosure_holds_the_exact_value_of_random_maps(text, sample):
    box, points = sample
    program = compile_expr(parse(text))
    for z in points:
        try:
            inside = exact_value_inside(program, box, z)
        except (ZeroDivisionError, OverflowError, ValueError):
            assume(False)
        assert inside, (text, box, z)


def test_enclosures_meet_mpmath_box_enclosures():
    """On finite boxes both enclosures hold the image of the box, so they meet."""
    rng = np.random.default_rng(7)
    for name, f in MAPS.items():
        program = compile_expr(f)
        for _ in range(5):
            lo = rng.uniform(-3, 3, 2)
            box = tuple((float(a), float(a + w)) for a, w in zip(lo, rng.uniform(0.01, 2, 2)))
            alpha, (re, im) = enclose(program, box)
            b_re, b_im = ((a * alpha, b * alpha) if alpha >= 0 else (b * alpha, a * alpha) for a, b in box)
            try:
                image = iv_eval(program, iv.mpc(iv.mpf(list(box[0])), iv.mpf(list(box[1]))))
            except ZeroDivisionError:
                continue
            for part, (lo_i, hi_i), (lo_b, hi_b) in ((image.real, re, b_re), (image.imag, im, b_im)):
                assert part.a <= hi_i + hi_b and part.b >= lo_i + lo_b, (name, box)


# --- sin and cos of a real interval -------------------------------------------

HALF_PI = math.pi / 2


@st.composite
def real_intervals(draw):
    """A real interval: wide, about a multiple of pi/2, or far from 0."""
    kind = draw(st.sampled_from(["wide", "near", "far"]))
    if kind == "wide":
        lo, width = draw(st.floats(-1e3, 1e3)), draw(st.floats(0, 10))
    elif kind == "near":
        lo = draw(st.integers(-2000, 2000)) * HALF_PI + draw(st.floats(-1e-6, 1e-6))
        width = draw(st.sampled_from([0.0, 1e-300, 1e-12, 1e-6, 0.1]))
    else:
        lo, width = draw(st.floats(-1e17, 1e17)), draw(st.floats(0, 4))
    return (lo, lo + width)


@settings(max_examples=1000, deadline=None)
@given(real_intervals())
@example((HALF_PI, HALF_PI))
@example((math.pi, math.pi))
@example((-5e-324, 5e-324))
@example((2.0**50 - 1, 2.0**50))
@example((3 * HALF_PI - 1e-17, 3 * HALF_PI + 1e-17))
def test_sin_cos_of_an_interval_hold_the_exact_range(a):
    """Both hold `mpmath.iv`'s enclosure at 113 bits of the range over
    ``a``, and below ``2**20`` exceed it by at most 4e-16 on either side."""
    x = iv.mpf(list(a))
    for mine, exact in zip(_sin_cos(a), (iv.sin(x), iv.cos(x))):
        assert mine[0] <= exact.a and exact.b <= mine[1], (a, mine, exact)
        if max(map(abs, a)) < 2.0**20 and a[1] - a[0] < 7:
            assert mine[0] >= exact.a - 4e-16 and mine[1] <= exact.b + 4e-16, (a, mine, exact)


def test_exp_of_a_box_off_the_imaginary_axis_excludes_0():
    """With tight sin and cos, exp of a box whose imaginary side lies within
    (-pi/2, pi/2) has a positive real part: `0.3*exp(z)` maps its trap box
    q ± 0.5 about the fixed point q = 0.4894 into [0.260, 0.807] x
    [-0.387, 0.387], inside the box, as `mpmath.iv` does."""
    program = compile_expr(parse("0.3*exp(z)"))
    (box,) = trap_regions(program, DEFAULT_CONFIG)
    assert box.re[0] < 0 and box.im == (-0.5, 0.5)
    alpha, (re, im) = enclose(program, box)
    assert alpha == 0 and 0.260 < re[0] < 0.261 and 0.806 < re[1] < 0.807 and 0.386 < im[1] == -im[0] < 0.387


# --- the region search ----------------------------------------------------


@pytest.mark.parametrize(
    "text, regions",
    [
        ("z+1+exp(-z)", ["Re z >= 0.0625"]),
        ("z+1+exp(-z)+2*pi*i", ["Re z >= 0.0625"]),
        ("z+1", ["Re z >= 0.0625"]),
        ("z+sin(z)+2*pi", ["z in [0.0625, inf)"]),
        ("-z-2*i", []),  # alpha = -1
        ("z-3*i", ["Im z <= -0.0625"]),
        ("2*z+1", ["Re z >= 0.0625"]),  # alpha = 2, an exact scale
        ("1.01*z", []),  # alpha > 1, but no margin delta
        # negative controls: no steady outward motion anywhere
        ("exp(-z-1)+1", []),
        ("z", []),
        ("z+sin(z)", []),
        ("0.5*z", []),
        ("1/pow(z,2)", []),
        ("0.3*exp(z)", []),
        ("exp(z)", []),
        ("z*z-1", []),
    ],
)
def test_certified_regions(text, regions):
    assert [str(r) for r in escape_regions(compile_expr(parse(text)))] == regions


def test_the_bottom_rung_is_tried_right_after_the_top(monkeypatch):
    """Fatou's half-plane holds at the top rung of `LADDER` and at its
    bottom rung, 1/16, which is then the lowest: two tries, no bisection.
    ``Re z >= 2`` of its conjugate by ``2z+1`` is bisected between them.
    Every rung tried is decided by `_certified`, the top rung of ``Re z >=
    R`` from the enclosure the alpha test already made."""
    tried = []
    holds = bungee.certify._certified
    monkeypatch.setattr(bungee.certify, "_certified", lambda form, region: tried.append(region) or holds(form, region))
    assert escape_regions(compile_expr(parse("z+1+exp(-z)"))) == (Region(0, 1, 0.0625),)
    assert [r.radius for r in tried if (r.axis, r.sign, r.ray) == (0, 1, False)] == [LADDER[-1], LADDER[0]]
    tried.clear()
    assert regions_of(conjugate(parse("z+1+exp(-z)"), 2, 1))[0] == "Re z >= 2.0"
    right = [r.radius for r in tried if (r.axis, r.sign, r.ray) == (0, 1, False)]
    assert right[:2] == [LADDER[-1], LADDER[0]] and 2.0 in right[2:]


@pytest.mark.parametrize("text", ["z+1+exp(-z)", "z+sin(z)"])
def test_escape_regions_enclose_each_box_once(monkeypatch, text):
    """The alpha test encloses ``Re z >= 2**60``, the top rung of the first
    half-plane, which reuses it: each of the six boxes tried is enclosed
    once. (Fatou's map: the top and bottom rung of ``Re z >= R``, the top
    rungs of the other three half-planes and of the ray ``(-inf, -R]``.)"""
    boxes = []
    monkeypatch.setattr(bungee.certify, "enclose", lambda program, box: boxes.append(box) or enclose(program, box))
    escape_regions(compile_expr(parse(text)))
    assert len(boxes) == len(set(boxes)) == 6


def regions_of(f) -> list[str]:
    return [str(r) for r in escape_regions(compile_expr(f))]


def test_composites_and_real_conjugates_keep_their_regions():
    f, g = parse("z+1+exp(-z)"), parse("z+1+exp(-z)+2*pi*i")
    assert regions_of(compose(f, g)) == regions_of(compose(g, f)) == ["Re z >= 0.0625"]
    # a*f((z-b)/a)+b scales alpha by 1/a, then by a, exactly.
    assert regions_of(conjugate(f, 1, 0)) == ["Re z >= 0.0625"]
    # On the real axis it is z + 2 + 2*exp(-(z-1)/2) > z + 2, so the ray
    # [1/16, inf) moves right by 2, past where the half-plane reaches. The
    # division by 2 rounds Im((z-1)/2) outward to a tiny interval about 0,
    # whose sine is tight: the image's imaginary part stays within 1e-322.
    assert regions_of(conjugate(f, 2, 1)) == ["Re z >= 2.0", "z in [0.0625, inf)"]
    assert regions_of(conjugate(f, -1, 0)) == ["Re z <= -0.0625"]
    assert regions_of(conjugate(parse("z+sin(z)+2*pi"), -1, 3)) == ["z in (-inf, -0.0625]"]
    # A complex scale collapses alpha to 0: sound, not complete.
    assert regions_of(conjugate(f, 1j, 0)) == []


def test_image_inside_the_shifted_region_is_not_a_certificate():
    # exp(-z-1)+1 maps the ray [1/16, inf) into [1, 1.346], inside the ray
    # shifted right by 0.9, yet its attracting fixed point 1.12 lies there:
    # alpha = 0, so the form proves no outward motion.
    program = compile_expr(parse("exp(-z-1)+1"))
    ray = Region(0, 1, LADDER[0], ray=True)
    alpha, (re, im) = enclose(program, ray.box())
    assert alpha == 0 and 1.0 <= re[0] and re[1] < 1.35 and im == (0.0, 0.0)
    assert re[0] >= LADDER[0] + 0.9
    assert not certifies(program, ray)
    assert escape_regions(program) == ()


# The trap box that `trap_regions` keeps about the fixed point 1.12 of exp(-z-1)+1.
TRAP_1_12 = "Re z in [0.6200282389876377, 1.6200282389876377], Im z in [-0.5, 0.5]"


@pytest.mark.parametrize("seed", [0.1, 0.5, 1, 3])
def test_attracting_fixed_point_on_the_real_axis_stays_bounded(seed, monkeypatch):
    # The box 1.12 ± 0.5 about the attracting fixed point is a trap: the
    # orbit is in it at the step-15 checkpoint and ends there, Bounded.
    f = parse("exp(-z-1)+1")
    rec = iterate_orbit(f, seed)
    assert rec.termination == CertifiedBounded(15, TRAP_1_12)
    assert abs(rec.values[-1] - 1.1200) < 1e-4
    assert classify_point(f, seed) == Classification.BOUNDED
    # Without its box, the orbit runs on to a near-repeat at the fixed point.
    monkeypatch.setattr(bungee.certify, "trap_regions", lambda program, cfg: ())
    rec = iterate_orbit(f, seed)
    assert isinstance(rec.termination, CycleFound)
    assert abs(rec.values[-1] - 1.1200) < 1e-4
    assert classify_point(f, seed) == Classification.BOUNDED


def test_region_membership():
    z = np.array([3, 3 + 1e-300j, 0.0625, 0.06, -3, 2j, -2j], dtype=np.complex128)
    half, ray = Region(0, 1, 0.0625), Region(0, 1, 0.0625, ray=True)
    assert half.contains(z).tolist() == [True, True, True, False, False, False, False]
    assert ray.contains(z).tolist() == [True, False, True, False, False, False, False]
    assert Region(1, -1, 1.0).contains(z).tolist() == [False] * 6 + [True]
    assert locate((ray, half, Region(0, -1, 1.0)), z).tolist() == [0, 1, 0, -1, 2, -1, -1]
    assert [str(r) for r in (half, ray, Region(0, -1, 2.0, True), Region(1, 1, 4.0))] == [
        "Re z >= 0.0625", "z in [0.0625, inf)", "z in (-inf, -2.0]", "Im z >= 4.0",
    ]


def test_certified_region_moves_points_outward():
    """Re(f(z)/u) >= Re(z/u) + delta at sampled points of every certified region."""
    rng = np.random.default_rng(3)
    for name, f in MAPS.items():
        program = compile_expr(f)
        for region in escape_regions(program):
            _, rect = enclose(program, region.box())
            delta = rect[region.axis][0] if region.sign > 0 else -rect[region.axis][1]
            side = region.sign * (region.radius + rng.uniform(0, 40, 200))
            other = 0 if region.ray else rng.uniform(-40, 40, 200)
            z = side + 1j * other if region.axis == 0 else other + 1j * side
            v, ev = eval_array(program, z)
            ok = ev == EVENT_NONE
            part = (lambda w: w.real) if region.axis == 0 else (lambda w: w.imag)
            gain = region.sign * (part(v[ok]) - part(z[ok]))
            assert ok.any() and np.all(gain >= delta * (1 - 1e-9)), (name, str(region))


def test_search_runs_once_per_call(monkeypatch):
    calls = []
    for name in ("escape_regions", "form_regions", "trap_regions"):
        search = getattr(bungee.certify, name)

        def counted(*args, search=search, name=name):
            calls.append(name)
            return search(*args)

        monkeypatch.setattr(bungee.certify, name, counted)
    grid = GridSpec(-3, 3, -3, 3, 149, 55).points()  # three chunks
    # Every lane of these ends by the step-15 checkpoint's escape test (two
    # Fatou lanes end in its half-plane there), so no lane is left for the
    # trap test: no trap search.
    for text in ("z+1+exp(-z)", "1/pow(z,2)"):
        f = parse(text)
        _, state = classify_batch(f, grid, return_state=True)
        assert state.term_step.max() <= _TRAP_STEP and not np.any(state.kind == _TRAPPED)
        iterate_orbit(f, 0.5)
    assert sorted(calls) == ["escape_regions"] * 4 + ["form_regions"] * 4
    # Lanes of 0.3*exp(z) reach it in every chunk, and the orbit of 0.5 does
    # too: one trap search per call, which also names the record's box. The
    # orbit of 3 escapes before it: no search.
    calls.clear()
    f = parse("0.3*exp(z)")
    _, state = classify_batch(f, grid, return_state=True)
    assert np.count_nonzero(state.kind == _TRAPPED) > 3 * 4096 // 2
    assert calls.count("trap_regions") == 1
    assert isinstance(iterate_orbit(f, 0.5).termination, CertifiedBounded)
    assert calls.count("trap_regions") == 2
    assert iterate_orbit(f, 3).termination.step < _TRAP_STEP
    assert calls.count("trap_regions") == 2


def test_no_mpmath_on_the_run_paths(tmp_path):
    code = (
        "import sys; from bungee.cli import main; "
        f"main(['render', '--function', 'z+1+exp(-z)', '--grid=-3,3,-3,3', '--size', '8,8', "
        f"'--ppm', {str(tmp_path / 'f.ppm')!r}]); "
        "main(['classify', '--function', 'z+sin(z)+2*pi', '--point', '0,0']); "
        "assert 'mpmath' not in sys.modules, 'mpmath imported'"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", code], env={"PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# --- the engine's certified termination -------------------------------------


def test_fatou_seeds_end_in_the_half_plane_at_step_zero_or_one():
    """Seeds right of two lie in Re z >= 1/16 already: they end at step 0,
    before one evaluation. Seeds of Re z in [-1/2, 0] with |Im z| <= 1 lie
    left of it, and their first iterates, of real part at least
    -1/2 + 1 + cos(1), lie in it at the step-1 checkpoint."""
    f = parse("z+1+exp(-z)")
    for grid, step in ((GridSpec(2, 5, -3, 3, 12, 24), 0), (GridSpec(-0.5, 0, -1, 1, 12, 24), 1)):
        codes, state = classify_batch(f, grid.points(), return_state=True)
        assert np.all(codes == Classification.ESCAPING)
        assert np.all(state.kind == _CERTIFIED) and np.all(state.term_step == step)
    assert iterate_orbit(f, 2 - 3j).termination == CertifiedEscape(0, "Re z >= 0.0625")
    assert iterate_orbit(f, -0.5 - 1j).termination == CertifiedEscape(1, "Re z >= 0.0625")


def test_a_lane_past_the_guard_is_tested_against_the_regions():
    # -400 -> 5.2e173, past the guard and inside Re z >= 1/16: the guard's
    # step reads the regions at that iterate, so the orbit ends certified.
    # -400 + pi*i -> -5.2e173 + pi*i, past the guard outside every region.
    f = parse("z+1+exp(-z)")
    assert iterate_orbit(f, -400).termination == CertifiedEscape(1, "Re z >= 0.0625")
    assert iterate_orbit(f, -400 + math.pi * 1j).termination == Overflowed(1)
    seeds = np.array([-400, -400 + math.pi * 1j, 3], dtype=np.complex128)
    _, state = classify_batch(f, seeds, return_state=True)
    assert state.kind.tolist() == [_CERTIFIED, _OVERFLOWED, _CERTIFIED] and state.region.tolist() == [0, -1, 0]
    assert state.term_step.tolist() == [1, 1, 0]


def test_translation_escapes_everywhere():
    codes = classify_batch(parse("z+1"), GridSpec(-2, 2, -2, 2, 40, 40).points())
    assert np.all(codes == Classification.ESCAPING)


def test_rounding_absorbed_fatou_lanes_end_before_their_repeat():
    # Without regions, 38 lanes of this grid end CycleFound past |z| = 1e12,
    # where z+1 rounds to z. With them, each is certified by step 7, long
    # before its repeat could be seen.
    f = parse("z+1+exp(-z)")
    seeds = GridSpec(-3, 3, -3, 3, 64, 64).points().ravel()
    plain = _run_batch(compile_expr(f), seeds, DEFAULT_CONFIG, ())
    absorbed = plain.kind == _CYCLE
    assert np.count_nonzero(absorbed) == 38 and np.abs(plain.z[absorbed]).min() > 1e12
    _, state = classify_batch(f, seeds, return_state=True)
    assert np.count_nonzero(state.kind == _CYCLE) == 0
    assert np.all(state.kind[absorbed] == _CERTIFIED) and state.term_step[absorbed].max() <= 7


# --- dominant-term forms and the regions about 0 ------------------------------

MOEBIUS = "(z*cos(0.05)-sin(0.05))/(z*sin(0.05)+cos(0.05))"
ROTATION_COEFFICIENT = complex(math.cos(1.0), math.sin(1.0))
ROTATION = f"({ROTATION_COEFFICIENT.real!r}+{ROTATION_COEFFICIENT.imag!r}*i)*z"
INVERSE_SQUARE_BUNGEE = "|z| >= 1.0009765625 or 0 < |z| <= 0.9990243902439023"
# Polynomial and rational maps: with a region about 0, then without one.
FORM_MAPS = {
    text: parse(text)
    for text in (
        "1.001*z", "1.4*z", "pow(z,2)", "z*z-1", "2*z+1", "pow(z+1,3)/(z-2*i)", "1/pow(z,2)",
        "(-0.5+0.8660254037844386*i)/pow(z,2)", "2/pow(z,3)", "1/pow(z,2)+z/1e9",
        "z", "0.5*z", "1/z", "z/(z-1)", MOEBIUS, ROTATION, "1/pow(z,2)-1", "4/pow(z,2)+z",
        "exp(0.001)*z", "exp(1)*z*z", "exp(2*pi*i/3)/pow(z,2)", "cos(0)*z*z", "pow(z,7)", "pow(z+1,5)/(z-2*i)",
        "2*(1/pow(z,2))+0", "0+z*z-1", "pow(z,2)-0", "0-pow(z,2)", "0-1/pow(z,2)",
    )
}


@pytest.mark.parametrize(
    "text, regions",
    [
        ("1.001*z", ["|z| >= 0.0625"]),  # rate 1.001, whatever the radius
        ("1.4*z", ["|z| >= 0.0625"]),
        ("pow(z,2)", ["|z| >= 1.0009765625"]),  # rate R > 1
        ("z*z-1", ["|z| >= 2.0"]),  # rate R (1 - R**-2) > 1
        ("1/pow(z,2)", [INVERSE_SQUARE_BUNGEE]),  # f(f(z)) = z**4
        ("(-0.5+0.8660254037844386*i)/pow(z,2)", [INVERSE_SQUARE_BUNGEE]),
        ("2/pow(z,3)", ["|z| >= 1.25 or 0 < |z| <= 1.1249999999999998"]),  # f(f(z)) = z**9/4
        # negative controls: no escape, or no alternation, about 0
        ("z", []),
        ("0.5*z", []),
        ("1/z", []),  # every orbit has period 2: f(f(z)) = z
        ("z/(z-1)", []),  # degree 0 at infinity
        (MOEBIUS, []),
        ("1/pow(z,2)-1", []),  # degree 0 at infinity
        # a function of a constant is a constant, of degree 0
        ("exp(0.001)*z", ["|z| >= 0.0625"]),  # rate e**0.001
        ("exp(1)*z*z", ["|z| >= 0.5"]),  # rate e R > 1
        # a rotated 1/pow(z,2): the rectangle of exp(2*pi*i/3) lies near the
        # unit circle, since sin and cos of a real interval are tight
        ("exp(2*pi*i/3)/pow(z,2)", [INVERSE_SQUARE_BUNGEE]),
        ("exp(2*pi*i/3)*z", []),  # a rotation: |f(z)| = |z|, so no region
        ("cos(0)*z*z", ["|z| >= 1.0009765625"]),  # cos(0) is 1: the form of z*z
        ("sin(0)*z*z", []),  # sin(0) is exactly 0: the zero map has no form
        # an exact 0 added or subtracted is dropped, as affine_post(f, a, 0) needs
        ("1*(1/pow(z,2))+0", [INVERSE_SQUARE_BUNGEE]),
        ("2*(1/pow(z,2))+0", ["|z| >= 1.5 or 0 < |z| <= 1.1249999999999998"]),
        ("0+z*z-1", ["|z| >= 2.0"]),
        ("pow(z,2)-0", ["|z| >= 1.0009765625"]),
        ("1/pow(z,2)+(1-1)", [INVERSE_SQUARE_BUNGEE]),  # a constant that is exactly 0
        ("1/pow(z,2)+sin(0)", []),  # sin(0) is 0, but its rectangle, widened by sinh, holds 0
        ("0-pow(z,2)", ["|z| >= 1.0009765625"]),  # 0 - x is -x, as -pow(z,2) is
        ("-pow(z,2)", ["|z| >= 1.0009765625"]),
        ("0-1/pow(z,2)", [INVERSE_SQUARE_BUNGEE]),
    ],
)
def test_form_regions(text, regions):
    assert [str(r) for r in form_regions(compile_expr(parse(text)))] == regions


@pytest.mark.parametrize("text", ["pow(z,2)", "1/pow(z,2)", "z*z-1"])
def test_zero_minus_a_map_has_the_form_of_its_negation(text):
    """``0-x`` is ``-x``: at infinity and at 0 its form is that of
    ``-(x)``, the form of ``x`` with the coefficient negated, not that of
    ``x``, which has the same regions."""
    minus, neg, plain = (compile_expr(parse(t)) for t in (f"0-({text})", f"-({text})", text))
    for var in (_AT_INFINITY, _AT_ZERO):
        for rho in (RADII[0], 2.0, RADII[-1]):
            form = dominant_form(minus, rho, var)
            assert form is not None and form == dominant_form(neg, rho, var) != dominant_form(plain, rho, var)


def test_an_affine_image_with_a_zero_shift_keeps_its_bungee_region():
    """``affine_post(f, 1, 0)`` is ``1*f(z)+0``, the ``g`` of the
    AffineBungeeEqual check of ``ex_rational_bungee``. Its ``+0`` is the
    identity, so ``g`` has the region of ``f`` and reads as ``f`` does at
    the seeds that end at step 0 in it."""
    f = parse("1/pow(z,2)")
    g = affine_post(f, 1, 0)
    assert [str(r) for r in bungee.certify.regions(compile_expr(g))] == [INVERSE_SQUARE_BUNGEE]
    for seed in (1e-300, 1e200, 0.5):
        assert classify_point(g, seed) == classify_point(f, seed) == Classification.BUNGEE
        assert iterate_orbit(g, seed).termination == iterate_orbit(f, seed).termination
    twice = affine_post(f, 2, 0)
    assert [str(r) for r in bungee.certify.regions(compile_expr(twice))] == [
        "|z| >= 1.5 or 0 < |z| <= 1.1249999999999998"
    ]


def test_powers_take_logarithmically_many_products(monkeypatch):
    """``pow`` squares and multiplies: its rectangle takes about 2 log2(n)
    products, not n - 1."""
    products = []
    cmul = bungee.certify._cmul
    monkeypatch.setattr(bungee.certify, "_cmul", lambda x, y: products.append(1) or cmul(x, y))
    one = ((1.0, 1.0), (0.0, 0.0))
    assert bungee.certify._cpow(one, 10**6) == one
    assert len(products) <= 45


def test_a_huge_power_is_certified_at_once():
    """The search for ``pow(z,n)`` takes log n steps, its error bound too."""
    assert [str(r) for r in bungee.certify.regions(compile_expr(parse("pow(z,3000000000)")))] == ["|z| >= 1.0009765625"]


@pytest.mark.parametrize("name", sorted(n for n in MAPS if any(fn in n for fn in ("exp", "sin", "cos"))))
def test_transcendental_maps_get_no_form_and_no_arithmetic(name, monkeypatch):
    """One scan of the program refuses ``exp``, ``sin`` and ``cos`` before
    any arithmetic on forms."""
    monkeypatch.setattr(bungee.certify, "dominant_form", None)
    assert form_regions(compile_expr(MAPS[name])) == ()


def test_rotation_is_kept_out_by_the_margin():
    """The float coefficient of the rotation of `test_rotation_is_bounded_without_a_cycle`
    has modulus just above 1, so ``|a|**n * |z|`` does grow without bound;
    but ``|a| - 1`` is below `_MARGIN`, and so is the certified rate."""
    a = ROTATION_COEFFICIENT
    square = Fraction(a.real) ** 2 + Fraction(a.imag) ** 2
    assert square - 1 == Fraction(982820015145589, 2**104)  # 4.8e-17
    program = compile_expr(parse(ROTATION))
    assert 0 < (square - 1) / 2 < _MARGIN  # |a| - 1 is below (|a|**2 - 1)/2
    assert all(escape_rate(dominant_form(program, r), r) <= 1 + _MARGIN for r in RADII)
    assert form_regions(program) == ()
    rec = iterate_orbit(parse(ROTATION), 0.7 + 0.1j)
    assert rec.termination == Completed() and classify_point(parse(ROTATION), 0.7 + 0.1j) == Classification.BOUNDED


def test_slow_geometric_escape_is_certified():
    """1.001**1000 is about 2.7, so no seed of this grid leaves r_bound within
    the budget; the rate 1.001 proves every one of them escapes."""
    codes, state = classify_batch(parse("1.001*z"), GridSpec(-3, 3, -3, 3, 12, 12).points(), return_state=True)
    assert np.all(codes == Classification.ESCAPING) and codes.size == 144
    assert np.all(state.kind == _CERTIFIED) and np.all(state.term_step == 0)  # every |z| >= 1/16
    for text, seed in (("1.4*z", 1), ("pow(z,2)", 3), ("z*z-1", 3)):
        assert isinstance(iterate_orbit(parse(text), seed).termination, CertifiedEscape)


def test_exp_of_a_constant_coefficient_is_certified():
    """``exp(0.001)*z`` grows at the rate e**0.001 = 1.001..., like ``1.001*z``:
    its coefficient is a function of a constant, which has a form."""
    f = parse("exp(0.001)*z")
    codes, state = classify_batch(f, GridSpec(-3, 3, -3, 3, 12, 12).points(), return_state=True)
    assert np.all(codes == Classification.ESCAPING) and codes.size == 144
    assert np.all(state.kind == _CERTIFIED) and np.all(state.term_step == 0)
    assert iterate_orbit(f, 1e7).termination == CertifiedEscape(0, "|z| >= 0.0625")
    assert iterate_orbit(f, 0.05).termination == CertifiedEscape(255, "|z| >= 0.0625")
    assert classify_point(f, 1e7) == Classification.ESCAPING


def test_inverse_square_seeds_are_certified_bungee():
    f = parse("1/pow(z,2)")
    codes, state = classify_batch(f, GridSpec(-2, 2, -2, 2, 64, 64).points(), return_state=True)
    assert np.all(codes == Classification.BUNGEE)
    assert np.all(state.kind == _CERTIFIED_BUNGEE) and state.term_step.max() <= 3
    assert iterate_orbit(f, 0.5).termination == CertifiedBungee(0, INVERSE_SQUARE_BUNGEE)
    # 1 + 2**-11 lies between the region's two parts; its image lies inside.
    assert iterate_orbit(f, 1 + 2.0**-11).termination == CertifiedBungee(1, INVERSE_SQUARE_BUNGEE)


def test_unit_circle_seeds_of_the_inverse_square_stay_bounded():
    # The roots of unity of order 64 cycle on the circle, between the two
    # parts of the Bungee region (the catalog's `_rational_circle` check).
    f = parse("1/pow(z,2)")
    seeds = np.exp(2j * math.pi * np.arange(64) / 64)
    codes, state = classify_batch(f, seeds, return_state=True)
    assert np.all(codes == Classification.BOUNDED) and np.all(state.kind == _CYCLE)
    for seed in (1, 1j, -1, np.exp(2j * math.pi / 3)):
        assert classify_point(f, seed) == Classification.BOUNDED


def test_disk_membership_is_tested_a_few_ulps_inside():
    region = DiskRegion(2.0, 0.5)
    m = np.array([2.0, 2 + 2.0**-51, 2 + 2.0**-49, 0.5, 0.5 - 2.0**-53, 0.5 - 2.0**-51, 5e-324, 0.0, 1.0])
    inside = [False, False, True, False, False, True, True, False, False]
    assert region.contains(m.astype(np.complex128), m).tolist() == inside
    assert DiskRegion(2.0).contains(m.astype(np.complex128)).tolist() == [False, False, True] + [False] * 6
    assert str(region) == "|z| >= 2.0 or 0 < |z| <= 0.5" and region.bungee and not DiskRegion(2.0).bungee
    # A batch's test reads the engine's own |z|, and finds each region's kind.
    z = np.array([3, 0.25, 1, 2 + 1e-300j], dtype=np.complex128)
    assert locate((Region(0, 1, 2.5), region), z, np.abs(z)).tolist() == [0, 1, -1, -1]


@settings(max_examples=500, deadline=None)
@given(st.floats(0, 2 * math.pi), st.integers(-8, 8), st.sampled_from(RADII))
@example(2.75, 0, 0.0625)  # np.abs reads one ulp below 0.0625, the exact modulus is above it
@example(1.6469767599868812, 0, 0.8)  # np.abs reads 0.8 - 1.3 ulps, the exact modulus is above it
def test_np_abs_a_few_ulps_inside_a_radius_is_inside(theta, k, radius):
    """A float ``z`` within a few ulps of a radius: inside it by the disk
    test on ``np.abs`` is inside it exactly, on either side."""
    scale = radius * (1 + k * 2.0**-52)
    z = complex(scale * math.cos(theta), scale * math.sin(theta))
    exact = abs(iv.mpc(iv.mpf(z.real), iv.mpf(z.imag)))
    m = np.abs(np.array([z]))
    if DiskRegion(radius).contains(np.array([z]), m)[0]:
        assert exact.a >= radius
    if DiskRegion(2.0**70, radius).contains(np.array([z]), m)[0]:
        assert exact.b <= radius


def exact_modulus(program, z):
    return abs(iv_eval(program, iv.mpc(iv.mpf(z.real), iv.mpf(z.imag))))


def modulus_points(draw, radius: float, outside: bool) -> list[complex]:
    """Float points with ``|z| >= radius``, or ``0 < |z| <= radius``, exactly."""
    points = []
    for theta, s in draw(st.lists(st.tuples(st.floats(0, 2 * math.pi), st.floats(0, 12)), min_size=3, max_size=3)):
        scale = radius * 2.0**s if outside else radius * 2.0**-s
        z = complex(scale * math.cos(theta), scale * math.sin(theta))
        m = abs(iv.mpc(iv.mpf(z.real), iv.mpf(z.imag)))
        if (m.a >= radius) if outside else (0 < m.a and m.b <= radius):
            points.append(z)
    return points


@settings(max_examples=300, deadline=None)
@given(st.data(), st.one_of(st.sampled_from(sorted(FORM_MAPS)), expression_strings(max_leaves=6)),
       st.sampled_from(RADII), st.booleans())
def test_dominant_forms_bound_the_exact_modulus(data, text, rho, at_zero):
    """``lo (1-e) |t|**d <= |f(z)| <= hi (1+e) |t|**d`` for ``|t| >= rho``,
    ``t = z`` at infinity and ``t = 1/z`` at 0."""
    program = compile_expr(parse(text))
    form = dominant_form(program, rho, _AT_ZERO) if at_zero else dominant_form(program, rho)
    assume(form is not None and form[2] < 1)
    _, d, e, lo, hi = form
    for z in modulus_points(data.draw, 1 / rho if at_zero else rho, not at_zero):
        t = 1 / iv.mpc(iv.mpf(z.real), iv.mpf(z.imag)) if at_zero else iv.mpc(iv.mpf(z.real), iv.mpf(z.imag))
        if at_zero and abs(t).a < rho:
            continue
        try:
            value = exact_modulus(program, z)
        except ZeroDivisionError:
            continue
        scale = abs(t) ** d
        assert value.b >= (iv.mpf(lo) * (1 - iv.mpf(e)) * scale).a, (text, rho, z)
        assert value.a <= (iv.mpf(hi) * (1 + iv.mpf(e)) * scale).b, (text, rho, z)


def certified_regions():
    regions = []
    for text, f in sorted(FORM_MAPS.items()) + sorted(MAPS.items()):
        program = compile_expr(f)
        regions += [(text, program, region) for region in form_regions(program)]
    return regions


CERTIFIED = certified_regions()


def assert_region_holds(text, program, region, draw) -> None:
    """On ``|z| >= R``: ``|f(z)| >= |z| + (kappa-1) R``, or for a Bungee
    region ``|f(f(z))| >= |z| + (kappa-1) R`` and ``0 < |f(z)| <= r``;
    on ``0 < |z| <= r``: ``|f(z)| >= R``; at random exact points. Each
    check fails only when the mpmath enclosure is wholly on the wrong side."""
    radius = region.radius
    form = dominant_form(program, radius)
    second = dominant_form(program, radius, form) if region.bungee else form
    kappa = escape_rate(second, radius)
    assert kappa > 1 + _MARGIN
    delta = iv.mpf(kappa - 1) * radius
    for z in modulus_points(draw, radius, True):
        point = iv.mpc(iv.mpf(z.real), iv.mpf(z.imag))
        image = iv_eval(program, point)
        if region.bungee:
            assert abs(image).b > 0 and abs(image).a <= region.inner, (text, z)
            assert abs(iv_eval(program, image)).b >= (abs(point) + delta).a, (text, z)
        else:
            assert abs(image).b >= (abs(point) + delta).a, (text, z)
            assert abs(image).b >= (iv.mpf(kappa) * abs(point)).a, (text, z)
    if region.bungee:
        for z in modulus_points(draw, region.inner, False):
            assert exact_modulus(program, z).b >= radius, (text, z)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(range(len(CERTIFIED))))
def test_certified_disk_regions_hold_at_exact_points(data, k):
    assert_region_holds(*CERTIFIED[k], data.draw)


def complex_text(w: complex) -> str:
    """``w`` as a parenthesized literal with no zero part."""
    if w.imag == 0:
        return f"({w.real!r})"
    return f"({w.imag!r}*i)" if w.real == 0 else f"({w.real!r}+{w.imag!r}*i)"


@st.composite
def shifted_powers(draw) -> str:
    """``c*pow(z+a,d)+b`` or ``c/pow(z+a,d)+b``, leaving out a zero ``a`` or
    ``b``, since a zero constant has no form."""
    value = st.builds(complex, st.sampled_from([0.0, 0.0, 0.25, -0.5, 1.5]), st.sampled_from([0.0, 0.0, 0.75]))
    c = draw(st.builds(complex, st.sampled_from([0.5, 1.0, 2.0, -1.5, 3.0]), st.sampled_from([0.0, 0.0, 0.75, -1.0])))
    a, b, d = draw(value), draw(value), draw(st.integers(1, 4))
    base = "z" if a == 0 else f"(z+{complex_text(a)})"
    text = f"{complex_text(c)}{draw(st.sampled_from('*/'))}pow({base},{d})"
    return text if b == 0 else f"{text}+{complex_text(b)}"


@settings(max_examples=150, deadline=None)
@given(st.data(), shifted_powers())
def test_regions_of_shifted_powers_hold_at_exact_points(data, text):
    program = compile_expr(parse(text))
    for region in form_regions(program):
        assert_region_holds(text, program, region, data.draw)


def test_certified_regions_cover_the_form_maps():
    found = {text for text, _, _ in CERTIFIED}
    assert found >= {"1.001*z", "1.4*z", "pow(z,2)", "z*z-1", "1/pow(z,2)", "2/pow(z,3)", "exp(0.001)*z",
                     "exp(1)*z*z", "exp(2*pi*i/3)/pow(z,2)", "cos(0)*z*z", "pow(z,7)", "pow(z+1,5)/(z-2*i)"}
    assert not found & {"z", "0.5*z", "1/z", "z/(z-1)", MOEBIUS, ROTATION}
    assert any(region.bungee for _, _, region in CERTIFIED)


# --- trap boxes ---------------------------------------------------------------

TRAP_EXTRA = ("exp(z-1)-1", "z*z-0.5", "0.5*z+0.25*i", "z*z+0.25", "z+sin(z)", "exp(z)")


def trap_boxes():
    boxes = []
    maps = sorted(MAPS.items()) + sorted(FORM_MAPS.items()) + [(text, parse(text)) for text in TRAP_EXTRA]
    for text, f in maps:
        program = compile_expr(f)
        boxes += [(text, program, box) for box in trap_regions(program, DEFAULT_CONFIG)]
    return boxes


TRAPS = trap_boxes()


def test_trap_boxes_cover_the_attracting_fixed_points():
    found = {text: str(box) for text, _, box in TRAPS}
    assert found["exp(-z-1)+1"] == TRAP_1_12
    assert found["pow(z,2)"] == "Re z in [-0.25, 0.25], Im z in [-0.25, 0.25]"
    assert found["0.5*z"] == "Re z in [-0.5, 0.5], Im z in [-0.5, 0.5]"
    assert {"0.3*exp(z)", "exp(z-1)-1", "z*z-0.5", "0.5*z+0.25*i", "cos(0)*z*z"} <= set(found)
    # No box of these traps under the plain enclosure: z*z+0.25's fixed point
    # 1/2 is parabolic, the sine map's boxes widen (B + sin B is wider than
    # B), exp(z) has no attracting cycle, and the others escape or are Bungee.
    assert not {"z*z+0.25", "z+sin(z)", "exp(z)", "z+1+exp(-z)", "1/pow(z,2)", "z*z-1"} & set(found)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(range(len(TRAPS))), st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=4,
                                                     max_size=4))
def test_trap_boxes_map_into_their_interior_at_exact_points(k, unit):
    """Random points of each box, and its corners, map into its interior,
    by `mpmath.iv` at 113 bits."""
    text, program, box = TRAPS[k]
    (a, b), (c, d) = box
    points = [complex(a + s * (b - a), c + t * (d - c)) for s, t in unit] + [complex(a, c), complex(b, d)]
    assert box.contains(np.array(points)).all()
    for z in points:
        image = iv_eval(program, iv.mpc(iv.mpf(z.real), iv.mpf(z.imag)))
        assert a < image.real.a and image.real.b < b and c < image.imag.a and image.imag.b < d, (text, z)


def test_trap_box_membership_is_closed():
    box = TrapBox((-0.5, 0.5), (0.0, 1.0))
    z = np.array([0.5 + 1j, -0.5, 0.5000000000000001, 1.5j, 0.25 + 0.5j])
    assert box.contains(z).tolist() == [True, True, False, False, True]
    assert box.contains(-0.5 + 0j) and not box.contains(2 + 0j)
    assert str(box) == "Re z in [-0.5, 0.5], Im z in [0.0, 1.0]"
    assert traps(compile_expr(parse("0.5*z")), ((-1.0, 1.0), (-1.0, 1.0)))
    assert not traps(compile_expr(parse("z")), ((-1.0, 1.0), (-1.0, 1.0)))  # f(B) = B: not inside int B


def test_probe_end_points_out_of_range_are_skipped():
    # The probe of this constant map ends at a finite point whose modulus,
    # 2.1e308, overflows double range: it lies beyond r_bound, no error.
    assert trap_regions(compile_expr(parse("1.5e308+1.5e308*i")), DEFAULT_CONFIG) == ()
    # A constant map traps every box about its value.
    assert [str(b) for b in trap_regions(compile_expr(parse("0*z+2")), DEFAULT_CONFIG)] == [
        "Re z in [1.5, 2.5], Im z in [-0.5, 0.5]"]


def test_drifting_probes_cost_no_interval_evaluation(monkeypatch):
    # The Fatou map moves each probe right by about 1 a step, so no end point
    # holds its image in any box: no box is tried. 0 is a fixed point of
    # z+sin(z), so all four of its boxes are tried.
    calls = []
    monkeypatch.setattr(bungee.certify, "enclose", lambda *args: calls.append(args) or enclose(*args))
    assert trap_regions(compile_expr(parse("z+1+exp(-z)+2*pi*i")), DEFAULT_CONFIG) == () and calls == []
    assert trap_regions(compile_expr(parse("z+sin(z)")), DEFAULT_CONFIG) == () and len(calls) == 4


def test_trapped_lanes_end_at_the_step_15_checkpoint():
    """0.3*exp(z) on the 64x64 grid over [-4,4]^2: every lane that would
    end in a cycle ends in the box instead, at the step-15 checkpoint or the
    next, with the same verdict; the escaping lanes do not move."""
    f = parse("0.3*exp(z)")
    seeds = GridSpec(-4, 4, -4, 4, 64, 64).points().ravel()
    plain = _run_batch(compile_expr(f), seeds, DEFAULT_CONFIG, ())
    codes, state = classify_batch(f, seeds, return_state=True)
    cycled = plain.kind == _CYCLE
    assert np.count_nonzero(cycled) > 3900 and plain.term_step[cycled].min() > _TRAP_STEP
    assert np.all(state.kind[cycled] == _TRAPPED) and set(state.term_step[cycled].tolist()) <= {15, 31}
    assert np.all(state.region[cycled] == 0)
    assert np.array_equal(codes, bungee.orbit._verdicts(plain, DEFAULT_CONFIG))
    assert np.array_equal(state.kind[~cycled], plain.kind[~cycled])


def test_trapped_batches_equal_their_one_seed_runs():
    """A batch whose lanes end before, at and after the step-15 checkpoint
    is the concatenation of its one-seed runs, at every field: the boxes
    depend only on the map and the config."""
    ends = set()
    for text in ("0.3*exp(z)", "pow(z,2)", "exp(z-1)-1", "0.9*z"):
        f, program = parse(text), compile_expr(parse(text))
        seeds = GridSpec(-3, 3, -3, 3, 9, 7).points().ravel()
        _, state = classify_batch(f, seeds, return_state=True)
        assert state.term_step.min() < _TRAP_STEP and np.any(state.kind == _TRAPPED)
        ends |= set(state.term_step[state.kind == _TRAPPED].tolist())
        for i, seed in enumerate(seeds):
            rec = iterate_orbit(f, complex(seed))
            for name in state._fields:
                assert getattr(rec.state, name)[0] == getattr(state, name)[i], (text, seed, name)
            if state.kind[i] == _TRAPPED:
                (box,) = trap_regions(program, DEFAULT_CONFIG)
                assert rec.termination == CertifiedBounded(int(state.term_step[i]), str(box))
                assert classify_point(f, complex(seed)) == Classification.BOUNDED
    assert ends == {15, 31}  # 0.9*z needs two checkpoints to bring 3+3i into 0 ± 0.5


def test_rotated_inverse_square_seeds_are_certified_bungee():
    """exp(2*pi*i/3)/pow(z,2) is 1/pow(z,2) turned by a third of a turn: its
    Bungee region certifies, and every lane of the grid ends in it by step 3."""
    f = parse("exp(2*pi*i/3)/pow(z,2)")
    codes, state = classify_batch(f, GridSpec(-2, 2, -2, 2, 64, 64).points(), return_state=True)
    assert np.all(codes == Classification.BUNGEE)
    assert np.all(state.kind == _CERTIFIED_BUNGEE) and state.term_step.max() <= 3
    assert iterate_orbit(f, 0.5).termination == CertifiedBungee(0, INVERSE_SQUARE_BUNGEE)
    # 1 + 2**-11 lies between the region's two parts; its image lies inside.
    assert iterate_orbit(f, 1 + 2.0**-11).termination == CertifiedBungee(1, INVERSE_SQUARE_BUNGEE)


def test_escapes_of_a_map_with_a_unit_constant_are_certified():
    """cos(0)*z*z is z*z: its escaping lanes end in |z| >= 1.0009765625."""
    f = parse("cos(0)*z*z")
    codes, state = classify_batch(f, GridSpec(-2, 2, -2, 2, 64, 64).points(), return_state=True)
    escaping = codes.ravel() == Classification.ESCAPING
    assert np.count_nonzero(escaping) == 3284 and np.all(state.kind[escaping] == _CERTIFIED)
    assert np.array_equal(codes, classify_batch(parse("z*z"), GridSpec(-2, 2, -2, 2, 64, 64).points()))


# --- the program walker -------------------------------------------------------


def test_deep_compositions_keep_their_certificates():
    """1,000 nested ``compose`` of ``z+1`` is ``z+1000``, nested either way:
    with the composite as the outer map, ``Var`` reads a value 999 binds
    deep; as the inner map, a bound value that reads another."""
    f = parse("z+1")
    outer = inner = f
    for _ in range(999):
        outer, inner = compose(outer, f), compose(f, inner)
    for h in (outer, inner):
        program = compile_expr(h)
        assert [str(region) for region in bungee.certify.regions(program)] == ["Re z >= 0.0625"]
        assert enclose(program, Region(0, 1, 1.0).box()) == (1, ((1000.0, 1000.0), (0.0, 0.0)))
        assert dominant_form(program, RADII[-1])[1] == 1


def test_kept_shapes_give_the_fresh_forms():
    """`_forms` keeps each instruction's shape under its position and reads
    it at every later rung: at every rung of `RADII` it gives what a fresh
    `dominant_form` gives, at infinity, at 0 and, for a map of negative
    degree, for the second iterate."""
    compared = 0
    for text, f in sorted(FORM_MAPS.items()):
        program = compile_expr(f)
        at_infinity = _forms(program, _AT_INFINITY)
        cases = [(at_infinity, lambda rho: _AT_INFINITY), (_forms(program, _AT_ZERO), lambda rho: _AT_ZERO)]
        top = at_infinity(RADII[-1])
        if top is not None and top[1] < 0:
            cases.append((_forms(program, at_infinity), lambda rho: dominant_form(program, rho)))
        for kept, var in cases:
            for rho in RADII[::-1]:
                inner = var(rho)
                assert kept(rho) == (None if inner is None else dominant_form(program, rho, inner)), (text, rho)
                compared += 1
    assert compared == 5525
