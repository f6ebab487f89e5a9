"""Orbit iteration, cycle detection, and the four-way verdict rules.

The inverse-square orbit of 0.5 is the main frozen oracle: every iterate
is an exact power of two, so the expected moduli below are hand-derived
and exact. The attracting/repelling fixed points of 0.3*e^z come from a
bisection oracle run inside the tests, independent of the classifier.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bungee.certify
import bungee.orbit
from bungee import (
    CertifiedBounded,
    CertifiedBungee,
    CertifiedEscape,
    Classification,
    ClassifierConfig,
    Completed,
    CycleFound,
    GridSpec,
    Overflowed,
    PoleHit,
    RelationId,
    SamplePlan,
    classify,
    classify_batch,
    classify_point,
    compose,
    get_example,
    iterate_orbit,
    list_examples,
    parse,
    verify_relation,
)
from bungee.certify import DiskRegion
from bungee.expr import compile_expr
from bungee.orbit import (
    _CERTIFIED,
    _CERTIFIED_BUNGEE,
    _COMPLETED,
    _CYCLE,
    _OVERFLOWED,
    CYCLE_TOL,
    DEFAULT_CONFIG,
    MIN_ALTERNATIONS,
    OVERFLOW_GUARD,
    PEAK_GROWTH,
    BatchState,
    _cycle_entry,
    _kinds,
    _run_batch,
    _start,
)

# Config used by the sine-pair and drift examples: their orbits creep
# outward at ~2*pi per step, so escape must be read at a lower radius.
DRIFT_CFG = ClassifierConfig(max_iter=2000, r_bound=100.0, r_esc=1e3)
# The Bungee region that dominant-term forms certify for 1/pow(z,2).
INVERSE_SQUARE_BUNGEE = "|z| >= 1.0009765625 or 0 < |z| <= 0.9990243902439023"


def drop_regions(monkeypatch) -> None:
    """Make `iterate_orbit` and `classify_batch` run the engine with the
    regions ``()`` and no trap boxes, as `run_engine` does by default: for
    tests of the engine's own mechanics (peaks, the guard, evaluation
    events, cycles) on maps whose certified regions end orbits first."""
    monkeypatch.setattr(bungee.certify, "regions", lambda program: ())
    monkeypatch.setattr(bungee.certify, "trap_regions", lambda program, cfg: ())


@pytest.fixture
def no_regions(monkeypatch):
    drop_regions(monkeypatch)


def run_engine(program, seeds, cfg=DEFAULT_CONFIG, regions=(), trace=None) -> BatchState:
    """One engine run over ``seeds``, tested against ``regions`` and no trap
    boxes: step 0 by `_start`, then `_run_batch` on what it leaves running.
    A ``trace`` must hold the seed already, as `iterate_orbit` gives it."""
    z = np.array(seeds, dtype=np.complex128).ravel()  # a copy: the state's z is written in place
    state = _start(z, bungee.certify.locate(regions, z, np.abs(z)), _kinds(regions))
    return _run_batch(program, state, cfg, regions, trace=trace)


def bisect(h, lo: float, hi: float) -> float:
    """Sign-change bisection, independent of any package numerics."""
    flo = h(lo)
    assert flo * h(hi) < 0
    for _ in range(200):
        mid = (lo + hi) / 2
        if flo * h(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def inverse_square_orbit(z0: complex, guard: float = 1e150) -> list[complex]:
    """Hand iteration of 1/z^2, stopping once the guard is crossed."""
    z = complex(z0)
    vals = [z]
    while abs(z) <= guard and 0 < abs(z):
        z = 1 / (z * z)
        vals.append(z)
    return vals


def reference_verdict(rec, cfg=DEFAULT_CONFIG) -> Classification:
    """Rules 1-4 written out as scalar code over a record's own fields.

    This is an independent statement of the rules that `_verdicts` states
    once in the package: it reads the recorded moduli, peaks and
    termination, not the engine state that `classify` reads.
    """
    certified = isinstance(rec.termination, CertifiedEscape)
    if isinstance(rec.termination, PoleHit):
        return Classification.UNRESOLVED
    if isinstance(rec.termination, CertifiedBungee):  # rule 2, whatever the returns
        return Classification.BUNGEE
    if isinstance(rec.termination, CertifiedBounded):  # rule 1: the orbit stays in a box
        return Classification.BOUNDED

    if isinstance(rec.termination, CycleFound):
        cycle = rec.moduli[-rec.termination.period :]
        if np.all(cycle <= cfg.r_bound):
            return Classification.BOUNDED
    elif isinstance(rec.termination, Completed):
        if rec.global_max <= cfg.r_bound:
            return Classification.BOUNDED

    values = [v for _, v in rec.peaks]
    escalating = all(
        values[j + 1] >= PEAK_GROWTH * values[j] for j in range(len(values) - 1)
    )
    if rec.returns >= MIN_ALTERNATIONS and escalating and rec.peaks and not certified:
        return Classification.BUNGEE

    if certified:
        return Classification.ESCAPING
    if isinstance(rec.termination, Overflowed) and rec.returns < MIN_ALTERNATIONS:
        return Classification.ESCAPING

    return Classification.UNRESOLVED


def reference_peaks(moduli: np.ndarray, cfg: ClassifierConfig) -> tuple[tuple[int, float], ...]:
    """Where the engine's peaks lie: ``(index, modulus)`` of each one's largest iterate.

    A scalar replay of the peak rule over a record's moduli, independent
    of the start and return steps the engine records.
    """
    peaks: list[tuple[int, float]] = []
    armed = bool(moduli[0] < cfg.r_bound)
    in_peak = False
    for i in range(1, len(moduli)):
        mv = float(moduli[i])
        if in_peak:
            if mv < cfg.r_bound:
                in_peak = False
                armed = True
            elif mv > peaks[-1][1]:
                peaks[-1] = (i, mv)
        elif armed and mv > cfg.r_esc:
            peaks.append((i, mv))
            in_peak = True
            armed = False
        elif mv < cfg.r_bound:
            armed = True
    return tuple(peaks)


def reference_cycle(
    values: Sequence[complex], tol: float
) -> Optional[tuple[int, int]]:
    """Find a near-repeat in an orbit prefix.

    Walks the sequence with a doubling checkpoint (Brent's schedule),
    comparing complex values under relative tolerance ``tol``. Returns
    ``(period, entry)`` for the first match, where ``entry`` is the
    first index at which the orbit agrees with itself one period later,
    or None if the prefix never repeats.
    """
    vals = np.asarray(values, dtype=np.complex128)
    tortoise = 0
    power = 1
    lam = 0
    for i in range(1, len(vals)):
        lam += 1
        ref = vals[tortoise]
        if abs(vals[i] - ref) <= tol * abs(ref):
            return lam, _cycle_entry(vals, lam, i, tol)
        if lam == power:
            tortoise = i
            power *= 2
            lam = 0
    return None


# --- configuration -------------------------------------------------------


def test_default_config_values():
    cfg = ClassifierConfig()
    assert cfg._fields == ("max_iter", "r_bound", "r_esc")
    assert cfg.max_iter == 1000
    assert cfg.r_bound == 1e3
    assert cfg.r_esc == 1e6
    assert MIN_ALTERNATIONS == 2
    assert PEAK_GROWTH == 2.0
    assert CYCLE_TOL == 1e-12
    assert OVERFLOW_GUARD == 1e150


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iter": 0},
        {"r_bound": 0.0},
        {"r_bound": 1e7},
        {"r_esc": 1e151},
        {"r_esc": 1e3},  # r_esc == r_bound
        {"r_esc": 1e150},  # r_esc == OVERFLOW_GUARD
        {"max_iter": -1},
        {"r_bound": -1.0},
        {"r_esc": 1.0},  # r_esc < r_bound
        {"max_iter": 10.5},
        {"max_iter": True},
        {"max_iter": 2.0},
        {"max_iter": "2"},
        {"r_bound": "x"},
        {"r_esc": True},
        {"r_bound": None},
        {"r_esc": "1e6"},
        {"r_esc": 1e200j},
        {"r_bound": math.inf},
        {"max_iter": math.inf},
        {"r_bound": math.nan},
        {"r_esc": math.inf},
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        ClassifierConfig(**kwargs)


@pytest.mark.parametrize("name", ["r_bound", "r_esc", "peak_growth", "cycle_tol", "overflow_guard"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400], ids=["inf", "-inf", "nan", "huge-int"])
def test_config_rejects_every_non_finite_real(name, value):
    """Through `from_dict`, as from a config file: a field's own check
    refuses the value, and a retired field, now a fixed module constant,
    is refused as an unknown key whatever its value."""
    kept = name in ClassifierConfig._fields
    want = f"{name} must be a finite real number" if kept else f"unknown config keys: {name}$"
    with pytest.raises(ValueError, match=want):
        ClassifierConfig.from_dict({name: value})


def test_config_dict_round_trip():
    cfg = DRIFT_CFG
    assert ClassifierConfig.from_dict(cfg.to_dict()) == cfg
    assert ClassifierConfig.from_dict({"max_iter": 500}).max_iter == 500


def test_config_of_numpy_scalars_writes_plain_json():
    """`to_dict` gives Python numbers, so a relation report run under a
    config of numpy scalars serializes, to the same text as under the
    equal config of Python numbers."""
    numpy_cfg = ClassifierConfig(max_iter=np.int64(50), r_bound=np.float32(100.0), r_esc=np.float64(1e4))
    assert [type(v) for v in numpy_cfg.to_dict().values()] == [int, float, float]
    f, plan = parse("exp(z)"), SamplePlan.grid(-1, 1, -1, 1, 2, 2)
    report = verify_relation(RelationId.STRIP_CONTAINMENT, f, plan, cfg=numpy_cfg)
    plain = verify_relation(RelationId.STRIP_CONTAINMENT, f, plan, cfg=ClassifierConfig(50, 100.0, 1e4))
    assert report.to_json() == plain.to_json()


@pytest.mark.parametrize("kwargs", [
    {"r_bound": np.float32(100.0)},
    {"r_esc": np.float32(1e6)},
    {"r_bound": np.float16(3.0), "r_esc": np.float16(100.0)},
    {"r_bound": np.float32(1e30)},  # refused: above r_esc
    {"r_esc": np.float16(np.inf)},  # refused: not finite
])
def test_config_checks_narrow_floats_without_warnings(kwargs):
    """No numpy cast warning escapes the checks, so they run under ``-W error``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ClassifierConfig(**kwargs)
        except ValueError:
            pass


@pytest.mark.parametrize("data", [{"bogus": 1}, {"max_iter": 500, "r_max": 1.0}, [1]])
def test_config_from_dict_rejects_unknown_keys_and_non_objects(data):
    with pytest.raises(ValueError):
        ClassifierConfig.from_dict(data)


# --- iterate_orbit -------------------------------------------------------


def test_inverse_square_orbit_record_matches_hand_iteration(no_regions):
    """Without regions the engine walks the orbit until the guard."""
    want = inverse_square_orbit(0.5)
    assert len(want) == 10  # overflow guard crossed at step 9
    rec = iterate_orbit(parse("1/pow(z,2)"), 0.5)
    assert rec.seed == 0.5
    assert rec.values.tolist() == want
    assert rec.moduli.tolist() == [abs(v) for v in want]
    # Exact powers of two all the way out.
    assert rec.moduli.tolist() == [
        0.5,
        4.0,
        0.0625,
        256.0,
        1.52587890625e-05,
        4294967296.0,
        5.421010862427522e-20,
        3.402823669209385e38,
        8.636168555094445e-78,
        1.3407807929942597e154,
    ]
    assert rec.termination == Overflowed(9)
    assert rec.returns == 2
    assert rec.peaks == (
        (5, 4294967296.0),
        (7, 3.402823669209385e38),
        (9, 1.3407807929942597e154),
    )
    assert rec.global_max == 1.3407807929942597e154


def test_inverse_square_orbit_is_certified_bungee_at_step_one():
    # 1 + 2**-11 lies between the region's parts |z| >= R = 1 + 2**-10 and
    # 0 < |z| <= r = 1/R, rounded down; its image 1/(1 + 2**-11)**2 lies in
    # the disk at the step-1 checkpoint: f(f(z)) = z**4 moves |z| >= R
    # outward, while f swaps it with the disk.
    seed = 1 + 2.0**-11
    rec = iterate_orbit(parse("1/pow(z,2)"), seed)
    assert rec.values.tolist() == inverse_square_orbit(seed)[:2]
    assert rec.termination == CertifiedBungee(1, INVERSE_SQUARE_BUNGEE)
    assert rec.returns == 0 and rec.peaks == () and rec.global_max == seed
    assert classify(rec) == Classification.BUNGEE


def test_seeds_inside_a_region_end_at_step_zero():
    """The regions are read at the seed itself, before the map is evaluated
    and before the guard: 0.5 lies in the disk of 1/pow(z,2)'s Bungee
    region, 1e-200 too (its square would underflow), and 1e200, past the
    guard, in pow(z,2)'s |z| >= R."""
    for text, seed, termination in (
        ("1/pow(z,2)", 0.5, CertifiedBungee(0, INVERSE_SQUARE_BUNGEE)),
        ("1/pow(z,2)", 1e-200, CertifiedBungee(0, INVERSE_SQUARE_BUNGEE)),
        ("1/pow(z,2)", 1e-300, CertifiedBungee(0, INVERSE_SQUARE_BUNGEE)),
        ("pow(z,2)", 1e200, CertifiedEscape(0, "|z| >= 1.0009765625")),
    ):
        rec = iterate_orbit(parse(text), seed)
        assert rec.termination == termination and rec.values.tolist() == [seed]
        assert rec.returns == 0 and rec.peaks == () and rec.global_max == seed
        want = Classification.BUNGEE if isinstance(termination, CertifiedBungee) else Classification.ESCAPING
        assert classify(rec) == classify_point(parse(text), seed) == want


# Seeds past the guard that no certificate holds are stepped once, like
# any other: 0*z sends 1e200 to its fixed point 0, and exp(-z-1)+1 to
# exactly 1, whose orbit its trap box holds at step 15; z keeps it past the
# guard, so it overflows at step 1. pow(z,2) still ends at step 0, in its
# region, unevaluated.
@pytest.mark.parametrize("text, image, termination, verdict", [
    ("0*z", 0, CycleFound(1, 1), Classification.BOUNDED),
    ("exp(-z-1)+1", 1, CertifiedBounded, Classification.BOUNDED),
    ("z", 1e200, Overflowed(1), Classification.ESCAPING),
    ("pow(z,2)", None, CertifiedEscape(0, "|z| >= 1.0009765625"), Classification.ESCAPING),
], ids=["0*z", "exp(-z-1)+1", "z", "pow(z,2)"])
def test_a_seed_past_the_guard_is_stepped_once(text, image, termination, verdict):
    rec = iterate_orbit(parse(text), 1e200)
    if isinstance(termination, type):
        assert isinstance(rec.termination, termination) and rec.termination.step == 15
    else:
        assert rec.termination == termination
    assert rec.values[:2].tolist() == [1e200] + ([] if image is None else [image])
    assert classify(rec) == Classification(int(classify_batch(parse(text), [1e200])[0])) == verdict


def test_a_seed_of_infinite_modulus_is_no_near_repeat_of_its_image():
    """|1.5e308+1.5e308j| is inf, so a cycle tolerance relative to it would
    take every finite image for a repeat at step 1. 1/z+1 sends the seed to
    1, from which the orbit falls to the golden ratio."""
    rec = iterate_orbit(parse("1/z+1"), 1.5e308 + 1.5e308j)
    assert rec.values[1] == 1 and rec.termination.period == 1 and rec.termination.entry > 1
    assert abs(rec.values[-1] - (1 + 5**0.5) / 2) < 1e-9
    assert classify(rec) == Classification.BOUNDED


# Orbits whose exp argument passes real part 700 while every value stays a
# double: 1/exp(z) from this seed reaches 702-20.9j, then about 1.3e-305,
# and falls to its attracting fixed point, about 0.567; the composite of
# ex_halfplane_pair's maps evaluates exp at real part 706 in its second
# step, and ends in a trap box at step 15.
@pytest.mark.parametrize("f, seed, termination", [
    (parse("1/exp(z)"), -2.2083333333333335 - 2.375j, CycleFound),
    (compose(parse("exp(-z-1)+1"), parse("exp(z-1)-1")), 2.9166666666666714 - 22.083333333333332j,
     CertifiedBounded),
], ids=["1/exp(z)", "compose(exp(-z-1)+1, exp(z-1)-1)"])
def test_an_exp_argument_past_700_is_no_overflow(f, seed, termination):
    rec = iterate_orbit(f, seed)
    assert isinstance(rec.termination, termination)
    assert classify(rec) == Classification(int(classify_batch(f, [seed])[0])) == Classification.BOUNDED


def test_orbit_record_invariants_hold():
    for text, seed, cfg in [
        ("1/pow(z,2)", 0.5 + 0j, DEFAULT_CONFIG),
        ("z+sin(z)+2*pi", 0j, DEFAULT_CONFIG),
        ("z+sin(z)+2*pi", 0j, DRIFT_CFG),
        ("0.3*exp(z)", 0j, DEFAULT_CONFIG),
        ("exp(z)", 5 + 0j, DEFAULT_CONFIG),
    ]:
        rec = iterate_orbit(parse(text), seed, cfg)
        assert all(value > cfg.r_esc for _, value in rec.peaks)
        assert rec.returns <= len(rec.peaks)
        assert len(rec.values) <= cfg.max_iter + 1
        assert rec.global_max == rec.moduli.max()


def test_drift_orbit_walks_out_linearly():
    # Without its escape region the engine walks the orbit the whole budget.
    f = parse("z+sin(z)+2*pi")
    trace = [(0j, False)]
    state = run_engine(compile_expr(f), [0], trace=trace)
    assert int(state.kind[0]) == _COMPLETED and not any(opened for _, opened in trace)
    for n in range(31):
        assert abs(abs(trace[n][0]) - 2 * math.pi * n) <= 1e-6


def test_drift_orbit_is_certified_at_its_first_checkpoint():
    # 0 -> 2*pi, a real number: on the ray [1/16, inf) the map's enclosure
    # is z + [2*pi - 1, 2*pi + 1], so every orbit that enters it escapes.
    rec = iterate_orbit(parse("z+sin(z)+2*pi"), 0)
    assert rec.termination == CertifiedEscape(1, "z in [0.0625, inf)")
    assert rec.returns == 0 and rec.peaks == ()
    assert rec.values.tolist() == [0, 2 * math.pi]


def test_sine_map_fixes_origin_exactly():
    rec = iterate_orbit(parse("z+sin(z)"), 0)
    assert rec.termination == CycleFound(1, 0)
    assert rec.moduli.max() == 0.0


def test_pole_hit_is_recorded():
    rec = iterate_orbit(parse("1/pow(z,2)"), 0)
    assert rec.termination == PoleHit(1)


@pytest.mark.parametrize("text, termination", [("1/pow(z,2)", PoleHit(1)), ("exp(z)", Overflowed(5))])
def test_a_failed_evaluation_records_no_iterate(text, termination):
    # 0 -> pole; 0, 1, e, e**e, e**e**e -> exp overflows: the step is one
    # past the last recorded index.
    rec = iterate_orbit(parse(text), 0)
    assert rec.termination == termination and len(rec.values) == termination.step


def test_non_finite_seed_is_rejected():
    with pytest.raises(ValueError):
        iterate_orbit(parse("z"), complex("inf"))
    with pytest.raises(ValueError):
        iterate_orbit(parse("z"), complex(0, math.nan))


# --- reference_cycle -----------------------------------------------------


def test_reference_cycle_on_settled_fixed_point():
    # Attracting fixed point of 0.3*e^z, located independently.
    q = bisect(lambda x: 0.3 * math.exp(x) - x, 0.0, 1.0)
    assert abs(q - 0.4894) < 5e-4
    settled = np.full(10, complex(q))
    assert reference_cycle(settled, 1e-12) == (1, 0)
    rec = iterate_orbit(parse("0.3*exp(z)"), q)
    assert isinstance(rec.termination, CycleFound)
    assert rec.termination.period == 1
    assert rec.termination.entry == 0


def test_reference_cycle_sees_no_cycle_in_alternating_escape():
    vals = np.array(inverse_square_orbit(0.5), dtype=np.complex128)
    assert reference_cycle(vals, 1e-12) is None


def test_reference_cycle_after_transient():
    # i -> -1 -> 1 -> 1 -> ..., exact on units.
    vals = np.array([1j, -1, 1, 1, 1], dtype=np.complex128)
    assert reference_cycle(vals, 1e-12) == (1, 2)
    rec = iterate_orbit(parse("1/pow(z,2)"), 1j)
    assert rec.termination == CycleFound(1, 2)


def test_reference_cycle_reports_least_period():
    two_cycle = np.array([2, 0.5, 2, 0.5, 2, 0.5], dtype=np.complex128)
    assert reference_cycle(two_cycle, 1e-12) == (2, 0)


# --- classify ------------------------------------------------------------


def test_drift_map_escapes_under_its_shipped_config():
    assert classify_point(parse("z+sin(z)+2*pi"), 0, DRIFT_CFG) == Classification.ESCAPING


def test_sine_map_origin_is_bounded():
    assert classify_point(parse("z+sin(z)"), 0) == Classification.BOUNDED
    assert classify_point(parse("z+sin(z)"), 0, DRIFT_CFG) == Classification.BOUNDED


def test_inverse_square_half_is_bungee():
    assert classify_point(parse("1/pow(z,2)"), 0.5) == Classification.BUNGEE


def test_scaled_exp_escapes_beyond_repelling_point():
    # Bisection locates the repelling fixed point p of 0.3*e^x with
    # 0.3*e^p = p and p > 1; real orbits started above p blow up.
    p = bisect(lambda x: 0.3 * math.exp(x) - x, 1.0, 3.0)
    assert 1.7 < p < 1.9
    assert 3 > p
    assert classify_point(parse("0.3*exp(z)"), 3) == Classification.ESCAPING


def test_classify_point_examples():
    assert classify_point(parse("0.3*exp(z)"), 0) == Classification.BOUNDED
    assert classify_point(parse("exp(z)"), 5) == Classification.ESCAPING
    assert classify_point(parse("1/pow(z,2)"), 1) == Classification.BOUNDED


@pytest.mark.parametrize("text, seed, ending", [
    ("0.5*z", 1, CertifiedBounded(15, "Re z in [-0.5, 0.5], Im z in [-0.5, 0.5]")),
    ("pow(z,2)", 0.5, CertifiedBounded(15, "Re z in [-0.25, 0.25], Im z in [-0.25, 0.25]")),
    ("z", 1e-300, CycleFound(1, 0)),
], ids=["0.5*z-1", "pow(z,2)-0.5", "z-1e-300"])
def test_orbits_attracted_to_zero_are_bounded(text, seed, ending):
    # 0 is an attracting fixed point of the first two maps (Milnor, ch. 8),
    # so the orbit shrinks toward it: it must not end as overflowed. Each
    # map sends the box about 0 that its search keeps into its interior (by
    # half, and to |z| <= 1/8), so the orbit ends in that box at the step-15
    # checkpoint. Every point is fixed by z: a near-repeat at step 1.
    f = parse(text)
    rec = iterate_orbit(f, seed)
    assert rec.termination == ending
    assert classify(rec) == Classification.BOUNDED
    assert classify_batch(f, np.array([seed], dtype=np.complex128))[0] == Classification.BOUNDED


def test_pole_counts_only_at_the_input_zero():
    # 1e-200 squared underflows to 0, so the division is by an exact zero
    # that the input is not: the orbit has overflowed, not hit the pole.
    # (1/pow(z,2) itself ends that seed at step 0 in its Bungee region; this
    # map applies exp to z, so it has no region.)
    assert iterate_orbit(parse("1/(z*z)+0.1*exp(z)"), 1e-200).termination == Overflowed(1)
    assert iterate_orbit(parse("1/pow(z,2)"), 0).termination == PoleHit(1)


def test_pole_forces_unresolved():
    assert classify_point(parse("1/pow(z,2)"), 0) == Classification.UNRESOLVED
    assert classify_point(parse("1/z"), 0) == Classification.UNRESOLVED


# A constant map lands on its value at step 1 and repeats it at step 2, so
# each of these puts |z| exactly on one threshold of the default config:
# r_bound is inside the bounded disk, and neither r_esc nor the overflow
# guard is crossed by reaching it.
@pytest.mark.parametrize(
    "text, verdict, peaks",
    [
        ("1000", Classification.BOUNDED, 0),  # cycle_max == r_bound
        ("1000000", Classification.UNRESOLVED, 0),  # |z| == r_esc starts no peak
        ("1e150", Classification.UNRESOLVED, 1),  # |z| == OVERFLOW_GUARD is not Overflowed
    ],
)
def test_thresholds_at_equality(text, verdict, peaks):
    f = parse(text)
    codes, state = classify_batch(f, np.zeros(1, dtype=np.complex128), return_state=True)
    rec = iterate_orbit(f, 0)
    assert codes[0] == classify_point(f, 0) == verdict
    assert int(state.n_returns[0] + state.in_peak[0]) == len(rec.peaks) == peaks
    assert int(state.kind[0]) == _CYCLE and rec.termination == CycleFound(1, 1)
    assert state.cycle_max[0] == rec.global_max == float(text)


# Beside a lane past the threshold, which opens the gate of the shared
# maximum, a lane exactly on it is still judged by its own modulus:
# z -> c/z swaps 1 with c, and 0.5 with 2c.
@pytest.mark.parametrize(
    "c, read, expected",
    [
        ("1000000", lambda state: state.n_returns + state.in_peak, [0, 2]),  # peak counts
        ("1e150", lambda state: state.kind, [_CYCLE, _OVERFLOWED]),
    ],
    ids=["r_esc", "overflow_guard"],
)
def test_threshold_equality_beside_a_lane_past_it(c, read, expected):
    f = parse(f"{c}/z")
    seeds = np.array([1, 0.5], dtype=np.complex128)
    codes, state = classify_batch(f, seeds, return_state=True)
    assert read(state).tolist() == expected
    assert codes.tolist() == [classify_point(f, z) for z in seeds]


def test_rotation_is_bounded_without_a_cycle():
    # |a| = 1 up to rounding; angles never realign within tolerance, so
    # the orbit completes max_iter steps with constant modulus.
    a = complex(math.cos(1.0), math.sin(1.0))
    f = parse(f"({a.real!r}+{a.imag!r}*i)*z")
    rec = iterate_orbit(f, 0.7 + 0.1j)
    assert rec.termination == Completed()
    assert classify(rec) == Classification.BOUNDED
    assert rec.moduli.max() <= DEFAULT_CONFIG.r_bound


def test_geometric_growth_without_its_region_is_unresolved(no_regions):
    # 1.4^1000 ~ 1e146 stays below the overflow guard, so without its
    # certified region the orbit completes far beyond r_bound, rising at
    # every step: only a certificate (or an overflow) reads as escape.
    rec = iterate_orbit(parse("1.4*z"), 1)
    assert rec.termination == Completed()
    assert rec.moduli[-1] == rec.global_max > OVERFLOW_GUARD ** 0.9
    assert classify(rec) == Classification.UNRESOLVED


@pytest.mark.parametrize(
    "text, seed, region",
    [("1.4*z", 1, "|z| >= 0.0625"), ("1.001*z", 1, "|z| >= 0.0625"),
     ("pow(z,2)", 3, "|z| >= 1.0009765625"), ("z*z-1", 3, "|z| >= 2.0")],
)
def test_geometric_and_polynomial_growth_is_certified(text, seed, region):
    # Every seed lies in its region already: it ends there at step 0.
    rec = iterate_orbit(parse(text), seed)
    assert rec.termination == CertifiedEscape(0, region) and rec.values.tolist() == [seed]
    assert classify(rec) == Classification.ESCAPING


def test_verdict_is_a_partition():
    f = parse("1/pow(z,2)")
    for seed in (0, 0.5, 1, 1j, 2, 0.1 + 0.1j):
        verdict = classify_point(f, seed)
        assert verdict in (
            Classification.ESCAPING,
            Classification.BOUNDED,
            Classification.BUNGEE,
            Classification.UNRESOLVED,
        )


# --- soundness, read back from the records -------------------------------


def test_bounded_via_completed_soundness():
    a = complex(math.cos(1.0), math.sin(1.0))
    f = parse(f"({a.real!r}+{a.imag!r}*i)*z")
    rec = iterate_orbit(f, 0.9)
    assert classify(rec) == Classification.BOUNDED
    assert isinstance(rec.termination, Completed)
    assert np.all(rec.moduli <= DEFAULT_CONFIG.r_bound)


def test_bungee_soundness():
    """A Bungee verdict is certified BU, or two returns with escalating peaks."""
    f = parse("1/pow(z,2)")
    for seed in (0.5, 0.3, 1.7, 0.4 + 0.2j):
        rec = iterate_orbit(f, seed)
        if classify(rec) != Classification.BUNGEE or isinstance(rec.termination, CertifiedBungee):
            continue
        assert rec.returns >= MIN_ALTERNATIONS
        values = [v for _, v in rec.peaks]
        assert all(
            values[j + 1] >= PEAK_GROWTH * values[j]
            for j in range(len(values) - 1)
        )


def test_monotone_refinement_keeps_cycle_verdicts():
    f = parse("0.3*exp(z)")
    wider = ClassifierConfig(max_iter=4000)
    for seed in (0, -1, -2, 0.5j, -0.5 - 0.3j, 0.25):
        rec = iterate_orbit(f, seed)
        if not isinstance(rec.termination, CycleFound):
            continue
        assert classify(rec) == Classification.BOUNDED
        assert classify_point(f, seed, wider) == Classification.BOUNDED


def test_slow_escape_is_certified_under_both_configs():
    # The drift 2*pi*n never reaches the default escape radius within the
    # budget, but its real ray is certified, so no config needs to wait for it.
    drift = parse("z+sin(z)+2*pi")
    assert classify_point(drift, 0) == Classification.ESCAPING
    assert classify_point(drift, 0, DRIFT_CFG) == Classification.ESCAPING


# --- determinism and batch agreement -------------------------------------


def test_identical_inputs_give_identical_records():
    f = parse("1/pow(z,2)")
    a = iterate_orbit(f, 0.5)
    b = iterate_orbit(f, 0.5)
    assert np.array_equal(a.values, b.values)
    assert a.peaks == b.peaks and a.returns == b.returns
    assert a.termination == b.termination
    assert a.global_max == b.global_max
    assert classify(a) == classify(b)


def test_batch_agrees_with_scalar_path():
    f = parse("1/pow(z,2)")
    seeds = np.array([0.5, 1, 1j, 2, 0.1 + 0.1j, 0], dtype=np.complex128)
    batch = classify_batch(f, seeds)
    for seed, verdict in zip(seeds, batch):
        assert reference_verdict(iterate_orbit(f, complex(seed))) == Classification(int(verdict))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["1/pow(z,2)", "0.3*exp(z)", "z+sin(z)+2*pi", "exp(z)"]),
    st.builds(
        complex,
        st.floats(-2, 2).map(lambda x: round(x, 3)),
        st.floats(-2, 2).map(lambda x: round(x, 3)),
    ),
)
def test_batch_agrees_with_scalar_path_randomized(text, seed):
    f = parse(text)
    batch = classify_batch(f, np.array([seed], dtype=np.complex128))
    assert reference_verdict(iterate_orbit(f, seed)) == Classification(int(batch[0]))


# --- chunked batches -----------------------------------------------------

CHUNK = 4096


@pytest.fixture(scope="module")
def chunked_run():
    """z*z-1 over 2*4096+3 grid seeds: Escaping and Bounded on both sides of each chunk edge."""
    f = parse("z*z-1")
    seeds = GridSpec(-2, 2, -1.5, 1.5, 149, 55).points().ravel()
    assert seeds.size == 2 * CHUNK + 3
    return f, seeds, classify_batch(f, seeds)


def test_batch_matches_scalar_path_at_chunk_edges(chunked_run):
    f, seeds, codes = chunked_run
    assert set(np.unique(codes)) == {Classification.ESCAPING, Classification.BOUNDED}
    for i in (0, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, seeds.size - 1):
        assert reference_verdict(iterate_orbit(f, complex(seeds[i]))) == Classification(int(codes[i]))


def test_batch_equals_concatenated_chunk_runs(chunked_run):
    f, seeds, codes = chunked_run
    parts = [classify_batch(f, seeds[i : i + CHUNK]) for i in range(0, seeds.size, CHUNK)]
    assert codes.dtype == np.int8
    assert np.array_equal(codes, np.concatenate(parts))


def test_batch_state_spans_every_chunk(chunked_run):
    f, seeds, codes = chunked_run
    again, state = classify_batch(f, seeds, return_state=True)
    assert np.array_equal(again, codes)
    for name in BatchState._fields:
        assert len(getattr(state, name)) == seeds.size, name


# --- lane independence ---------------------------------------------------

EDGE_SEEDS = [0, 1e-300, 1e200, 1, 0.5, -800, 800, 800j, 0.1j, 1e-150, 1.5 - 2j]
SMALL_CFG = ClassifierConfig(max_iter=60, r_bound=10.0, r_esc=100.0)


def catalog_maps():
    maps = {}
    for ex_id, _ in list_examples():
        entry = get_example(ex_id)
        for h in (entry.f, entry.g):
            if h is not None:
                maps[str(h)] = h
    return sorted(maps.items())


def assert_batch_is_one_seed_runs(f, distinct, pick, cfg) -> BatchState:
    """`classify_batch` over ``distinct[pick]`` must give, lane by lane, the
    codes and every `BatchState` field of the one-seed runs of ``distinct``,
    with the regions found for ``f`` (or none, under ``no_regions``), and
    the same codes without ``return_state``. Returns the batch state.
    ``distinct`` may be a grid's 2-D seeds, which ``pick`` indexes flattened."""
    distinct = np.asarray(distinct, dtype=np.complex128).ravel()
    singles = [classify_batch(f, distinct[i : i + 1], cfg, return_state=True) for i in range(distinct.size)]
    codes, state = classify_batch(f, distinct[pick], cfg, return_state=True)
    assert np.array_equal(codes, np.concatenate([singles[i][0] for i in pick]))
    assert np.array_equal(classify_batch(f, distinct[pick], cfg), codes)
    for name in BatchState._fields:
        want = np.concatenate([getattr(singles[i][1], name) for i in pick])
        got = getattr(state, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    return state


# Beside the edge seeds and a grid, two that end lanes at steps of their own
# without regions: 3 overflows at step 4 under 0.3*exp(z), and -200+pi*i at
# step 2 under both Fatou maps.
LANE_SEEDS = np.array(EDGE_SEEDS + [3, -200 + np.pi * 1j] + list(GridSpec(-3, 3, -3, 3, 4, 4).points().ravel()),
                      dtype=np.complex128)
# A few distinct seeds repeated in shuffled order, 4,096 + 37 lanes long, so
# that the same seed sits on both sides of the chunk edge.
LANE_PICK = np.random.default_rng(11).integers(0, LANE_SEEDS.size, CHUNK + 37)


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, SMALL_CFG], ids=["default", "small"])
@pytest.mark.parametrize("name, f", catalog_maps(), ids=[name for name, _ in catalog_maps()])
def test_batch_state_is_the_concatenation_of_one_seed_runs(name, f, cfg, monkeypatch):
    """Lanes of a mixed batch end at different steps, yet none affects
    another, with the map's regions and without them (``1/pow(z,2)``'s
    region ends most lanes at step 0)."""
    assert_batch_is_one_seed_runs(f, LANE_SEEDS, LANE_PICK, cfg)
    drop_regions(monkeypatch)
    state = assert_batch_is_one_seed_runs(f, LANE_SEEDS, LANE_PICK, cfg)
    assert len(np.unique(state.term_step)) >= 3


# Polynomial and rational maps, whose regions about 0 end lanes as certified
# escapes or certified Bungee lanes; the last two are 1/z**2 rotated by a
# cube root of unity and a Bungee map of degree -3.
FORM_MAPS = [(text, parse(text)) for text in (
    "pow(z,2)", "z*z-1", "1.4*z", "1.001*z", "1/pow(z,2)", "(-0.5+0.8660254037844386*i)/pow(z,2)", "2/pow(z,3)",
)]


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, SMALL_CFG], ids=["default", "small"])
@pytest.mark.parametrize("name, f", FORM_MAPS, ids=[name for name, _ in FORM_MAPS])
def test_batch_state_is_the_concatenation_of_one_seed_runs_on_form_maps(name, f, cfg):
    state = assert_batch_is_one_seed_runs(f, LANE_SEEDS, LANE_PICK, cfg)
    certified = _CERTIFIED_BUNGEE if name.startswith(("1/", "(", "2/")) else _CERTIFIED
    assert np.count_nonzero(state.kind == certified) > LANE_PICK.size // 2


# Maps that end lanes in unusual ways: ``z`` returns the lanes' own array and
# ``2`` a read-only broadcast, neither of which the engine may write into;
# every lane of ``1/(z-z)`` fails at step 1; ``z/(z-1)`` has a pole at 1;
# ``1e150`` lands on the guard.
EDGE_MAPS = [(text, parse(text)) for text in ("z", "2", "1/(z-z)", "z/(z-1)", "1e150")]


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, SMALL_CFG], ids=["default", "small"])
@pytest.mark.parametrize("name, f", EDGE_MAPS, ids=[name for name, _ in EDGE_MAPS])
def test_batch_state_is_the_concatenation_of_one_seed_runs_on_edge_maps(name, f, cfg):
    assert_batch_is_one_seed_runs(f, LANE_SEEDS, LANE_PICK, cfg)


def test_small_config_lanes_end_by_the_guard_and_by_evaluation(no_regions):
    """The lanes of the catalog maps under `SMALL_CFG`, without regions as
    half of `test_batch_state_is_the_concatenation_of_one_seed_runs` runs
    them, overflow after step 0 both ways: past `OVERFLOW_GUARD`, and by an
    evaluation event below it (a failed lane keeps its last iterate)."""
    by_guard = by_event = 0
    for _, f in catalog_maps():
        _, state = classify_batch(f, LANE_SEEDS, SMALL_CFG, return_state=True)
        overflowed = (state.kind == _OVERFLOWED) & (state.term_step > 0)
        past_guard = np.abs(state.z) > OVERFLOW_GUARD
        by_guard += np.count_nonzero(overflowed & past_guard)
        by_event += np.count_nonzero(overflowed & ~past_guard)
    assert by_guard >= 5 and by_event >= 50


def test_a_lane_failing_mid_peak_leaves_its_written_state():
    """Under ``exp(z)`` the seed 0 starts a peak at step 4 and fails at step
    5, while the seed -1 runs on. No seed starts past the guard, so the
    engine starts from copies of the output arrays, and the failed lane,
    kept until the end of its step, must not reach its written state."""
    seeds = np.array([0, -1], dtype=np.complex128)
    state = assert_batch_is_one_seed_runs(parse("exp(z)"), seeds, np.arange(2), DEFAULT_CONFIG)
    assert state.term_step.tolist() == [5, 6] and state.in_peak.tolist() == [True, True]


def test_event_and_guard_ends_in_one_step_keep_lanes_independent(no_regions):
    """Three rows of the 256x256 grid over [-2, 2]^2 that cross the unit
    circle, under ``1/pow(z,2)`` without its Bungee region: in many steps
    some lanes fail in evaluation (the square underflows to 0, or its
    reciprocal overflows) while others cross the guard. The batch must
    still be the one-seed runs."""
    seeds = GridSpec(-2, 2, -2, 2, 256, 256).points()[[100, 128, 160]].ravel()
    state = assert_batch_is_one_seed_runs(parse("1/pow(z,2)"), seeds, np.arange(seeds.size), DEFAULT_CONFIG)
    overflowed = state.kind == _OVERFLOWED
    past_guard = np.abs(state.z) > OVERFLOW_GUARD  # a failed lane keeps its last iterate
    by_event = set(state.term_step[overflowed & ~past_guard].tolist())
    by_guard = set(state.term_step[overflowed & past_guard].tolist())
    assert len(by_event & by_guard) >= 5


# Grids on which some lanes start inside a certified region, and end there
# at step 0, while others run on: about the unit circle between the two
# parts of 1/pow(z,2)'s Bungee region, about the disk |z| >= 2 of z*z-1 and
# across Fatou's half-plane Re z >= 1/16.
STEP_ZERO_GRIDS = [
    ("1/pow(z,2)", GridSpec(0.996, 1.004, -0.004, 0.004, 17, 17)),
    ("z*z-1", GridSpec(-2.5, 2.5, -2.5, 2.5, 21, 21)),
    ("z+1+exp(-z)", GridSpec(-2, 2, -2, 2, 21, 21)),
]


@pytest.mark.parametrize("text, grid", STEP_ZERO_GRIDS, ids=[text for text, _ in STEP_ZERO_GRIDS])
def test_step_zero_endings_keep_lanes_independent(text, grid):
    """A lane that ends at step 0 is never evaluated, and the lanes beside
    it run on: the batch is still the one-seed runs, across a chunk edge,
    and on exactly one chunk of seeds."""
    seeds = grid.points()
    pick = np.random.default_rng(5).integers(0, seeds.size, CHUNK + 37)
    assert_batch_is_one_seed_runs(parse(text), seeds, pick[:CHUNK], DEFAULT_CONFIG)
    state = assert_batch_is_one_seed_runs(parse(text), seeds, pick, DEFAULT_CONFIG)
    at_seed = state.term_step == 0
    assert 100 < np.count_nonzero(at_seed) < pick.size - 100
    assert np.all((state.kind[at_seed] == _CERTIFIED) | (state.kind[at_seed] == _CERTIFIED_BUNGEE))
    assert np.all(state.region[at_seed] == 0)


# 256x256 grids, 16 chunks' worth of seeds, on which the seeds that a
# region holds at step 0 and those that run on interleave: the rational
# render's window about the unit circle of 1/pow(z,2), and the unit disks
# of pow(z,2) and, with its filled Julia set, z*z-1.
SPLIT_GRIDS = [
    ("1/pow(z,2)", GridSpec(-2, 2, -2, 2, 256, 256)),
    ("pow(z,2)", GridSpec(-4, 4, -4, 4, 256, 256)),
    ("z*z-1", GridSpec(-4, 4, -4, 4, 256, 256)),
]


@pytest.mark.parametrize("text, grid", SPLIT_GRIDS, ids=[text for text, _ in SPLIT_GRIDS])
def test_step_zero_split_keeps_the_engine_codes(text, grid):
    """Without ``return_state`` the seeds a region holds take their kind's
    code at step 0 and only the others run; the codes are those of the
    engine run on every seed, and of one-seed runs. The state, with it,
    holds every seed in seed order; one-seed runs of a sample of step-0
    and live seeds, picked across more than a chunk, give each field."""
    f, seeds = parse(text), grid.points()
    codes = classify_batch(f, seeds)
    again, state = classify_batch(f, seeds, return_state=True)
    assert codes.shape == seeds.shape and codes.dtype == np.int8
    assert np.array_equal(codes, again)
    at_seed = (state.term_step == 0) & (state.region >= 0)
    assert np.array_equal(state.z[at_seed], seeds.ravel()[at_seed])  # ended unevaluated, in seed order
    live = (~at_seed).nonzero()[0]
    assert 50 < live.size < seeds.size - CHUNK
    assert len(np.unique(live // CHUNK)) >= 4  # the live seeds span several 4,096-seed blocks
    rng = np.random.default_rng(7)
    sample = np.concatenate([rng.choice(at_seed.nonzero()[0], 24, replace=False), rng.choice(live, 24, replace=False)])
    flat = codes.ravel()
    for i in sample:
        assert classify_batch(f, seeds.ravel()[i : i + 1])[0] == flat[i], i
    pick = rng.integers(0, sample.size, CHUNK + 37)
    assert_batch_is_one_seed_runs(f, seeds.ravel()[sample], pick, DEFAULT_CONFIG)


def test_the_engine_runs_once_on_the_live_seeds_of_the_rational_grid(monkeypatch):
    """On the rational render's grid, 56 of 65,536 seeds run past step 0:
    every seed is tested against the regions once, and one engine run
    takes the 56, with ``return_state`` too, where 16 runs of 4,096 seeds
    took them chunk by chunk; the map is evaluated once per lane per step
    it ran, and the checkpoints test only the live lanes."""
    runs, lanes, located = [], [0], []
    run_batch, evaluate, locate = bungee.orbit._run_batch, bungee.orbit.eval_array, bungee.certify.locate

    def counted_run(program, state, *args, **kwargs):
        runs.append(state.z.size)
        return run_batch(program, state, *args, **kwargs)

    def counted_eval(program, z):
        lanes[0] += z.size
        return evaluate(program, z)

    def counted_locate(held, z, m=None):
        located.append(z.size)
        return locate(held, z, m)

    monkeypatch.setattr(bungee.orbit, "_run_batch", counted_run)
    monkeypatch.setattr(bungee.orbit, "eval_array", counted_eval)
    monkeypatch.setattr(bungee.certify, "locate", counted_locate)
    f, seeds = parse("1/pow(z,2)"), GridSpec(-2, 2, -2, 2, 256, 256).points()
    codes = classify_batch(f, seeds)
    assert runs == [56] and lanes[0] == 88
    assert located[0] == seeds.size and max(located[1:]) <= 56
    assert np.all(codes == Classification.BUNGEE)
    runs.clear()
    lanes[0] = 0
    located.clear()
    again, state = classify_batch(f, seeds, return_state=True)
    assert runs == [56] and lanes[0] == 88 and int(state.term_step.sum()) == 88
    assert located[0] == seeds.size and max(located[1:]) <= 56
    assert np.array_equal(again, codes) and state.z.size == seeds.size


@pytest.mark.parametrize("return_state", [False, True])
def test_split_keeps_the_seed_checks_and_empty_calls(return_state):
    """A seed that is not finite is refused before step 0, even where a
    region would hold it (``1/pow(z,2)`` holds every |z| >= 1.001), and a
    call with no seeds returns empty codes in the seeds' shape."""
    f = parse("1/pow(z,2)")
    for bad in (complex("inf"), complex(math.inf, math.nan), complex(0, math.nan)):
        seeds = GridSpec(-2, 2, -2, 2, 96, 96).points().ravel()
        seeds[CHUNK + 4] = bad
        with pytest.raises(ValueError, match="seeds must be finite"):
            classify_batch(f, seeds, return_state=return_state)
    for empty in (np.zeros(0, dtype=np.complex128), np.zeros((0, 3), dtype=np.complex128)):
        got = classify_batch(f, empty, return_state=return_state)
        codes = got[0] if return_state else got
        assert codes.shape == empty.shape and codes.dtype == np.int8
        if return_state:
            assert all(getattr(got[1], name).size == 0 for name in BatchState._fields)


def test_an_overflowing_lane_is_certified_at_its_last_finite_iterate():
    """pow(z,3) from 1e16: 1e48 at the step-1 checkpoint, 1e144 at step 2,
    and the cube of that overflows at step 3. Given the region |z| >= 1e100,
    the lane ends certified at step 2, the iterate its failed evaluation
    started from; given none, or |z| >= 1e200, it overflows at step 3.
    Beside it, a lane of 1e-3 runs on to a cycle at step 8."""
    program = compile_expr(parse("pow(z,3)"))
    seeds = np.array([1e16, 1e-3, 2e16], dtype=np.complex128)
    for regions, kinds, steps in (
        ((DiskRegion(1e100),), [_CERTIFIED, _CYCLE, _CERTIFIED], [2, 8, 2]),
        ((), [_OVERFLOWED, _CYCLE, _OVERFLOWED], [3, 8, 3]),
        ((DiskRegion(1e200),), [_OVERFLOWED, _CYCLE, _OVERFLOWED], [3, 8, 3]),
    ):
        state = run_engine(program, seeds, DEFAULT_CONFIG, regions)
        assert state.kind.tolist() == kinds and state.term_step.tolist() == steps
        assert state.region.tolist() == [0 if k == _CERTIFIED else -1 for k in kinds]
        trace = [(complex(seeds[0]), False)]
        one = run_engine(program, seeds[:1], DEFAULT_CONFIG, regions, trace)
        # the certified lane's record ends at its step; the failed one's stops one short
        assert len(trace) == one.term_step[0] + (one.kind[0] == _CERTIFIED)
        with pytest.raises(ValueError, match="a trace supports single-seed runs only"):
            run_engine(program, seeds[:2], DEFAULT_CONFIG, regions, [])


def test_lanes_crossing_the_guard_inside_a_region_are_certified():
    """On the 100x100 grid of z*z-1 over [-4, 4]^2, four lanes about
    ±0.6 ± 0.04i reach |z| >= 2 at step 16, between checkpoints, and cross
    the guard at step 25, before the step-31 checkpoint: the guard's step
    reads the region at that iterate."""
    f = parse("z*z-1")
    seeds = GridSpec(-4, 4, -4, 4, 100, 100).points().ravel()
    _, state = classify_batch(f, seeds, return_state=True)
    assert not np.any(state.kind == _OVERFLOWED)
    late = state.term_step == 25
    assert np.allclose(np.sort_complex(seeds[late]), [-0.6 - 0.04j, -0.6 + 0.04j, 0.6 - 0.04j, 0.6 + 0.04j])
    assert np.all(state.kind[late] == _CERTIFIED) and np.all(np.abs(state.z[late]) > OVERFLOW_GUARD)
    rec = iterate_orbit(f, complex(seeds[late][0]))
    assert rec.termination == CertifiedEscape(25, "|z| >= 2.0") and rec.moduli[16] >= 2 > rec.moduli[15]


# The per-class counts, Escaping, Bounded, Bungee and Unresolved, of each
# map's 100x100 grid over [-4, 4]^2: reading the regions at the seeds and
# at the last finite iterate of an overflow moves no verdict there. The
# maps are the catalog's, the maps `tools/stepcost.py` adds to its region
# table, and two slow or mixed ones.
GRID_COUNTS = {
    "z+sin(z)": [5088, 4912, 0, 0],
    "z+sin(z)+2*pi": [10000, 0, 0, 0],
    "1/pow(z,2)": [0, 0, 10000, 0],
    "0.3*exp(z)": [166, 9834, 0, 0],
    "z+1+exp(-z)": [10000, 0, 0, 0],
    "z+1+exp(-z)+2*pi*i": [10000, 0, 0, 0],
    "exp(-z-1)+1": [306, 9694, 0, 0],
    "exp(z-1)-1": [164, 9836, 0, 0],
    "exp(z)": [10000, 0, 0, 0],
    "exp(z)+2*pi*i": [10000, 0, 0, 0],
    "pow(z,2)": [9516, 484, 0, 0],
    "z*z-1": [9780, 220, 0, 0],
    "1.001*z": [10000, 0, 0, 0],
    "exp(0.001)*z": [10000, 0, 0, 0],
    "exp(1)*z*z": [9932, 68, 0, 0],
    "pow(z,1000)": [9516, 484, 0, 0],
    "z+exp(z)": [722, 8552, 0, 726],
    "1/(z*z)+0.1*exp(z)": [7682, 400, 1918, 0],
}


@pytest.mark.parametrize("text", GRID_COUNTS)
def test_grid_counts_per_class_are_pinned(text):
    codes = classify_batch(parse(text), GridSpec(-4, 4, -4, 4, 100, 100).points())
    assert np.bincount(codes.ravel(), minlength=4).tolist() == GRID_COUNTS[text]


AGREEMENT_MAPS = catalog_maps() + [
    (text, parse(text)) for text in ("z/(z-1)", "pow(z,2)", "0.5*z", "1.4*z", "z*z-1")
]


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, SMALL_CFG], ids=["default", "small"])
@pytest.mark.parametrize("name, f", AGREEMENT_MAPS, ids=[name for name, _ in AGREEMENT_MAPS])
def test_reference_rules_classify_and_batch_agree(name, f, cfg):
    """The scalar reference rules, `classify` and `classify_batch` give one verdict.

    The record's counts must also match the engine state it keeps.
    """
    seeds = np.array(
        EDGE_SEEDS + list(GridSpec(-3, 3, -3, 3, 4, 4).points().ravel()), dtype=np.complex128
    )
    codes, state = classify_batch(f, seeds, cfg, return_state=True)
    for i, seed in enumerate(seeds):
        rec = iterate_orbit(f, complex(seed), cfg)
        want = reference_verdict(rec, cfg)
        assert classify(rec, cfg) == want == Classification(int(codes[i])), complex(seed)
        assert rec.returns == int(state.n_returns[i])
        assert len(rec.peaks) == int(state.n_returns[i] + state.in_peak[i])


PLAIN_AGREEMENT_MAPS = [(name, f) for name, f in AGREEMENT_MAPS if name in dict(FORM_MAPS)]


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, SMALL_CFG], ids=["default", "small"])
@pytest.mark.parametrize("name, f", PLAIN_AGREEMENT_MAPS, ids=[name for name, _ in PLAIN_AGREEMENT_MAPS])
def test_reference_rules_agree_without_regions(name, f, cfg, no_regions):
    """The same agreement where the regions about 0 would end the orbits
    first: rule 2's returns, rule 3's overflow arm and the completed orbits
    of ``1.4*z``, which are Unresolved, on the maps' own orbits."""
    test_reference_rules_classify_and_batch_agree(name, f, cfg)


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, DRIFT_CFG], ids=["default", "drift"])
@pytest.mark.parametrize("name, f", AGREEMENT_MAPS, ids=[name for name, _ in AGREEMENT_MAPS])
def test_cycle_records_match_reference_cycle(name, f, cfg):
    """A record's `CycleFound` is what `reference_cycle` finds in its values.

    The record takes its period from the engine and its entry from one
    whole-array scan; the scalar Brent walk over the recorded values must
    agree on both. Maps: the catalog's and a few more (``z*z-1`` has a
    2-cycle); seeds: the edge seeds of ``tools/parity.py`` and a 4x4
    grid. Only the seeds the engine ends in a cycle are iterated again.
    """
    seeds = np.array(
        EDGE_SEEDS + list(GridSpec(-3, 3, -3, 3, 4, 4).points().ravel()), dtype=np.complex128
    )
    _, state = classify_batch(f, seeds, cfg, return_state=True)
    for seed in seeds[state.kind == _CYCLE]:
        rec = iterate_orbit(f, complex(seed), cfg)
        assert isinstance(rec.termination, CycleFound), complex(seed)
        period, entry = rec.termination.period, rec.termination.entry
        assert reference_cycle(rec.values, CYCLE_TOL) == (period, entry), complex(seed)


@pytest.mark.parametrize(
    "text, seed, termination",
    [
        # Peaks 189 and 2.5e18, then a weaker third peak still rising when
        # exp overflows: the growth rule fails on the unfinished peak.
        ("exp(z)", -0.45 - 2.65j, Overflowed),
        # 2**-5 -> 2**10 -> 2**-20 -> 2**40 -> 0 exactly, then the pole: two
        # growing peaks and two returns, yet a pole hit is never Bungee.
        (f"1/pow(z,2)-{2.0**-80!r}", 2.0**-5, PoleHit),
    ],
    ids=["weak-pending-peak", "pole-after-alternations"],
)
def test_rule_arms_after_two_returns_stay_unresolved(text, seed, termination):
    f = parse(text)
    rec = iterate_orbit(f, seed, SMALL_CFG)
    assert isinstance(rec.termination, termination) and rec.returns == 2
    codes = classify_batch(f, np.array([seed], dtype=np.complex128), SMALL_CFG)
    assert reference_verdict(rec, SMALL_CFG) == classify(rec, SMALL_CFG) == Classification(int(codes[0]))
    assert classify(rec, SMALL_CFG) == Classification.UNRESOLVED


MOEBIUS = "(z*cos(0.05)-sin(0.05))/(z*sin(0.05)+cos(0.05))"


def test_overlapping_peaks_keep_per_lane_bookkeeping():
    """Lanes whose peaks overlap in time count their own returns and growth.

    The elliptic Moebius map ``MOEBIUS`` sends tan(t) to tan(t - 0.05). Each
    orbit stays above ``r_esc`` for about ten steps whenever t crosses
    pi/2, and the seeds cross at different steps, so one lane returns
    while another is still extending its peak. Each lane's counts and
    peak heights must match the ones read off its own recorded moduli.
    The peaks stop doubling, so no lane is Bungee.
    """
    f = parse(MOEBIUS)
    cfg = ClassifierConfig(max_iter=300, r_bound=2.0, r_esc=4.0)
    seeds = np.tan(np.linspace(-1.4, 1.4, 9)) + 0.01j
    codes, state = classify_batch(f, seeds, cfg, return_state=True)
    first_peaks = set()
    for i, seed in enumerate(seeds):
        rec = iterate_orbit(f, complex(seed), cfg)
        assert np.count_nonzero(rec.moduli > cfg.r_esc) > 2 * len(rec.peaks)  # peaks span steps
        first_peaks.add(rec.peaks[0][0])
        returned = [bool((rec.moduli[k:] < cfg.r_bound).any()) for k, _ in rec.peaks]
        assert int(state.n_returns[i]) == sum(returned) >= 3
        assert int(state.n_returns[i] + state.in_peak[i]) == len(rec.peaks)
        values = [v for _, v in rec.peaks]
        done = values[: sum(returned)]
        assert state.cur_peak[i] == values[-1] and state.last_peak[i] == done[-1]
        assert state.escalation_ok[i] == all(b >= PEAK_GROWTH * a for a, b in zip(done, done[1:]))
        assert reference_verdict(rec, cfg) == Classification(int(codes[i])) == Classification.UNRESOLVED
    assert len(first_peaks) > 1


PEAK_MAPS = AGREEMENT_MAPS + [(text, parse(text)) for text in (MOEBIUS, "1e7")]
PEAK_SEEDS = EDGE_SEEDS + [complex(z) for z in GridSpec(-3, 3, -3, 3, 4, 4).points().ravel()]
PEAK_CONFIGS = {"default": DEFAULT_CONFIG, "drift": DRIFT_CFG, "small": SMALL_CFG}


@pytest.mark.parametrize("cfg", PEAK_CONFIGS.values(), ids=PEAK_CONFIGS.keys())
@pytest.mark.parametrize("name, f", PEAK_MAPS, ids=[name for name, _ in PEAK_MAPS])
def test_record_peaks_match_the_reference_replay(name, f, cfg):
    """A record places each peak from the start and return steps the engine
    records; the scalar replay of its moduli must find the same peaks. The
    reprs are compared, so the index must be an int and the modulus a float.
    """
    for seed in PEAK_SEEDS:
        rec = iterate_orbit(f, seed, cfg)
        assert repr(rec.peaks) == repr(reference_peaks(rec.moduli, cfg)), seed


# The maps of the sweep whose regions about 0 end orbits before their peaks.
PLAIN_PEAK_MAPS = [(name, f) for name, f in PEAK_MAPS if name in dict(FORM_MAPS)]


@pytest.mark.parametrize("cfg", PEAK_CONFIGS.values(), ids=PEAK_CONFIGS.keys())
@pytest.mark.parametrize("name, f", PLAIN_PEAK_MAPS, ids=[name for name, _ in PLAIN_PEAK_MAPS])
def test_record_peaks_match_the_reference_replay_without_regions(name, f, cfg, no_regions):
    test_record_peaks_match_the_reference_replay(name, f, cfg)


# The edge cases of the sweeps above, each reached by one of their inputs:
# the ways a peak can end other than by a return, and a maximum that
# repeats. The first and third are reached without regions: with them, both
# seeds lie in their maps' regions, where they end at step 0.
@pytest.mark.parametrize(
    "text, seed, cfg, termination, peaks, plain",
    [
        # 2**-1, 2**2, ..., 2**32, 2**-64, 2**128, 2**-256, 2**512: the last
        # iterate starts a peak and crosses the guard in the same step.
        ("1/pow(z,2)", 0.5, "default", Overflowed(9), ((5, 2.0**32), (7, 2.0**128), (9, 2.0**512)), True),
        # 0, 1, e, e**e, e**e**e: a peak starts, and exp overflows one step later.
        ("exp(z)", 0, "default", Overflowed(5), ((4, math.exp(math.exp(math.e))),), False),
        # 1.4**n passes r_esc at step 42 and is still rising when the budget ends.
        ("1.4*z", 1, "default", Completed(), ((1000, None),), True),
        # A seed past the guard and outside every region is stepped once,
        # and e**1e200 is inf: no peak at all.
        ("exp(z)", 1e200, "default", Overflowed(1), (), False),
        # 0, 1e7, 1e7: the peak's largest modulus repeats, and the first counts.
        ("1e7", 0, "small", CycleFound(1, 1), ((1, 1e7),), False),
    ],
    ids=["guard-in-start-step", "evaluation-overflow-mid-peak", "open-at-budget", "seed-past-guard",
         "repeated-maximum"],
)
def test_reference_peak_sweep_reaches_every_edge_case(text, seed, cfg, termination, peaks, plain, monkeypatch):
    cfg = PEAK_CONFIGS[cfg]
    assert text in dict(PLAIN_PEAK_MAPS if plain else PEAK_MAPS) and seed in PEAK_SEEDS
    if plain:
        drop_regions(monkeypatch)
    rec = iterate_orbit(parse(text), seed, cfg)
    assert rec.termination == termination
    assert rec.returns == max(len(peaks) - 1, 0)  # the last peak never returned
    assert [i for i, _ in rec.peaks] == [i for i, _ in peaks]
    assert all(want is None or got == want for (_, got), (_, want) in zip(rec.peaks, peaks))
    assert rec.peaks == reference_peaks(rec.moduli, cfg)
    # A later return step would place the same peaks: check the steps themselves.
    trace = [(complex(seed), False)]
    run_engine(compile_expr(parse(text)), [seed], cfg, trace=trace)
    m = np.abs([z for z, _ in trace])
    returns = [e for e in range(1, len(trace)) if trace[e - 1][1] and not trace[e][1]]
    assert [e for e in returns if m[e] < cfg.r_bound <= m[e - 1]] == returns


@pytest.mark.parametrize("text", ["z*z", "0.3*exp(z)", "1/pow(z,2)", "z+1+exp(-z)", "z+sin(z)", "1.4*z"])
def test_batch_global_max_is_the_recorded_maximum(text):
    """The engine folds its checkpoint-window maximum into ``global_max`` at
    each Brent checkpoint and when a lane ends, by any termination; that
    must equal the largest modulus of the lane's recorded orbit."""
    f = parse(text)
    cfg = ClassifierConfig(max_iter=100, r_bound=10.0, r_esc=100.0)
    seeds = (np.linspace(-3, 3, 7)[None, :] + 1j * np.linspace(-2, 2, 5)[:, None]).ravel()
    _, state = classify_batch(f, seeds, cfg, return_state=True)
    kinds = set()
    for i, seed in enumerate(seeds):
        rec = iterate_orbit(f, complex(seed), cfg)
        kinds.add(type(rec.termination))
        assert state.global_max[i] == rec.global_max == rec.moduli.max(), complex(seed)
    assert len(kinds) > 1 or text == "z+1+exp(-z)"


def test_batch_of_no_seeds_is_empty():
    f = parse("z*z-1")
    codes = classify_batch(f, np.array([], dtype=np.complex128))
    assert codes.dtype == np.int8 and codes.shape == (0,)
    codes, state = classify_batch(f, np.array([], dtype=np.complex128), return_state=True)
    assert codes.shape == (0,) and state.kind.shape == (0,)


def test_classification_str_names():
    assert str(Classification.ESCAPING) == "Escaping"
    assert str(Classification.BOUNDED) == "Bounded"
    assert str(Classification.BUNGEE) == "Bungee"
    assert str(Classification.UNRESOLVED) == "Unresolved"
    assert [int(c) for c in Classification] == [0, 1, 2, 3]
