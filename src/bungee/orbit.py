"""Orbit iteration and empirical classification of seeds.

A seed is iterated under a map until one of: the iteration budget runs
out (`Completed`), the orbit's modulus exceeds `OVERFLOW_GUARD`, 1e150,
or an evaluation event fires (`Overflowed`), an iterate comes within
`CYCLE_TOL`, 1e-12 relative, of the one at the last Brent checkpoint
(`CycleFound`), the map is evaluated at its pole 0 (`PoleHit`,
oracle maps only), or, at step 0 and at each Brent checkpoint, the
iterate lies in a region that the map provably moves outward
(`CertifiedEscape`), one whose orbits provably alternate between
escaping and staying bounded (`CertifiedBungee`), or, from the step-15
checkpoint on, a box that the map provably sends into its own interior
(`CertifiedBounded`). A seed inside a region so ends before the map is
evaluated once, even past the guard. A lane that overflows is tested
against the regions at its last finite iterate too, the one past the
guard or the one its failed evaluation started from, and ends certified
at that iterate's step if one holds it. Orbits that shrink toward 0 are
never cut short by the overflow guard: they end in a cycle, or in a trap
box about 0 as those of ``0.5*z`` and ``pow(z,2)`` do.

The regions are those `bungee.certify` proves for the map, once per
`classify_batch` or `iterate_orbit` call, from its compiled program
alone: half-planes and real rays on which ``Re(f(z)/u) >= Re(z/u) +
delta`` with ``delta > 0``, by interval evaluation (the Fatou map
``z+1+exp(-z)`` has ``Re z >= 1/16``); disk exteriors ``|z| >= R`` that a
polynomial or rational map moves outward (``z*z-1`` has ``|z| >= 2``);
and Bungee regions ``|z| >= R or 0 < |z| <= r`` of a map of negative
degree at infinity, whose two parts it swaps while its second iterate
moves ``|z| >= R`` outward (``1/pow(z,2)``). Both kinds of disk come from
dominant-term forms. A map without a region, like ``exp(z)``, runs as it
would without the search. The disk tests read the step's ``|z|``.

The trap boxes come from a third search, `bungee.certify.trap_regions`,
run at most once per call, and only when a lane is still live at the
step-15 checkpoint, the fourth, which most short calls never reach: it
iterates 0 and the map's constants 16 times and keeps the boxes
``c ± r`` about their end points whose interval image lies inside them
(``0.3*exp(z)`` has ``0.4894 ± 0.5`` about its attracting fixed point).
All lanes share the checkpoint schedule and the boxes depend only on the
map and config, so a batch stays the concatenation of its one-seed runs.

Along the way the orbit's excursions are tracked against two radii. A
*peak* is registered when the modulus first exceeds ``r_esc`` after a
visit below ``r_bound``; its value is the largest modulus attained before
the orbit next descends below ``r_bound``, and that descent counts as a
*return*. Repeated peak/return alternation with geometrically growing
peaks is the signature of a bungee orbit: one subsequence of the orbit
escapes while another stays bounded.

Verdicts are assigned by the first matching rule:

1. Bounded: a certified trap box, a detected cycle whose moduli all stay
   within ``r_bound``, or a completed orbit that never left ``r_bound``.
2. Bungee: a certified Bungee region, whatever the returns; or at least
   2 returns (`MIN_ALTERNATIONS`) with every consecutive peak pair growing
   by a factor of at least 2 (`PEAK_GROWTH`), unless the orbit ended at a
   pole or with a certified escape.
3. Escaping: a certified escape, or overflow with fewer than 2 returns.
4. Unresolved otherwise, as for a completed orbit that left ``r_bound``.
   A pole hit always forces Unresolved.

The rules are written once, vectorized, in `_verdicts`. One engine,
`_run_batch`, drives single-point classification, batch classification
and grid rendering, and `classify` applies `_verdicts` to the one-lane
engine state an `OrbitRecord` keeps, so verdicts are identical across
all of them by construction. Run on one seed, the engine also records
the iterates and the steps at which it started and ended each peak,
which is all `iterate_orbit` needs to place the record's peaks. The
engine takes the map compiled once per call (`compile_expr`) and
evaluates that flat program once per step over the live lanes only,
testing the regions only at step 0, at checkpoints and on the lanes that
overflow, and the trap boxes only at checkpoints from step 15 on. When
an orbit ends, its state is written to the output once, in that step.
The lane stays in the working arrays, parked, until they are compacted
once at the end of the step: its values go on being updated with the
others' but are never written again, since the tests that end lanes
skip it. A lane that fails
in evaluation is parked at 0, which is below ``r_bound``, so it starts no
peak and trips no guard. Every lane starts at step 0, so all live lanes
share one Brent checkpoint schedule for cycle detection (Brent 1980). A
step in which no lane ends costs its arithmetic and a few whole-array
tests; it builds a lane mask only when a test fires. Peak starts and returns
update the live lanes at full width under those masks, without gathering
or scattering. The running maximum is not taken each step: the maximum
since the last checkpoint, which cycle detection keeps anyway, is folded
into it at each checkpoint and when a lane ends. The state stores no
derived fact, such as the final modulus ``|z|`` (see `BatchState`).
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import certify
from .expr import EVENT_NONE, EVENT_POLE, FunctionExpr, Program, _ignoring_errors, _Record, compile_expr, eval_array

__all__ = [
    "Classification",
    "ClassifierConfig",
    "DEFAULT_CONFIG",
    "MIN_ALTERNATIONS",
    "PEAK_GROWTH",
    "CYCLE_TOL",
    "OVERFLOW_GUARD",
    "Completed",
    "Overflowed",
    "CycleFound",
    "PoleHit",
    "CertifiedEscape",
    "CertifiedBungee",
    "CertifiedBounded",
    "Termination",
    "OrbitRecord",
    "BatchState",
    "iterate_orbit",
    "classify",
    "classify_point",
    "classify_batch",
]


class Classification(enum.IntEnum):
    """Empirical orbit classes; values double as raster codes."""

    ESCAPING = 0
    BOUNDED = 1
    BUNGEE = 2
    UNRESOLVED = 3

    def __str__(self) -> str:  # "Escaping" rather than "Classification.ESCAPING"
        return self.name.capitalize()


# Finite-precision proxies for the limits that define the classes, the same
# under every config: rule 2's returns and peak growth factor, the relative
# distance of a near-repeat, and the guard, the modulus past which an orbit
# has overflowed, since one more step of a power-type map would leave double
# range. Small moduli are trusted down to 0, so an orbit attracted to 0 ends
# in a cycle or a trap box, not as overflowed.
MIN_ALTERNATIONS = 2
PEAK_GROWTH = 2.0
CYCLE_TOL = 1e-12
OVERFLOW_GUARD = 1e150


def _finite_real(value) -> bool:
    """Whether ``value`` is a real number within double range, tested without
    numpy's cast of the double range into a narrower float type."""
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int beyond double range
        return False


class ClassifierConfig(_Record):
    """The iteration budget and the two radii of the escape/bound/alternation
    tests. The other proxies the rules read are fixed: `MIN_ALTERNATIONS`,
    `PEAK_GROWTH`, `CYCLE_TOL` and `OVERFLOW_GUARD`."""

    __slots__ = ("max_iter", "r_bound", "r_esc")
    _defaults = {"max_iter": 1000, "r_bound": 1e3, "r_esc": 1e6}

    def __post_init__(self) -> None:
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(self._defaults[name], int):
                ok, what = isinstance(value, numbers.Integral), "an integer"
            else:
                ok, what = _finite_real(value), "a finite real number"
            if isinstance(value, bool) or not ok:
                raise ValueError(f"{name} must be {what}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        # compared as doubles: numpy would cast the guard down to a float32 radius, and warn
        if not 0 < float(self.r_bound) < float(self.r_esc) < OVERFLOW_GUARD:
            raise ValueError(f"need 0 < r_bound < r_esc < {OVERFLOW_GUARD:g}")

    def to_dict(self) -> dict:
        """The fields as JSON-ready values: numpy scalars become Python numbers."""
        return self._plain_fields()

    @classmethod
    def from_dict(cls, data: dict) -> "ClassifierConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(str(k) for k in set(data) - set(cls._fields))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


DEFAULT_CONFIG = ClassifierConfig()


class Completed(_Record):
    """The iteration budget was exhausted without another terminator."""

    __slots__ = ()


class Overflowed(_Record):
    """The orbit left the trusted range.

    ``step`` is the index of the offending iterate: if that iterate's
    value crossed the dynamic-range guard it is the last recorded index,
    and if evaluation itself overflowed it is one past the last recorded
    index (the value never materialized). Evaluation overflows also when
    it divides by a zero that is not the input itself: ``1/(z*z)+0.1*exp(z)``
    at a tiny nonzero ``z``, whose square underflows to 0. (``1/pow(z,2)``
    ends such a seed at step 0, inside its Bungee region.)
    """

    __slots__ = ("step",)  # int


class CycleFound(_Record):
    """A near-repeat with the given period, first visible at ``entry``.

    ``period`` is the engine's Brent period. ``entry`` is the first index
    whose iterate agrees, within `CYCLE_TOL` relative, with the iterate
    one period later.
    """

    __slots__ = ("period", "entry")  # ints


class PoleHit(_Record):
    """Division by exact zero at iterate ``step``, evaluating at the input 0.

    Only the oracle maps ``1/pow(z,d)`` have such a pole.
    """

    __slots__ = ("step",)  # int


class _Certified(_Record):
    """At ``step``, the iterate lay in ``region``, which `bungee.certify`
    proved for the map: at a Brent checkpoint, or, for an escape or Bungee
    region, also at the seed (step 0) or at the last finite iterate of an
    overflow. The three kinds of certificate share these fields; each
    compares equal only to its own kind."""

    __slots__ = ("step", "region")  # int, str


class CertifiedEscape(_Certified):
    """The iterate lay in ``region``, a half-plane, real ray or disk
    exterior ``|z| >= R`` that the map provably moves outward, so the orbit
    escapes."""

    __slots__ = ()


class CertifiedBungee(_Certified):
    """The iterate lay in ``region``, ``|z| >= R or 0 < |z| <= r``, whose two
    parts the map provably swaps while its second iterate moves
    ``|z| >= R`` outward, so the orbit is in the bungee set: it neither
    escapes nor stays bounded."""

    __slots__ = ()


class CertifiedBounded(_Certified):
    """The iterate lay in ``region``, a box that the map provably sends
    into its interior, so the orbit stays in it: it is bounded."""

    __slots__ = ()


Termination = Union[Completed, Overflowed, CycleFound, PoleHit, CertifiedEscape, CertifiedBungee, CertifiedBounded]


class OrbitRecord(_Record):
    """Everything the classifier needs to know about one finished orbit.

    ``values[n]`` is the n-th iterate (``values[0]`` the seed), ``moduli``
    their absolute values, ``peaks`` the ``(index, modulus)`` of each
    peak's first largest iterate, from the step it started to its return
    below ``r_bound`` or the orbit's end, ``returns`` the count of those
    returns. ``state`` is the engine's final one-lane state, which
    `classify` reads; it is valid only with the config the orbit was
    iterated under, and is left out of ``==`` and ``repr``.
    """

    __slots__ = ("seed", "values", "moduli", "peaks", "returns", "termination", "global_max", "state")
    _hidden = ("state",)


# --- engine ----------------------------------------------------------------

_RUNNING = 0
_COMPLETED = 1
_OVERFLOWED = 2
_CYCLE = 3
_POLE = 4
_CERTIFIED = 5
_CERTIFIED_BUNGEE = 6
_TRAPPED = 7

# The Brent checkpoint, the fourth, from which live lanes are tested
# against the map's trap boxes. Most lanes that end early end before it,
# so the search for the boxes, made when a lane first reaches it, is left
# out of most short calls.
_TRAP_STEP = 15

# Seeds per engine run in `classify_batch`: wide enough to amortize numpy's
# per-call cost over many lanes, narrow enough to bound per-run memory.
_CHUNK = 4096


class BatchState(_Record):
    """Per-seed final state of a batch run (parallel arrays).

    Derived facts are not stored: the final modulus is ``|z|``, and the
    peak count is ``n_returns + in_peak`` (every peak but an open one returned).
    ``region`` is the index, in the run's regions, of the region a
    certified lane ended in, for a trapped lane the index of its box in the
    run's trap boxes, and -1 for every other lane. The arrays are written
    in place as lanes end; the fields themselves are fixed.
    """

    __slots__ = ("z", "kind", "term_step", "period", "cycle_max", "n_returns", "last_peak", "cur_peak",
                 "in_peak", "escalation_ok", "global_max", "region")


# BatchState fields that change while a lane runs. `_Lanes` holds them for
# the live lanes only and writes each lane's values out once, when it ends.
# `global_max` comes last: the write takes it together with ``win_max``.
_LANE_FIELDS = (
    "z", "n_returns", "last_peak", "cur_peak", "in_peak", "escalation_ok", "global_max",
)


class _Lanes:
    """Working arrays of the live lanes.

    ``idx`` maps each live lane to its seed; ``tortoise`` is the value at
    the last Brent checkpoint, ``tol_tort`` its cached cycle tolerance and
    ``win_max`` the largest modulus since that checkpoint. ``global_max``
    lags behind: it takes in ``win_max`` at each checkpoint and as a lane
    is written out.

    A lane is written out by `write` in the step it ends and marked in
    ``ended``; it stays in the arrays, parked, until `drop` compacts them
    once at the end of the step. Until then its values are still updated
    with the others' but never read again, and the tests that end lanes
    skip it (`unended`).
    """

    _ARRAYS = ("idx", *_LANE_FIELDS, "armed", "tortoise", "tol_tort", "win_max")
    __slots__ = (*_ARRAYS, "ended")

    def __init__(self, out: BatchState, gone: np.ndarray, m: np.ndarray, cfg: ClassifierConfig):
        """Lanes for the seeds of ``out`` not in mask ``gone``; ``m`` is ``|out.z|``."""
        if np.count_nonzero(gone):
            self.idx = (~gone).nonzero()[0]
            for name in _LANE_FIELDS:
                setattr(self, name, getattr(out, name)[self.idx])
            m = m[self.idx]
        else:  # every seed is live: copy, so that no update reaches `out`
            self.idx = np.arange(gone.size)
            for name in _LANE_FIELDS:
                setattr(self, name, getattr(out, name).copy())
        self.armed = m < cfg.r_bound
        self.tortoise = self.z
        self.tol_tort = CYCLE_TOL * m
        self.win_max = np.full(self.idx.size, -np.inf)
        self.ended = None  # lanes written out in this step, or None

    def write(self, out: BatchState, lanes, kind, step: int) -> np.ndarray:
        """Write ``lanes`` (indices, or a slice) to ``out`` as ended by
        ``kind`` at ``step``, and mark them for `drop`; returns their seeds."""
        ids = self.idx[lanes]
        for name in _LANE_FIELDS[:-1]:
            getattr(out, name)[ids] = getattr(self, name)[lanes]
        out.global_max[ids] = np.maximum(self.global_max[lanes], self.win_max[lanes])
        out.kind[ids] = kind
        out.term_step[ids] = step
        if self.ended is None:
            self.ended = np.zeros(self.idx.size, dtype=bool)
        self.ended[lanes] = True
        return ids

    def unended(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """The indices of the lanes in ``mask``, or of all lanes, not yet
        written out in this step."""
        if mask is None:
            return np.arange(self.idx.size) if self.ended is None else (~self.ended).nonzero()[0]
        return (mask if self.ended is None else mask & ~self.ended).nonzero()[0]

    def drop(self) -> None:
        """Compact the arrays to the lanes not written out in this step."""
        keep = (~self.ended).nonzero()[0]
        for name in self._ARRAYS:
            setattr(self, name, getattr(self, name)[keep])
        self.ended = None


def _in_regions(regions: tuple, z: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The engine's one region test: the positions of the values of ``z``,
    of moduli ``m``, that lie in one of ``regions``, and the index of the
    first region that holds each."""
    which = certify.locate(regions, z, m)
    at = (which >= 0).nonzero()[0]
    return at, which[at]


class _History(NamedTuple):
    """One seed's iterates, and the steps where each peak started and returned."""

    values: list
    starts: list
    returns: list


def _run_batch(
    program: Program,
    seeds: np.ndarray,
    cfg: ClassifierConfig,
    regions: tuple,
    history: Optional[_History] = None,
    traps: Optional[Callable[[], tuple]] = None,
) -> BatchState:
    """Run the engine over ``seeds``: ``regions`` are the escape and Bungee
    regions of the map, and ``traps``, if given, returns its trap boxes,
    called at the first checkpoint from `_TRAP_STEP` on that finds a live
    lane, and at every later one."""
    z = np.array(seeds, dtype=np.complex128).ravel()
    n = z.size
    if history is not None and n != 1:
        raise ValueError("history capture supports single-seed runs only")
    if not np.isfinite(z).all():
        raise ValueError("seeds must be finite")

    m = np.abs(z)
    out = BatchState(
        z=z,
        kind=np.full(n, _RUNNING, dtype=np.int8),
        term_step=np.zeros(n, dtype=np.int64),
        period=np.zeros(n, dtype=np.int64),
        cycle_max=np.zeros(n, dtype=np.float64),
        n_returns=np.zeros(n, dtype=np.int64),
        last_peak=np.zeros(n, dtype=np.float64),
        cur_peak=np.zeros(n, dtype=np.float64),
        in_peak=np.zeros(n, dtype=bool),
        escalation_ok=np.ones(n, dtype=bool),
        global_max=m,
        region=np.full(n, -1, dtype=np.int8),
    )
    if history is not None:
        history.values.append(complex(z[0]))

    kinds = np.array([_CERTIFIED_BUNGEE if r.bungee else _CERTIFIED for r in regions], dtype=np.int8)
    if regions:  # a seed inside a region ends at step 0, before the map is evaluated or the guard read
        at, hit = _in_regions(regions, z, m)
        out.kind[at] = kinds[hit]
        out.region[at] = hit
    seed_out = (m > OVERFLOW_GUARD) & (out.kind == _RUNNING)
    out.kind[seed_out] = _OVERFLOWED
    w = _Lanes(out, out.kind != _RUNNING, m, cfg)
    # Every live lane started at step 0 and advances once per step, so the
    # Brent schedule (checkpoint when lam reaches power) is shared by all.
    power, lam = 1, 0

    def end_certified(lanes: np.ndarray, z: np.ndarray, m: np.ndarray, step: int) -> np.ndarray:
        """Write out, as certified at ``step``, those of ``lanes`` whose
        values ``z``, of moduli ``m``, lie in a region; returns the others."""
        at, hit = _in_regions(regions, z, m)
        if not at.size:
            return lanes
        ids = w.write(out, lanes[at], kinds[hit], step)
        out.region[ids] = hit
        return np.delete(lanes, at)

    with _ignoring_errors():
        for step in range(1, cfg.max_iter + 1):
            if w.idx.size == 0:
                break
            vals, events = eval_array(program, w.z)
            if np.count_nonzero(events):
                failed = events != EVENT_NONE
                lanes = failed.nonzero()[0]
                n_failed = lanes.size
                if regions:  # the last finite iterate is the one the map failed at
                    lanes = end_certified(lanes, w.z[lanes], np.abs(w.z[lanes]), step - 1)
                pole = (events[lanes] == EVENT_POLE) & (w.z[lanes] == 0)
                w.write(out, lanes, np.where(pole, _POLE, _OVERFLOWED), step)
                if n_failed == w.idx.size:
                    w.drop()
                    break
                # Parked at 0, below r_bound: no peak starts and no guard trips.
                vals = np.where(failed, 0, vals)

            mv = np.abs(vals)
            top = mv.max()  # gates peak starts and the guard; an unflagged NaN is in every lane
            w.z = vals
            np.maximum(w.win_max, mv, out=w.win_max)
            if history is not None:
                history.values.append(complex(vals[0]))

            below = mv < cfg.r_bound
            in_peak = w.in_peak
            if np.count_nonzero(in_peak):
                ending = in_peak & below
                if np.count_nonzero(ending):
                    w.n_returns += ending
                    # a first peak is never weak: cur_peak > r_esc > 0 = PEAK_GROWTH * last_peak
                    weak = w.cur_peak < PEAK_GROWTH * w.last_peak
                    w.escalation_ok &= ~(ending & weak)
                    np.copyto(w.last_peak, w.cur_peak, where=ending)
                    in_peak &= ~ending
                    if history is not None:
                        history.returns.append(step)
                np.maximum(w.cur_peak, mv, out=w.cur_peak, where=in_peak)
            w.armed |= below
            if top > cfg.r_esc:
                starting = (mv > cfg.r_esc) & w.armed & ~in_peak
                if np.count_nonzero(starting):
                    in_peak |= starting
                    np.copyto(w.cur_peak, mv, where=starting)
                    w.armed &= ~starting
                    if history is not None:
                        history.starts.append(step)

            if not top <= OVERFLOW_GUARD:
                lanes = (mv > OVERFLOW_GUARD).nonzero()[0]
                if lanes.size:
                    if regions:
                        lanes = end_certified(lanes, vals[lanes], mv[lanes], step)
                    w.write(out, lanes, _OVERFLOWED, step)

            lam += 1
            near = np.abs(w.z - w.tortoise) <= w.tol_tort
            if np.count_nonzero(near):
                lanes = w.unended(near)
                if lanes.size:
                    ids = w.write(out, lanes, _CYCLE, step)
                    out.period[ids] = lam
                    out.cycle_max[ids] = w.win_max[lanes]
            if lam == power:
                if regions:
                    lanes = w.unended()
                    end_certified(lanes, w.z[lanes], mv[lanes], step)
                if traps is not None and step >= _TRAP_STEP and (w.ended is None or not w.ended.all()):
                    boxes = traps()
                    if boxes:
                        which = certify.locate(boxes, w.z)
                        lanes = w.unended(which >= 0)
                        if lanes.size:
                            ids = w.write(out, lanes, _TRAPPED, step)
                            out.region[ids] = which[lanes]
                np.maximum(w.global_max, w.win_max, out=w.global_max)
                w.tortoise = w.z
                w.tol_tort = CYCLE_TOL * np.abs(w.z)
                w.win_max.fill(-np.inf)
                power *= 2
                lam = 0
            if w.ended is not None:
                w.drop()

    if w.idx.size:
        w.write(out, slice(None), _COMPLETED, cfg.max_iter)
    return out


def _verdicts(state: BatchState, cfg: ClassifierConfig) -> np.ndarray:
    """Rules 1-4 of the module docstring, one `Classification` code per lane.

    Later assignments win, so the rules apply in order; a pole hit matches
    neither rule 1 nor rule 3, and rule 2 excludes it and a certified escape.
    A certified Bungee lane is Bungee by rule 2 alone, and a trapped lane
    Bounded by rule 1 alone.
    """
    kind = state.kind
    few_returns = state.n_returns < MIN_ALTERNATIONS
    # A peak still in progress when the orbit ended counts at the height it reached.
    pending_weak = state.in_peak & (state.cur_peak < PEAK_GROWTH * state.last_peak)

    bounded = (
        ((kind == _CYCLE) & (state.cycle_max <= cfg.r_bound))
        | ((kind == _COMPLETED) & (state.global_max <= cfg.r_bound))
        | (kind == _TRAPPED)
    )
    bungee = ((kind != _POLE) & (kind != _CERTIFIED) & ~few_returns & state.escalation_ok & ~pending_weak) | (
        kind == _CERTIFIED_BUNGEE
    )
    escaping = (kind == _CERTIFIED) | ((kind == _OVERFLOWED) & few_returns)
    codes = np.full(kind.shape, int(Classification.UNRESOLVED), dtype=np.int8)
    codes[escaping] = int(Classification.ESCAPING)
    codes[bungee] = int(Classification.BUNGEE)
    codes[bounded] = int(Classification.BOUNDED)
    return codes


def _cycle_entry(vals: np.ndarray, period: int, at: int, tol: float) -> int:
    """Where a cycle of ``period`` begins in ``vals``: the first ``mu`` with
    ``|vals[mu] - vals[mu + period]| <= tol * |vals[mu + period]|``.

    ``at`` is the index where the near-repeat was found; if no pair
    matches, the entry falls back to ``at - period`` (at least 0).
    """
    later = vals[period:]
    hits = np.flatnonzero(np.abs(vals[: later.size] - later) <= tol * np.abs(later))
    return int(hits[0]) if hits.size else max(at - period, 0)


def _trap_search(program: Program, cfg: ClassifierConfig) -> Callable[[], tuple]:
    """The map's trap boxes, searched for on the first call only; at most
    as many as an int8 region index can name."""
    return functools.cache(lambda: certify.trap_regions(program, cfg)[: np.iinfo(np.int8).max + 1])


def iterate_orbit(
    f: FunctionExpr, z0: complex, cfg: ClassifierConfig = DEFAULT_CONFIG
) -> OrbitRecord:
    """Iterate ``f`` from ``z0`` and record the orbit until termination.

    Peaks are placed from the engine's start and return steps. A
    `CycleFound` termination takes its period from the engine state and
    finds its entry in one whole-array comparison of the recorded values
    at that period; a `CertifiedEscape`, `CertifiedBungee` or
    `CertifiedBounded` names its region.
    """
    seed = complex(z0)
    history = _History([], [], [])
    program = compile_expr(f)
    regions = certify.regions(program)
    traps = _trap_search(program, cfg)
    state = _run_batch(program, np.array([seed]), cfg, regions, history, traps)
    values = np.array(history.values, dtype=np.complex128)
    moduli = np.abs(values)
    spans = zip(history.starts, history.returns + [len(moduli)])  # an open peak runs to the end
    peaks = tuple((s + int(np.argmax(moduli[s:e])), float(moduli[s:e].max())) for s, e in spans)

    k = int(state.kind[0])
    if k == _COMPLETED:
        termination: Termination = Completed()
    elif k == _OVERFLOWED:
        termination = Overflowed(int(state.term_step[0]))
    elif k == _POLE:
        termination = PoleHit(int(state.term_step[0]))
    elif k == _CERTIFIED:
        termination = CertifiedEscape(int(state.term_step[0]), str(regions[state.region[0]]))
    elif k == _CERTIFIED_BUNGEE:
        termination = CertifiedBungee(int(state.term_step[0]), str(regions[state.region[0]]))
    elif k == _TRAPPED:
        termination = CertifiedBounded(int(state.term_step[0]), str(traps()[state.region[0]]))
    else:
        period = int(state.period[0])
        entry = _cycle_entry(values, period, int(state.term_step[0]), CYCLE_TOL)
        termination = CycleFound(period, entry)

    return OrbitRecord(
        seed=seed,
        values=values,
        moduli=moduli,
        peaks=peaks,
        returns=int(state.n_returns[0]),
        termination=termination,
        global_max=float(moduli.max()),
        state=state,
    )


def classify(rec: OrbitRecord, cfg: ClassifierConfig = DEFAULT_CONFIG) -> Classification:
    """Assign a verdict to a finished orbit record (first rule wins).

    ``cfg`` must be the config ``rec`` was iterated under: the rules read
    the record's engine state, whose peak bookkeeping used that config.
    """
    return Classification(int(_verdicts(rec.state, cfg)[0]))


def classify_point(
    f: FunctionExpr, z0: complex, cfg: ClassifierConfig = DEFAULT_CONFIG
) -> Classification:
    """Iterate from one seed and classify the resulting record."""
    return classify(iterate_orbit(f, z0, cfg), cfg)


def classify_batch(
    f: FunctionExpr,
    seeds: np.ndarray,
    cfg: ClassifierConfig = DEFAULT_CONFIG,
    return_state: bool = False,
):
    """Classify many seeds with the vectorized engine.

    Returns an int8 array of `Classification` codes aligned with
    ``seeds``; with ``return_state`` also the final `BatchState` of the
    flattened seeds. Verdicts agree with `classify_point` at every seed:
    both apply `_verdicts` to the same engine's state.
    Seeds run in fixed chunks of independent lanes; a chunk's state is
    dropped unless ``return_state`` keeps it, so memory stays bounded.
    The map is compiled, and its certified regions found, once per call,
    and read at step 0 and at each Brent checkpoint; its trap boxes at most
    once, when a lane first needs them.
    """
    seeds = np.asarray(seeds, dtype=np.complex128)
    flat = seeds.ravel()
    codes = np.empty(flat.size, dtype=np.int8)
    states = []
    program = compile_expr(f)
    regions = certify.regions(program)
    traps = _trap_search(program, cfg)
    for lo in range(0, flat.size, _CHUNK):
        state = _run_batch(program, flat[lo : lo + _CHUNK], cfg, regions, traps=traps)
        codes[lo : lo + _CHUNK] = _verdicts(state, cfg)
        if return_state:
            states.append(state)
    codes = codes.reshape(seeds.shape)
    if not return_state:
        return codes
    states = states or [_run_batch(program, flat, cfg, regions)]  # zero chunks: empty state
    return codes, BatchState(*(np.concatenate([getattr(s, k) for s in states]) for k in BatchState._fields))
