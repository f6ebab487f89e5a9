"""Orbit iteration and empirical classification of seeds.

A seed is iterated under a map until one of: the iteration budget runs
out (`Completed`), the orbit's modulus exceeds `OVERFLOW_GUARD`, 1e150,
or an evaluation event fires (`Overflowed`), an iterate comes within
`CYCLE_TOL`, 1e-12 relative, of the one at the last Brent checkpoint
(`CycleFound`), the map is evaluated at its pole 0 (`PoleHit`,
oracle maps only), or the iterate lies in one of the run's certificates:
a region that the map provably moves outward (`CertifiedEscape`), one
whose orbits provably alternate between escaping and staying bounded
(`CertifiedBungee`), or a box that the map provably sends into its own
interior (`CertifiedBounded`). Orbits that shrink toward 0 are never cut
short by the overflow guard: they end in a cycle, or in a trap box about
0 as those of ``0.5*z`` and ``pow(z,2)`` do.

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

The trap boxes come from a third search, `bungee.certify.trap_regions`:
it iterates 0 and the map's constants 16 times and keeps the boxes
``c ± r`` about their end points whose interval image lies inside them
(``0.3*exp(z)`` has ``0.4894 ± 0.5`` about its attracting fixed point).

An engine run tests its lanes against one tuple of certificates,
``held``, and a certified lane's `BatchState.region` is its index there.
``held`` holds the regions from step 0. The boxes join it, after the
regions, at the first Brent checkpoint from step 15 on (`_TRAP_STEP`,
the fourth checkpoint) at which a lane outside every region is still
live; the box search runs then, at most once per call, so most short
calls never make it. ``held`` is tested at step 0, where a seed it holds
ends before the map is evaluated once, even past the guard; at each
checkpoint; and at the last finite iterate of a lane that overflows, the
one past the guard or the one its failed evaluation started from, which
ends certified at that iterate's step if a certificate holds it. All
lanes share the checkpoint schedule and the boxes depend only on the map
and config, so a batch stays the concatenation of its one-seed runs.

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
engine state an `OrbitRecord` keeps, so verdicts are identical across all
of them by construction. Seeds are checked once, where they come in:
`iterate_orbit` checks its one seed and `classify_batch` all of its seeds,
before step 0, and each refuses a seed that is not a finite number (a
string such as ``"1"`` is not one) with ``seeds must be finite``; the
engine trusts them. `classify_batch` makes step 0 once per call: on
more seeds than one chunk, `_CHUNK`, it tests every seed against the
regions and runs the engine only on the seeds that none holds, in chunks
of up to `_CHUNK`; a call of one chunk runs the engine once, which makes
that test at its own step 0. A seed that ends at step 0 takes the code of
its certificate's kind from `_KIND_CODES`, the table `_verdicts` reads
for every certified lane, so it gets the code the engine's own step-0
test would give it. Run on one seed, the engine also records the iterates
and the steps at which it started and ended each peak, which is all
`iterate_orbit` needs to place the record's peaks. `iterate_orbit` and
`classify_batch` share one set-up per call, `_setup`: the map compiled
(`compile_expr`), its regions, and the box search, made only when a run
first asks for it. The engine evaluates that flat program once per step
over the live lanes only, testing ``held`` only at step 0, at checkpoints
and on the lanes that overflow, and one helper writes out every lane it
holds after step 0. When an orbit ends, its state is written to the
output once, in that step. The lane stays in the working arrays, parked,
until they are compacted once at the end of the step: its values go on
being updated with the others' but are never written again, since the
tests that end lanes skip it. A lane that fails in evaluation is parked
at 0, which is below ``r_bound``, so it starts no peak and trips no
guard. Every lane starts at step 0, so all live lanes share one Brent
checkpoint schedule for cycle detection (Brent 1980). A step in which no
lane ends costs its arithmetic and a few whole-array tests; it builds a
lane mask only when a test fires. Peak starts and returns update the live
lanes at full width under those masks, without gathering or scattering.
The running maximum is not taken each step: the maximum since the last
checkpoint, which cycle detection keeps anyway, is folded into it at each
checkpoint and when a lane ends. The state stores no derived fact, such
as the final modulus ``|z|`` (see `BatchState`).
"""

from __future__ import annotations

import enum
import functools
import numbers
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import certify
from .expr import (EVENT_NONE, EVENT_POLE, FunctionExpr, Program, _finite_complex, _finite_real, _ignoring_errors,
                   _Record, compile_expr, eval_array)

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
    proved for the map: at the seed (step 0), at a Brent checkpoint or at
    the last finite iterate of an overflow, a trap box only from the
    step-15 checkpoint on. The three kinds of certificate share these
    fields; each compares equal only to its own kind."""

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

# The code of a lane by its kind, for the kinds of certificate, whose code
# no other field of the state moves; -1 for the kinds whose code `_verdicts`
# reads from the rest of the state.
_KIND_CODES = np.full(_TRAPPED + 1, -1, dtype=np.int8)
_KIND_CODES[[_CERTIFIED, _CERTIFIED_BUNGEE, _TRAPPED]] = [
    Classification.ESCAPING, Classification.BUNGEE, Classification.BOUNDED
]

# The Brent checkpoint, the fourth, from which live lanes are tested
# against the map's trap boxes. Most lanes that end early end before it,
# so the search for the boxes, made when a lane first reaches it, is left
# out of most short calls.
_TRAP_STEP = 15

# Seeds per engine run in `classify_batch`, and per block of its step-0
# test: wide enough to amortize numpy's per-call cost over many lanes,
# narrow enough to bound per-run memory.
_CHUNK = 4096


class BatchState(_Record):
    """Per-seed final state of a batch run (parallel arrays).

    Derived facts are not stored: the final modulus is ``|z|``, and the
    peak count is ``n_returns + in_peak`` (every peak but an open one returned).
    ``region`` is, for a lane of any certified kind, the index of its
    certificate in the run's one list: the map's regions, then, once they
    joined it, its trap boxes; -1 for every other lane. The arrays are
    written in place as lanes end; the fields themselves are fixed.
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
        """Lanes for the seeds of ``out`` not in mask ``gone``, gathered, so
        copied: no update reaches ``out``; ``m`` is ``|out.z|``."""
        self.idx = (~gone).nonzero()[0]
        for name in _LANE_FIELDS:
            setattr(self, name, getattr(out, name)[self.idx])
        m = m[self.idx]
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

    def unended(self, mask: np.ndarray) -> np.ndarray:
        """The indices of the lanes in ``mask`` not yet written out in this step."""
        return (mask if self.ended is None else mask & ~self.ended).nonzero()[0]

    def drop(self) -> None:
        """Compact the arrays to the lanes not written out in this step."""
        keep = (~self.ended).nonzero()[0]
        for name in self._ARRAYS:
            setattr(self, name, getattr(self, name)[keep])
        self.ended = None


def _kinds(held: tuple) -> np.ndarray:
    """The kind of ending that each certificate of ``held`` gives a lane it
    holds, then `_RUNNING`, which the index -1 of a lane that none holds
    reads."""
    kinds = [_TRAPPED if isinstance(c, certify.TrapBox) else _CERTIFIED_BUNGEE if c.bungee else _CERTIFIED
             for c in held]
    return np.array([*kinds, _RUNNING], dtype=np.int8)


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
    """Run the engine over ``seeds``. The lanes are tested against one tuple
    of certificates, ``held``: the map's escape and Bungee ``regions`` from
    step 0, joined by the trap boxes that ``traps()``, if given, returns, at
    the first checkpoint from `_TRAP_STEP` on at which a lane outside every
    region is live.

    ``seeds`` must be finite: the engine does not check them. Its two
    callers do, `iterate_orbit` its one seed and `classify_batch` all of
    its seeds, once, before step 0."""
    z = np.array(seeds, dtype=np.complex128).ravel()  # a copy: `out.z` is written in place
    n = z.size
    if history is not None and n != 1:
        raise ValueError("history capture supports single-seed runs only")

    m = np.abs(z)
    held, kinds = regions, _kinds(regions)
    region = certify.locate(held, z, m)  # a seed held ends at step 0, unevaluated, even past the guard
    out = BatchState(
        z=z,
        kind=kinds.take(region),
        term_step=np.zeros(n, dtype=np.int64),
        period=np.zeros(n, dtype=np.int64),
        cycle_max=np.zeros(n, dtype=np.float64),
        n_returns=np.zeros(n, dtype=np.int64),
        last_peak=np.zeros(n, dtype=np.float64),
        cur_peak=np.zeros(n, dtype=np.float64),
        in_peak=np.zeros(n, dtype=bool),
        escalation_ok=np.ones(n, dtype=bool),
        global_max=m,
        region=region,
    )
    if history is not None:
        history.values.append(complex(z[0]))

    seed_out = (m > OVERFLOW_GUARD) & (out.kind == _RUNNING)
    out.kind[seed_out] = _OVERFLOWED
    w = _Lanes(out, out.kind != _RUNNING, m, cfg)
    # Every live lane started at step 0 and advances once per step, so the
    # Brent schedule (checkpoint when lam reaches power) is shared by all.
    power, lam = 1, 0

    def end_held(lanes: np.ndarray, which: np.ndarray, step: int) -> None:
        """Write out ``lanes``, if any, as certified at ``step``, each by the
        certificate of ``held`` that ``which`` names."""
        if lanes.size:
            ids = w.write(out, lanes, kinds.take(which), step)
            out.region[ids] = which

    with _ignoring_errors():
        for step in range(1, cfg.max_iter + 1):
            if w.idx.size == 0:
                break
            vals, events = eval_array(program, w.z)
            if np.count_nonzero(events):
                failed = events != EVENT_NONE
                lanes = failed.nonzero()[0]
                n_failed = lanes.size
                if held:  # the last finite iterate is the one the map failed at
                    which = certify.locate(held, w.z[lanes], np.abs(w.z[lanes]))
                    end_held(lanes[which >= 0], which[which >= 0], step - 1)
                    lanes = lanes[which < 0]
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
                    if held:
                        which = certify.locate(held, vals[lanes], mv[lanes])
                        end_held(lanes[which >= 0], which[which >= 0], step)
                        lanes = lanes[which < 0]
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
                while True:  # twice at the checkpoint where the boxes join held
                    if held:
                        which = certify.locate(held, w.z, mv)
                        lanes = w.unended(which >= 0)
                        end_held(lanes, which[lanes], step)
                    # from _TRAP_STEP on, the boxes join held at the first checkpoint that leaves a lane live
                    if traps is None or step < _TRAP_STEP or (w.ended is not None and w.ended.all()):
                        break
                    held, traps = regions + traps(), None
                    kinds = _kinds(held)
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
    neither rule 1 nor rule 3, and rule 2 excludes it. A certified lane
    takes its code from `_KIND_CODES` alone: Escaping, Bungee by rule 2 or
    Bounded by rule 1, whatever else its state holds.
    """
    kind = state.kind
    few_returns = state.n_returns < MIN_ALTERNATIONS
    # A peak still in progress when the orbit ended counts at the height it reached.
    pending_weak = state.in_peak & (state.cur_peak < PEAK_GROWTH * state.last_peak)

    bounded = ((kind == _CYCLE) & (state.cycle_max <= cfg.r_bound)) | (
        (kind == _COMPLETED) & (state.global_max <= cfg.r_bound)
    )
    bungee = (kind != _POLE) & ~few_returns & state.escalation_ok & ~pending_weak
    escaping = (kind == _OVERFLOWED) & few_returns
    codes = np.full(kind.shape, int(Classification.UNRESOLVED), dtype=np.int8)
    codes[escaping] = int(Classification.ESCAPING)
    codes[bungee] = int(Classification.BUNGEE)
    codes[bounded] = int(Classification.BOUNDED)
    certified = _KIND_CODES.take(kind)
    np.copyto(codes, certified, where=certified >= 0)
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


def _setup(f: FunctionExpr, cfg: ClassifierConfig) -> tuple[Program, tuple, Callable[[], tuple]]:
    """What a call's engine runs share: the map compiled, its escape and
    Bungee regions, and the search for its trap boxes, made on its first
    call only and capped so that the regions and the boxes together fit an
    int8 region index."""
    program = compile_expr(f)
    regions = certify.regions(program)
    room = np.iinfo(np.int8).max + 1 - len(regions)
    return program, regions, functools.cache(lambda: certify.trap_regions(program, cfg)[:room])


# The termination that names a lane's certificate, by the lane's kind.
_CERTIFICATES = {_CERTIFIED: CertifiedEscape, _CERTIFIED_BUNGEE: CertifiedBungee, _TRAPPED: CertifiedBounded}


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
    if not _finite_complex(z0):
        raise ValueError("seeds must be finite")
    seed = complex(z0)
    history = _History([], [], [])
    program, regions, traps = _setup(f, cfg)
    state = _run_batch(program, np.array([seed]), cfg, regions, history, traps)
    values = np.array(history.values, dtype=np.complex128)
    moduli = np.abs(values)
    spans = zip(history.starts, history.returns + [len(moduli)])  # an open peak runs to the end
    peaks = tuple((s + int(np.argmax(moduli[s:e])), float(moduli[s:e].max())) for s, e in spans)

    k, step, i = int(state.kind[0]), int(state.term_step[0]), int(state.region[0])
    if k == _COMPLETED:
        termination: Termination = Completed()
    elif k == _OVERFLOWED:
        termination = Overflowed(step)
    elif k == _POLE:
        termination = PoleHit(step)
    elif k == _CYCLE:
        period = int(state.period[0])
        termination = CycleFound(period, _cycle_entry(values, period, step, CYCLE_TOL))
    else:  # the index names a box only once the run's search has found them
        held = regions if i < len(regions) else regions + traps()
        termination = _CERTIFICATES[k](step, str(held[i]))

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
    flattened seeds, in seed order. Verdicts agree with `classify_point`
    at every seed: both apply `_verdicts` to the same engine's state, or
    read the same `_KIND_CODES` for a seed that ends at step 0.
    Every seed must be a finite number, a numpy number or a Python one of
    any array shape; the call checks them all once, before step 0, and
    refuses any other, a string or a ragged nesting of lists included,
    with ``seeds must be finite``.
    The map is compiled, and its certified regions found, once per call.
    Step 0 is made once for the call, in blocks of `_CHUNK` seeds: a seed
    that a region holds ends there, unevaluated, with its kind's code (a
    call of at most `_CHUNK` seeds leaves it to its one engine run). The
    other seeds run in chunks of up to `_CHUNK` independent lanes, which
    read the run's certificates at each Brent checkpoint: the regions, and
    the trap boxes, searched for at most once per call, when a lane first
    needs them; a chunk's state is dropped, so memory stays bounded. With
    ``return_state`` every seed runs through the engine, in fixed chunks of
    `_CHUNK`, whose own step-0 test ends the seeds a region holds, and
    every chunk's state is kept.
    """
    # The dtype first, so that no numeric array is looped over in Python;
    # numpy's cast alone would read the string "1" as a seed.
    try:
        seeds = np.asarray(seeds)
    except ValueError:  # numpy's refusal of a ragged nesting
        raise ValueError("seeds must be finite") from None
    if seeds.dtype.kind not in "biufc" and not all(map(_finite_complex, seeds.flat)):
        raise ValueError("seeds must be finite")
    seeds = seeds.astype(np.complex128, copy=False)
    flat = seeds.ravel()
    if not np.isfinite(flat).all():
        raise ValueError("seeds must be finite")
    codes = np.empty(flat.size, dtype=np.int8)
    states = []
    program, regions, traps = _setup(f, cfg)
    live = None  # every seed
    if regions and not return_state and flat.size > _CHUNK:
        # Step 0, once over the call, a block of seeds at a time, by the
        # engine's own step-0 test: `certify.locate` over the regions, read
        # through `_kinds`. A seed in a region ends unevaluated, with its
        # kind's code, and only the others go on to the engine. A call of
        # one chunk skips it: its one engine run makes the same test at its
        # own step 0.
        region_codes = _KIND_CODES[_kinds(regions)]
        parts = []
        for lo in range(0, flat.size, _CHUNK):
            block = flat[lo : lo + _CHUNK]
            which = certify.locate(regions, block, np.abs(block))
            codes[lo : lo + _CHUNK] = region_codes.take(which)  # a live seed reads -1, which the engine overwrites
            parts.append((which < 0).nonzero()[0] + lo)
        live = np.concatenate(parts)
    for lo in range(0, flat.size if live is None else live.size, _CHUNK):
        ids = slice(lo, lo + _CHUNK) if live is None else live[lo : lo + _CHUNK]
        state = _run_batch(program, flat[ids], cfg, regions, traps=traps)
        codes[ids] = _verdicts(state, cfg)
        if return_state:
            states.append(state)
    codes = codes.reshape(seeds.shape)
    if not return_state:
        return codes
    states = states or [_run_batch(program, flat, cfg, regions)]  # zero chunks: empty state
    return codes, BatchState(*(np.concatenate([getattr(s, k) for s in states]) for k in BatchState._fields))
