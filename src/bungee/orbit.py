"""Orbit iteration and empirical classification of seeds.

A seed is iterated under a map until one of: the iteration budget runs
out (`Completed`), the orbit leaves the trusted dynamic range or an
evaluation event fires (`Overflowed`), a near-repeat of an earlier value
is found (`CycleFound`), or the map is evaluated at its pole 0
(`PoleHit`, oracle maps only). Orbits that shrink toward 0 are never cut
short: they are left to settle into a cycle.

Along the way the orbit's excursions are tracked against two radii. A
*peak* is registered when the modulus first exceeds ``r_esc`` after a
visit below ``r_bound``; its value is the largest modulus attained before
the orbit next descends below ``r_bound``, and that descent counts as a
*return*. Repeated peak/return alternation with geometrically growing
peaks is the signature of a bungee orbit: one subsequence of the orbit
escapes while another stays bounded.

Verdicts are assigned by the first matching rule:

1. Bounded: a detected cycle whose moduli all stay within ``r_bound``,
   or a completed orbit that never left ``r_bound``.
2. Bungee: at least ``min_alternations`` returns with every consecutive
   peak pair growing by factor ``peak_growth``, regardless of how the
   orbit terminated.
3. Escaping: overflow with fewer than ``min_alternations`` returns, or a
   completed orbit whose last ``tail_window`` moduli all exceed ``r_esc``
   with the final iterate attaining the orbit's maximum.
4. Unresolved otherwise. A pole hit always forces Unresolved.

The rules are written once, vectorized, in `_verdicts`. One engine,
`_run_batch`, drives single-point classification, batch classification
and grid rendering, and `classify` applies `_verdicts` to the one-lane
engine state an `OrbitRecord` keeps, so verdicts are identical across
all of them by construction. Run on one seed, the engine also records
the iterates and the steps at which it started and ended each peak,
which is all `iterate_orbit` needs to place the record's peaks. The
engine compiles the map once per run (`compile_expr`) and evaluates that
flat program once per step over the live lanes only: when an orbit ends,
its state is written to the output once and the working arrays are
compacted. Every lane starts at step 0, so all live lanes share one
Brent checkpoint schedule for cycle detection (Brent 1980). A step in
which no lane ends costs its arithmetic and a few whole-array tests; it
builds a lane mask only when a test fires. Peak starts and returns
update the live lanes at full width under those masks, without gathering
or scattering. The running maximum is not taken each step: the maximum
since the last checkpoint, which cycle detection keeps anyway, is folded
into it at each checkpoint and when a lane ends. The state stores no
derived fact, such as the final modulus ``|z|`` (see `BatchState`).
"""

from __future__ import annotations

import enum
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple, Optional, Union

import numpy as np

from .expr import EVENT_NONE, EVENT_POLE, FunctionExpr, _ignoring_errors, compile_expr, eval_array

__all__ = [
    "Classification",
    "ClassifierConfig",
    "DEFAULT_CONFIG",
    "Completed",
    "Overflowed",
    "CycleFound",
    "PoleHit",
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


@dataclass(frozen=True)
class ClassifierConfig:
    """Finite-precision proxies for the escape/bound/alternation tests.

    ``overflow_guard`` bounds the modulus range the iteration trusts:
    an orbit is terminated as overflowed once its modulus exceeds the
    guard, since one more step of a power-type map would leave double
    range. Small moduli are trusted down to 0, so an orbit attracted to
    0 ends in a cycle, not as overflowed.
    """

    max_iter: int = 1000
    r_bound: float = 1e3
    r_esc: float = 1e6
    tail_window: int = 50
    min_alternations: int = 2
    peak_growth: float = 2.0
    cycle_tol: float = 1e-12
    overflow_guard: float = 1e150

    def __post_init__(self) -> None:
        for fld in fields(self):
            value = getattr(self, fld.name)
            if isinstance(fld.default, int):
                ok, what = isinstance(value, numbers.Integral), "an integer"
            else:  # also refuses an int beyond double range, where math.isfinite would raise
                ok, what = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max, "a finite real number"
            if isinstance(value, bool) or not ok:
                raise ValueError(f"{fld.name} must be {what}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not 0 < self.r_bound < self.r_esc < self.overflow_guard:
            raise ValueError("need 0 < r_bound < r_esc < overflow_guard")
        if not 1 <= self.tail_window < self.max_iter:
            raise ValueError("tail_window must satisfy 1 <= W < max_iter")
        if self.min_alternations < 2:
            raise ValueError("min_alternations must be at least 2")
        if self.peak_growth <= 1:
            raise ValueError("peak_growth must exceed 1")
        if self.cycle_tol <= 0:
            raise ValueError("cycle_tol must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ClassifierConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(str(k) for k in set(data) - {fld.name for fld in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


DEFAULT_CONFIG = ClassifierConfig()


@dataclass(frozen=True)
class Completed:
    """The iteration budget was exhausted without another terminator."""


@dataclass(frozen=True)
class Overflowed:
    """The orbit left the trusted range.

    ``step`` is the index of the offending iterate: if that iterate's
    value crossed the dynamic-range guard it is the last recorded index,
    and if evaluation itself overflowed it is one past the last recorded
    index (the value never materialized). Evaluation overflows also when
    it divides by a zero that is not the input itself: ``1/pow(z,2)`` at
    a tiny nonzero ``z``, whose square underflows to 0.
    """

    step: int


@dataclass(frozen=True)
class CycleFound:
    """A near-repeat with the given period, first visible at ``entry``.

    ``period`` is the engine's Brent period. ``entry`` is the first index
    whose iterate agrees, within ``cycle_tol`` relative, with the iterate
    one period later.
    """

    period: int
    entry: int


@dataclass(frozen=True)
class PoleHit:
    """Division by exact zero at iterate ``step``, evaluating at the input 0.

    Only the oracle maps ``1/pow(z,d)`` have such a pole.
    """

    step: int


Termination = Union[Completed, Overflowed, CycleFound, PoleHit]


@dataclass(frozen=True)
class OrbitRecord:
    """Everything the classifier needs to know about one finished orbit.

    ``values[n]`` is the n-th iterate (``values[0]`` the seed), ``moduli``
    their absolute values, ``peaks`` the ``(index, modulus)`` of each
    peak's first largest iterate, from the step it started to its return
    below ``r_bound`` or the orbit's end, ``returns`` the count of those
    returns. Tail statistics cover the last ``tail_window`` moduli.
    ``state`` is the engine's final one-lane state, which `classify`
    reads; it is valid only with the config the orbit was iterated under.
    """

    seed: complex
    values: np.ndarray
    moduli: np.ndarray
    peaks: tuple[tuple[int, float], ...]
    returns: int
    termination: Termination
    tail_min: float
    tail_max: float
    global_max: float
    state: BatchState = field(repr=False, compare=False)


# --- engine ----------------------------------------------------------------

_RUNNING = 0
_COMPLETED = 1
_OVERFLOWED = 2
_CYCLE = 3
_POLE = 4

# Seeds per engine run in `classify_batch`: wide enough to amortize numpy's
# per-call cost over many lanes, narrow enough to bound per-run memory.
_CHUNK = 4096


@dataclass
class BatchState:
    """Per-seed final state of a batch run (parallel arrays).

    Derived facts are not stored: the final modulus is ``|z|``, and the
    peak count is ``n_returns + in_peak`` (every peak but an open one returned).
    """

    z: np.ndarray
    kind: np.ndarray
    term_step: np.ndarray
    period: np.ndarray
    cycle_max: np.ndarray
    n_returns: np.ndarray
    last_peak: np.ndarray
    cur_peak: np.ndarray
    in_peak: np.ndarray
    escalation_ok: np.ndarray
    global_max: np.ndarray
    tail_min: np.ndarray


# BatchState fields that change while a lane runs. `_Lanes` holds them for
# the live lanes only and writes each lane's values out once, when it ends.
_LANE_FIELDS = (
    "z", "n_returns", "last_peak", "cur_peak", "in_peak", "escalation_ok", "global_max", "tail_min",
)


class _Lanes:
    """Working arrays of the live lanes, compacted whenever lanes end.

    ``idx`` maps each live lane to its seed; ``tortoise`` is the value at
    the last Brent checkpoint, ``tol_tort`` its cached cycle tolerance and
    ``win_max`` the largest modulus since that checkpoint. ``global_max``
    lags behind: it takes in ``win_max`` at each checkpoint and as lanes end.
    """

    __slots__ = ("idx", *_LANE_FIELDS, "armed", "tortoise", "tol_tort", "win_max")

    def __init__(self, out: BatchState, idx: np.ndarray, cfg: ClassifierConfig):
        self.idx = idx
        for name in _LANE_FIELDS:
            setattr(self, name, getattr(out, name)[idx])
        m = np.abs(self.z)
        self.armed = m < cfg.r_bound
        self.tortoise = self.z
        self.tol_tort = cfg.cycle_tol * m
        self.win_max = np.full(idx.size, -np.inf)

    def end(self, out: BatchState, gone: np.ndarray, kind, step: int) -> None:
        """Write the lanes in mask ``gone`` to ``out`` and drop them."""
        # Integer indices: one nonzero scan each, not one per array.
        keep, gone = np.flatnonzero(~gone), np.flatnonzero(gone)
        ids = self.idx[gone]
        np.maximum(self.global_max, self.win_max, out=self.global_max)
        for name in _LANE_FIELDS:
            getattr(out, name)[ids] = getattr(self, name)[gone]
        out.kind[ids] = kind
        out.term_step[ids] = step
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[keep])


class _History(NamedTuple):
    """One seed's iterates, and the steps where each peak started and returned."""

    values: list
    starts: list
    returns: list


def _run_batch(
    root,
    seeds: np.ndarray,
    cfg: ClassifierConfig,
    history: Optional[_History] = None,
) -> BatchState:
    z = np.array(seeds, dtype=np.complex128).ravel()
    n = z.size
    if history is not None and n != 1:
        raise ValueError("history capture supports single-seed runs only")
    if not np.isfinite(z).all():
        raise ValueError("seeds must be finite")

    program = compile_expr(root)
    guard = cfg.overflow_guard
    tail_from = cfg.max_iter - cfg.tail_window  # steps beyond this feed the tail

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
        tail_min=np.full(n, np.inf),
    )
    if history is not None:
        history.values.append(complex(z[0]))

    seed_out = m > guard
    out.kind[seed_out] = _OVERFLOWED
    w = _Lanes(out, np.flatnonzero(~seed_out), cfg)
    # Every live lane started at step 0 and advances once per step, so the
    # Brent schedule (checkpoint when lam reaches power) is shared by all.
    power, lam = 1, 0

    with _ignoring_errors():
        for step in range(1, cfg.max_iter + 1):
            if w.idx.size == 0:
                break
            vals, events = eval_array(program, w.z)
            if np.count_nonzero(events):
                failed = events != EVENT_NONE
                pole = (events[failed] == EVENT_POLE) & (w.z[failed] == 0)
                w.end(out, failed, np.where(pole, _POLE, _OVERFLOWED), step)
                vals = vals[~failed]
                if w.idx.size == 0:
                    break

            mv = np.abs(vals)
            top = mv.max()  # gates peak starts and the guard; an unflagged NaN is in every lane
            w.z = vals
            np.maximum(w.win_max, mv, out=w.win_max)
            if step > tail_from:
                np.minimum(w.tail_min, mv, out=w.tail_min)
            if history is not None:
                history.values.append(complex(vals[0]))

            below = mv < cfg.r_bound
            in_peak = w.in_peak
            if np.count_nonzero(in_peak):
                ending = in_peak & below
                if np.count_nonzero(ending):
                    w.n_returns += ending
                    # a first peak is never weak: cur_peak > r_esc > 0 = peak_growth * last_peak
                    weak = w.cur_peak < cfg.peak_growth * w.last_peak
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

            if not top <= guard:
                w.end(out, mv > guard, _OVERFLOWED, step)

            lam += 1
            near = np.abs(w.z - w.tortoise) <= w.tol_tort
            if np.count_nonzero(near):
                ids = w.idx[near]
                out.period[ids] = lam
                out.cycle_max[ids] = w.win_max[near]
                w.end(out, near, _CYCLE, step)
            if lam == power:
                np.maximum(w.global_max, w.win_max, out=w.global_max)
                w.tortoise = w.z
                w.tol_tort = cfg.cycle_tol * np.abs(w.z)
                w.win_max.fill(-np.inf)
                power *= 2
                lam = 0

    w.end(out, np.ones(w.idx.size, dtype=bool), _COMPLETED, cfg.max_iter)
    return out


def _verdicts(state: BatchState, cfg: ClassifierConfig) -> np.ndarray:
    """Rules 1-4 of the module docstring, one `Classification` code per lane.

    Later assignments win, so the rules apply in order; a pole hit matches
    neither rule 1 nor rule 3, and rule 2 excludes it.
    """
    kind = state.kind
    completed = kind == _COMPLETED
    few_returns = state.n_returns < cfg.min_alternations
    # A peak still in progress when the orbit ended counts at the height it reached.
    pending_weak = state.in_peak & (state.cur_peak < cfg.peak_growth * state.last_peak)

    bounded = ((kind == _CYCLE) & (state.cycle_max <= cfg.r_bound)) | (completed & (state.global_max <= cfg.r_bound))
    bungee = (kind != _POLE) & ~few_returns & state.escalation_ok & ~pending_weak
    escaping = ((kind == _OVERFLOWED) & few_returns) | (
        completed & (state.tail_min > cfg.r_esc) & (np.abs(state.z) >= state.global_max)
    )
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


def iterate_orbit(
    f: FunctionExpr, z0: complex, cfg: ClassifierConfig = DEFAULT_CONFIG
) -> OrbitRecord:
    """Iterate ``f`` from ``z0`` and record the orbit until termination.

    Peaks are placed from the engine's start and return steps. A
    `CycleFound` termination takes its period from the engine state and
    finds its entry in one whole-array comparison of the recorded values
    at that period.
    """
    seed = complex(z0)
    history = _History([], [], [])
    state = _run_batch(f.root, np.array([seed]), cfg, history)
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
    else:
        period = int(state.period[0])
        entry = _cycle_entry(values, period, int(state.term_step[0]), cfg.cycle_tol)
        termination = CycleFound(period, entry)

    window = moduli[-min(cfg.tail_window, len(moduli)) :]
    return OrbitRecord(
        seed=seed,
        values=values,
        moduli=moduli,
        peaks=peaks,
        returns=int(state.n_returns[0]),
        termination=termination,
        tail_min=float(window.min()),
        tail_max=float(window.max()),
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
    """
    seeds = np.asarray(seeds, dtype=np.complex128)
    flat = seeds.ravel()
    codes = np.empty(flat.size, dtype=np.int8)
    states = []
    for lo in range(0, flat.size, _CHUNK):
        state = _run_batch(f.root, flat[lo : lo + _CHUNK], cfg)
        codes[lo : lo + _CHUNK] = _verdicts(state, cfg)
        if return_state:
            states.append(state)
    codes = codes.reshape(seeds.shape)
    if not return_state:
        return codes
    states = states or [_run_batch(f.root, flat, cfg)]  # zero chunks: empty state
    merged = {
        k.name: np.concatenate([getattr(s, k.name) for s in states]) for k in fields(BatchState)
    }
    return codes, BatchState(**merged)
