"""Curated example maps with metadata flags and checkable expectations.

Each entry records one or two concrete maps, what is known about them
(commutation, asymptotic-value hypotheses, whether the map is entire)
and a list of expectations. Expectations carry no cached truth values:
every one is recomputed from the maps by `run_example`, and each states
in its ``source`` why the expected outcome is forced.

Most expectations are rows: a shared runner bound to the row's data
with `functools.partial`. `_point_verdict` classifies one seed under f
or g; `_relation_run` runs `verify_relation` on a square grid plan and
checks its violation rate and resolved share; `_permutability` checks
that f and g commute, or that they do not, by bounds on
`check_permutable`'s deviation. Seven oracles keep their own bodies: the
drift, lattice, annulus, circle and basin checks, and the two grid
comparisons (disjoint escape, verdict equality), which `_classify_pair`
gives the verdicts of f and g on one grid.

The ``scale`` argument of `run_example` shrinks sample grids for quick
smoke runs; ``scale=1.0`` runs every expectation at full size.
"""

from __future__ import annotations

import json
import math
from functools import partial

import numpy as np

from .expr import _Record, compile_expr, eval_array, evaluate, parse
from .orbit import (
    Classification,
    ClassifierConfig,
    DEFAULT_CONFIG,
    classify_batch,
    classify_point,
)
from .relations import RelationId, SamplePlan, check_permutable, verify_relation

__all__ = [
    "Flag",
    "Expectation",
    "ExpectationResult",
    "ExampleEntry",
    "ExampleReport",
    "list_examples",
    "get_example",
    "run_example",
    "export_registry_json",
]


class Flag(_Record):
    """An optional boolean hypothesis plus the note justifying it."""

    __slots__ = ("value", "note")  # Optional[bool], str


class ExpectationResult(_Record):
    __slots__ = ("description", "passed", "measured")  # str, bool, dict


class Expectation(_Record):
    """A checkable claim about an entry.

    ``run(entry, cfg, scale)`` recomputes it from scratch and returns
    ``(passed, measured)``.
    """

    __slots__ = ("description", "source", "run")

    def to_dict(self) -> dict:
        return {"description": self.description, "source": self.source}


class ExampleEntry(_Record):
    # g and conjugation, an (a, b) pair, may be None; the flags are `Flag`s
    __slots__ = ("id", "summary", "f", "g", "conjugation", "permutable", "no_finite_asymptotic_values",
                 "oracle_not_entire", "expectations")
    _defaults = {"g": None, "conjugation": None, "oracle_not_entire": False}

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "summary": self.summary,
            "f": str(self.f),
            "g": None if self.g is None else str(self.g),
            "conjugation": (
                None if self.conjugation is None else [[w.real, w.imag] for w in self.conjugation]
            ),
            "flags": {
                "permutable": self.permutable._plain_fields(),
                "no_finite_asymptotic_values": self.no_finite_asymptotic_values._plain_fields(),
                "oracle_not_entire": self.oracle_not_entire,
            },
            "expectations": [e.to_dict() for e in self.expectations],
        }


class ExampleReport(_Record):
    __slots__ = ("example", "results")  # str, tuple of ExpectationResult

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "example": self.example,
            "passed": self.passed,
            "results": [r._plain_fields() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _scaled(n: int, scale: float, floor: int = 2) -> int:
    return max(floor, int(round(n * scale)))


def _square_plan(half: float, nx: int, ny: int, scale: float) -> SamplePlan:
    """An ``nx`` x ``ny`` grid plan on [-half, half]^2, both sizes scaled."""
    return SamplePlan.grid(-half, half, -half, half, _scaled(nx, scale), _scaled(ny, scale))


def _fixed_point_bisection(lam: float, lo: float, hi: float) -> float:
    """Root of lam*e^q = q by bisection; the bracket must change sign."""
    f_lo = lam * math.exp(lo) - lo
    f_hi = lam * math.exp(hi) - hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError("bisection bracket does not change sign")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = lam * math.exp(mid) - mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- shared runners ----------------------------------------------------------
# Each is bound to one expectation's data with `functools.partial`; the
# bound result takes ``(entry, cfg, scale)`` like any `Expectation.run`.


def _point_verdict(which: str, seed: complex, expected: Classification, entry, cfg, scale):
    """Map ``which`` ("f" or "g") classifies ``seed`` as ``expected``."""
    verdict = classify_point(getattr(entry, which), seed, cfg)
    return verdict is expected, {"verdict": str(verdict)}


def _relation_run(rel, half, sizes, measured, entry, cfg, scale, *, phi=None, max_rate=0.0, min_resolved=None):
    """`verify_relation` on f (and the entry's g) over a square grid plan.

    ``phi`` is the conjugacy ``(a, b)``, the entry's own if None. The
    entry's hypothesis flag is recorded by the relations that state one.
    Passes when the violation rate is at most ``max_rate`` and, unless
    ``min_resolved`` is None, some seed resolved and the resolved share is
    at least ``min_resolved``. ``measured`` names the report figures to
    return, in order; ``violations`` is their count.
    """
    a, b = phi or entry.conjugation or (None, None)
    rep = verify_relation(
        rel, entry.f, _square_plan(half, *sizes, scale),
        g=entry.g, a=a, b=b, cfg=cfg,
        no_finite_asymptotic_values=entry.no_finite_asymptotic_values.value,
        hypothesis_source=f"registry:{entry.id}",
    )
    resolved = rep.evaluated_count / rep.sample_count
    passed = rep.violation_rate <= max_rate and (
        min_resolved is None or (rep.evaluated_count > 0 and resolved >= min_resolved)
    )
    return passed, {
        key: len(rep.violations) if key == "violations" else getattr(rep, key) for key in measured
    }


def _classify_pair(entry, cfg, plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    """Verdict codes of f and of g at the plan's seeds."""
    seeds = plan.seeds()
    return classify_batch(entry.f, seeds, cfg), classify_batch(entry.g, seeds, cfg)


def _permutability(low, high, entry, cfg, scale):
    """f(g(z)) and g(f(z)) differ by ``low < max_dev < high``.

    ``max_dev`` is `check_permutable`'s largest relative deviation over a
    20 x 10 grid on [-2, 2]^2. Both bounds are strict: (-inf, 1e-9) states
    a pair that commutes within the check's tolerance, 1e-9 excluded, and
    (1.0, inf) one that does not, by more than 1, which holds a deviation
    that overflows: `check_permutable` gives it as the largest double.
    """
    res = check_permutable(entry.f, entry.g, _square_plan(2.0, 20, 10, scale))
    return low < res.max_dev < high, {"max_dev": res.max_dev, "checked": res.checked}


# --- hand-written expectation bodies -----------------------------------------


def _sine_drift(entry: ExampleEntry, cfg: ClassifierConfig, scale: float):
    z = 0j
    worst = 0.0
    for n in range(1, 31):
        z = evaluate(entry.g, z)
        worst = max(worst, abs(z - 2.0 * math.pi * n))
    return worst <= 1e-6, {"max_drift_dev": worst, "steps": 30}


def _sine_lattice_bounded(entry, cfg, scale):
    ks = range(-3, 4)
    codes = classify_batch(entry.f, np.array(ks) * math.pi, cfg)
    verdicts = {k: str(Classification(int(c))) for k, c in zip(ks, codes)}
    return all(v == "Bounded" for v in verdicts.values()), {"verdicts": verdicts}


def _annulus_seeds(count: int) -> np.ndarray:
    k = np.arange(count)
    radius = 0.1 + 0.8 * k / max(count - 1, 1)
    angle = 2.0 * math.pi * ((k * 0.6180339887498949) % 1.0)
    return radius * np.exp(1j * angle)


def _rational_annulus(entry, cfg, scale):
    seeds = _annulus_seeds(_scaled(500, scale, floor=16))
    codes = classify_batch(entry.f, seeds, cfg)
    bungee_rate = float(np.mean(codes == int(Classification.BUNGEE)))
    bounded = int(np.sum(codes == int(Classification.BOUNDED)))
    return bungee_rate >= 0.95 and bounded == 0, {
        "bungee_rate": bungee_rate,
        "bounded_count": bounded,
        "sample_count": int(seeds.size),
    }


def _rational_circle(entry, cfg, scale):
    count = 64 if scale >= 1.0 else 16
    seeds = np.exp(2j * math.pi * np.arange(count) / count)
    codes = classify_batch(entry.f, seeds, cfg)
    bounded = int(np.sum(codes == int(Classification.BOUNDED)))
    return bounded == count, {"bounded_count": bounded, "sample_count": count}


def _exp_basin(entry, cfg, scale):
    q = _fixed_point_bisection(0.3, 0.0, 1.0)
    codes, state = classify_batch(entry.f, np.linspace(-2.0, 0.0, 17), cfg, return_state=True)
    all_bounded = bool((codes == int(Classification.BOUNDED)).all())
    # An orbit may end in the map's trap box about q before it has settled
    # (`CertifiedBounded`): continue each last iterate 64 steps, then measure.
    program, z = compile_expr(entry.f), state.z
    for _ in range(64):
        z, _ = eval_array(program, z)
    worst = float(np.abs(z - q).max())
    return all_bounded and worst <= 1e-6, {
        "fixed_point": q,
        "max_limit_dev": worst,
        "seeds": 17,
    }


def _halfplane_disjoint_escape(entry, cfg, scale):
    cls_f, cls_g = _classify_pair(entry, cfg, _square_plan(4.0, 100, 100, scale))
    esc = int(Classification.ESCAPING)
    both = int(np.sum((cls_f == esc) & (cls_g == esc)))
    return both == 0, {
        "both_escaping": both,
        "escaping_under_f": int(np.sum(cls_f == esc)),
        "escaping_under_g": int(np.sum(cls_g == esc)),
    }


def _periodic_verdict_equality(entry, cfg, scale):
    plan = _square_plan(2.0, 10, 10, scale)
    cls_f, cls_g = _classify_pair(entry, cfg, plan)
    unres = int(Classification.UNRESOLVED)
    both = (cls_f != unres) & (cls_g != unres)
    mismatches = int(np.sum(both & (cls_f != cls_g)))
    return mismatches == 0 and int(both.sum()) > 0, {
        "mismatches": mismatches,
        "both_resolved": int(both.sum()),
        "sample_count": plan.sample_count,
    }


def _build_registry() -> dict:
    sine_f = parse("z+sin(z)")
    sine_g = parse("z+sin(z)+2*pi")
    entries = [
        ExampleEntry(
            id="ex_sine_pair",
            summary=(
                "z+sin(z) and its translate by the period 2*pi: a commuting "
                "pair whose drifted member escapes along a line"
            ),
            f=sine_f,
            g=sine_g,
            permutable=Flag(
                True,
                "translating by a period of the sine term commutes with the map",
            ),
            no_finite_asymptotic_values=Flag(None, "not stated for this pair"),
            expectations=(
                Expectation(
                    "iterates of 0 under g advance by one sine period per step",
                    "sin vanishes at every multiple of 2*pi, so the n-th "
                    "iterate of 0 is exactly 2*pi*n in exact arithmetic",
                    _sine_drift,
                ),
                Expectation(
                    "0 escapes under the drifted map g",
                    "the linear drift 2*pi*n is unbounded and never returns",
                    partial(_point_verdict, "g", 0j, Classification.ESCAPING),
                ),
                Expectation(
                    "0 is a fixed point of f and classifies Bounded",
                    "f(0) = 0 + sin(0) = 0",
                    partial(_point_verdict, "f", 0j, Classification.BOUNDED),
                ),
                Expectation(
                    "integer multiples of pi classify Bounded under f",
                    "sin vanishes at k*pi, so each such point is fixed",
                    _sine_lattice_bounded,
                ),
                Expectation(
                    "bounded-core membership transports through the swapped composition (KSwap)",
                    "membership equivalence between z under f(g) and g(z) "
                    "under g(f), checked per seed",
                    partial(_relation_run, RelationId.K_SWAP, 1.0, (10, 10),
                            ("violation_rate", "evaluated_count", "sample_count"),
                            min_resolved=0.8),
                ),
            ),
        ),
        ExampleEntry(
            id="ex_rational_bungee",
            summary=(
                "the reciprocal square 1/z^2: a rational oracle whose "
                "alternating orbits are provably bungee off the unit circle "
                "and bounded on it"
            ),
            f=parse("1/pow(z,2)"),
            permutable=Flag(None, "single map; not applicable"),
            no_finite_asymptotic_values=Flag(None, "not stated for this map"),
            oracle_not_entire=True,
            expectations=(
                Expectation(
                    "0.5 alternates between huge and tiny moduli and classifies Bungee",
                    "|z| < 1 forces moduli to alternate through r^(-2^n) and "
                    "r^(2^n): one subsequence escapes, one collapses to 0",
                    partial(_point_verdict, "f", 0.5 + 0j, Classification.BUNGEE),
                ),
                Expectation(
                    "1 is a fixed point and classifies Bounded",
                    "1/1^2 = 1",
                    partial(_point_verdict, "f", 1.0 + 0j, Classification.BOUNDED),
                ),
                Expectation(
                    "seeds in the annulus 0.1 <= |z| <= 0.9 classify Bungee at rate >= 0.95, "
                    "never Bounded",
                    "every seed with 0 < |z| < 1 has the alternating modulus "
                    "pattern; a spiral sample across the annulus checks it",
                    _rational_annulus,
                ),
                Expectation(
                    "unit-circle seeds classify Bounded",
                    "|1/z^2| = 1 when |z| = 1, so the whole orbit stays on "
                    "the unit circle",
                    _rational_circle,
                ),
            ),
        ),
        ExampleEntry(
            id="ex_exponential_family",
            summary=(
                "the scaled exponential 0.3*exp(z), with 0.3 inside (0, 1/e): "
                "the real axis around the origin sits in the attracting basin "
                "of its fixed point"
            ),
            f=parse("0.3*exp(z)"),
            conjugation=(2 + 0j, 1 + 0j),
            permutable=Flag(None, "single map; not applicable"),
            no_finite_asymptotic_values=Flag(
                False, "0 is a finite asymptotic value of the scaled exponential"
            ),
            expectations=(
                Expectation(
                    "real seeds in [-2, 0] classify Bounded and settle onto the attracting "
                    "fixed point located by bisection",
                    "0.3 < 1/e puts an attracting fixed point on (0, 1) whose "
                    "basin contains the real segment; bisection of "
                    "0.3*e^q = q locates it independently",
                    _exp_basin,
                ),
                Expectation(
                    "the real seed 3 classifies Escaping",
                    "0.3*e^3 > 3 starts a monotone, unbounded real orbit",
                    partial(_point_verdict, "f", 3.0 + 0j, Classification.ESCAPING),
                ),
                Expectation(
                    "classification transports through the affine conjugacy 2z+1",
                    "conjugating by an affine map carries orbits to orbits, "
                    "so verdicts agree at image points",
                    partial(_relation_run, RelationId.CONJUGACY_TRANSPORT, 2.0, (25, 20),
                            ("violation_rate", "evaluated_count", "sample_count"),
                            max_rate=0.01, min_resolved=0.0),
                ),
                Expectation(
                    "the identity conjugacy transports every verdict exactly",
                    "the identity conjugacy compares each verdict with itself",
                    partial(_relation_run, RelationId.CONJUGACY_TRANSPORT, 2.0, (25, 20),
                            ("violation_rate", "evaluated_count"), phi=(1 + 0j, 0j)),
                ),
            ),
        ),
        ExampleEntry(
            id="ex_exp_translate",
            summary=(
                "z+1+exp(-z) and its translate by 2*pi*i: a commuting entire "
                "pair with drifting orbits and complementary class structure"
            ),
            f=parse("z+1+exp(-z)"),
            g=parse("z+1+exp(-z)+2*pi*i"),
            permutable=Flag(
                True,
                "translating by the period of exp(-z) commutes with the map",
            ),
            no_finite_asymptotic_values=Flag(
                True,
                "hypothesis stated for this pair's escape arguments",
            ),
            expectations=(
                Expectation(
                    "the pair commutes: both composition orders agree numerically",
                    "exp(-z) has period 2*pi*i, so both orders equal the "
                    "same map composed with the translation",
                    partial(_permutability, -math.inf, 1e-9),
                ),
                Expectation(
                    "the pair's bounded cores are disjoint and their bungee sets are disjoint",
                    "orbits under the translate gain 2*pi*i per step relative "
                    "to the base map, so no seed can stay bounded, or "
                    "alternate, under both",
                    partial(_relation_run, RelationId.DISJOINT_K_AND_BU, 3.0, (200, 200),
                            ("violations", "evaluated_count", "sample_count")),
                ),
                Expectation(
                    "the image under f of an escaping seed of g still escapes under g",
                    "f permutes with g, so f maps orbits of g to orbits of g",
                    partial(_relation_run, RelationId.ESCAPING_INVARIANCE, 2.0, (20, 10),
                            ("violation_rate", "evaluated_count"), min_resolved=0.0),
                ),
            ),
        ),
        ExampleEntry(
            id="ex_halfplane_pair",
            summary=(
                "exp(-z-1)+1 and exp(z-1)-1: mirror-family maps whose "
                "escaping sets live in opposite half-planes"
            ),
            f=parse("exp(-z-1)+1"),
            g=parse("exp(z-1)-1"),
            permutable=Flag(None, "not stated for this pair"),
            no_finite_asymptotic_values=Flag(
                False,
                "each map tends to a finite constant far into one half-plane",
            ),
            expectations=(
                Expectation(
                    "escaping seeds lie in the left-half-plane strips around odd multiples of pi",
                    "escape forces iterates ever deeper into the left "
                    "half-plane, which requires the exponent's imaginary part "
                    "to stay near an odd multiple of pi",
                    partial(_relation_run, RelationId.STRIP_CONTAINMENT, 4.0, (100, 100),
                            ("violation_rate", "violations", "evaluated_count"), max_rate=0.01),
                ),
                Expectation(
                    "the escaping sets of the two maps are disjoint",
                    "one map escapes only into left-half-plane strips, the "
                    "mirror-family map only into right-half-plane strips, so "
                    "no seed escapes under both",
                    _halfplane_disjoint_escape,
                ),
            ),
        ),
        ExampleEntry(
            id="ex_periodic_translate",
            summary=(
                "exp(z) and exp(z)+2*pi*i: a map translated by one of its own "
                "periods (higher iterate translates follow the same pattern "
                "but are not cataloged)"
            ),
            f=parse("exp(z)"),
            g=parse("exp(z)+2*pi*i"),
            permutable=Flag(
                False,
                "direct evaluation at 0 separates the two orders by 2*pi*i",
            ),
            no_finite_asymptotic_values=Flag(
                False, "0 is a finite asymptotic value of exp"
            ),
            expectations=(
                Expectation(
                    "the two composition orders disagree: the pair does not commute",
                    "exp(w+2*pi*i) = exp(w) makes the inner translation "
                    "vanish in one order but not the other",
                    partial(_permutability, 1.0, math.inf),
                ),
                Expectation(
                    "translating the map by its period leaves every resolved verdict unchanged",
                    "g^n = f^n + 2*pi*i for n >= 1 because exp absorbs the "
                    "translation, so every orbit differs by one bounded shift",
                    _periodic_verdict_equality,
                ),
            ),
        ),
    ]
    return {e.id: e for e in entries}


_REGISTRY = _build_registry()


def list_examples() -> list[tuple[str, str]]:
    """All example ids with one-line summaries, in stable catalog order."""
    return [(e.id, e.summary) for e in _REGISTRY.values()]


def get_example(example_id: str) -> ExampleEntry:
    """Look up one entry; unknown ids raise KeyError."""
    try:
        return _REGISTRY[example_id]
    except KeyError:
        raise KeyError(f"unknown example id: {example_id!r}") from None


def _check_scale(scale: float) -> None:
    if not 0 < scale <= 1:  # also refuses NaN
        raise ValueError("scale must be in (0, 1]")


def run_example(
    example_id: str,
    cfg: ClassifierConfig = DEFAULT_CONFIG,
    scale: float = 1.0,
) -> ExampleReport:
    """Recompute every expectation of an entry and report pass/fail.

    Every expectation runs under ``cfg``; ``scale`` in (0, 1] shrinks
    sample sizes proportionally.
    """
    _check_scale(scale)
    entry = get_example(example_id)
    results = tuple(
        ExpectationResult(exp.description, *exp.run(entry, cfg, scale))
        for exp in entry.expectations
    )
    return ExampleReport(example=entry.id, results=results)


def export_registry_json() -> str:
    """The whole catalog as a JSON array, expressions in grammar syntax."""
    return json.dumps([e.to_dict() for e in _REGISTRY.values()])
