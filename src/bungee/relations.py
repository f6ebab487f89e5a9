"""Empirical verification of set relations between orbit classes.

Each relation compares classifications of related orbits over a sample
set: the same seed under two maps, a seed against its image under one
of the maps, or a seed against its image under an affine change of
variable. A seed enters the violation count only when every verdict
the relation needs is resolved (not Unresolved) and the relation's
logical form still fails; everything else counts as unresolved.

Inclusion-type relations test only the stated direction; equivalence
and emptiness relations test both. Relations whose statements assume a
commuting pair run a numeric permutability check first and record its
result in the report.

The relations are one table, `_RELATIONS`: each row names the report's
verdict columns, a vectorised predicate for bad seeds, and which extra
arguments, pre-check and hypothesis record the relation takes.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .expr import (
    EVENT_NONE,
    FunctionExpr,
    _check_affine,
    _finite_complex,
    _Record,
    affine_post,
    compose,
    conjugate,
    eval_array,
)
from .grid import GridSpec
from .orbit import Classification, ClassifierConfig, DEFAULT_CONFIG, classify_batch

__all__ = [
    "RelationId",
    "SamplePlan",
    "PermutabilityResult",
    "Violation",
    "RelationReport",
    "check_permutable",
    "verify_relation",
    "PERMUTABILITY_TOL",
]

PERMUTABILITY_TOL = 1e-9

_UNRESOLVED = int(Classification.UNRESOLVED)


class RelationId(enum.Enum):
    """Identifiers for the verifiable relations between orbit classes."""

    AFFINE_BUNGEE_EQUAL = "AffineBungeeEqual"
    BU_SWAP = "BuSwap"
    K_INTERSECTION_INTO_COMPOSITE = "KIntersectionIntoComposite"
    ESCAPING_INVARIANCE = "EscapingInvariance"
    ESCAPING_UNION = "EscapingUnion"
    BUNGEE_COMPOSITE = "BungeeComposite"
    K_SWAP = "KSwap"
    CONJUGACY_TRANSPORT = "ConjugacyTransport"
    DISJOINT_K_AND_BU = "DisjointKandBU"
    STRIP_CONTAINMENT = "StripContainment"

    def __str__(self) -> str:
        return self.value


class SamplePlan(_Record):
    """Where relation samples come from: a grid of cell centers or a list."""

    __slots__ = ("kind", "spec", "points")  # spec: the GridSpec of a "grid" plan; points: a list plan's
    _defaults = {"spec": None, "points": ()}

    def __post_init__(self) -> None:
        if self.kind == "grid":
            if not isinstance(self.spec, GridSpec):
                raise ValueError("a grid sample plan needs a GridSpec")
        elif self.kind == "list":
            if not self.points:
                raise ValueError("sample list must not be empty")
            if not all(map(_finite_complex, self.points)):
                raise ValueError("sample points must be finite")
        else:
            raise ValueError(f"unknown sample plan kind: {self.kind!r}")

    @staticmethod
    def grid(
        re_min: float, re_max: float, im_min: float, im_max: float, nx: int, ny: int
    ) -> "SamplePlan":
        return SamplePlan(kind="grid", spec=GridSpec(re_min, re_max, im_min, im_max, nx, ny))

    @staticmethod
    def explicit(points) -> "SamplePlan":
        # a point that is not a finite number is kept as given, for the check to refuse
        return SamplePlan(kind="list", points=tuple(complex(p) if _finite_complex(p) else p for p in points))

    @property
    def sample_count(self) -> int:
        return self.spec.nx * self.spec.ny if self.kind == "grid" else len(self.points)

    def seeds(self) -> np.ndarray:
        if self.kind == "grid":
            return self.spec.points().ravel()
        return np.array(self.points, dtype=np.complex128)

    def to_dict(self) -> dict:
        if self.kind == "grid":
            return {"kind": "grid", **self.spec.to_dict()}
        return {"kind": "list", "points": [[p.real, p.imag] for p in self.points]}


class PermutabilityResult(_Record):
    """Outcome of the numeric f(g(z)) vs g(f(z)) comparison."""

    __slots__ = ("checked", "skipped", "max_dev", "tol")

    @property
    def permutable(self) -> bool:
        return self.max_dev <= self.tol


class Violation(_Record):
    __slots__ = ("seed", "verdicts")  # complex, {column label: Classification}


@dataclass(frozen=True)
class RelationReport:
    """Deterministic verification outcome for one relation over one plan."""

    relation: RelationId
    sample_count: int
    evaluated_count: int
    violations: tuple[Violation, ...]
    permutability: Optional[PermutabilityResult]
    config: ClassifierConfig
    plan: SamplePlan
    hypothesis: Optional[dict] = None

    @property
    def violation_rate(self) -> float:
        if self.evaluated_count == 0:
            return 0.0
        return len(self.violations) / self.evaluated_count

    def to_dict(self) -> dict:
        doc = {
            "relation": self.relation.value,
            "sample_count": self.sample_count,
            "evaluated_count": self.evaluated_count,
            "violation_rate": self.violation_rate,
            "permutability": (
                None
                if self.permutability is None
                else {
                    "checked": self.permutability.checked,
                    "max_dev": self.permutability.max_dev,
                }
            ),
            "violations": [
                {
                    "seed": [v.seed.real, v.seed.imag],
                    "verdicts": {k: str(c) for k, c in v.verdicts.items()},
                }
                for v in self.violations
            ],
            "config": self.config.to_dict(),
            "plan": self.plan.to_dict(),
        }
        if self.hypothesis is not None:
            doc["hypothesis"] = self.hypothesis
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _check_tol(tol: float) -> None:
    if not 0 < tol < np.inf:  # also refuses NaN
        raise ValueError("tol must be finite and positive")


def check_permutable(
    f: FunctionExpr,
    g: FunctionExpr,
    plan: SamplePlan,
    tol: float = PERMUTABILITY_TOL,
) -> PermutabilityResult:
    """Compare f(g(z)) against g(f(z)) over the plan's samples.

    Deviation is relative: |f(g(z)) - g(f(z))| / (1 + |f(g(z))|), and one
    whose computation overflows, as for finite values of opposite sign near
    the largest double, is that largest double. Samples where either order
    fails to evaluate finitely are skipped and counted. Raises when ``tol``
    is not finite and positive, or when no sample is evaluable.
    """
    _check_tol(tol)
    seeds = plan.seeds()
    fg_vals, fg_ev = eval_array(compose(f, g).root, seeds)
    gf_vals, gf_ev = eval_array(compose(g, f).root, seeds)
    ok = (
        (fg_ev == EVENT_NONE)
        & (gf_ev == EVENT_NONE)
        & np.isfinite(fg_vals)
        & np.isfinite(gf_vals)
    )
    checked = int(ok.sum())
    if checked == 0:
        raise ValueError("no evaluable samples for the permutability check")
    # A difference or modulus past double range is inf, and inf/inf NaN: fmin reads both as the largest double.
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(fg_vals[ok] - gf_vals[ok]) / (1.0 + np.abs(fg_vals[ok]))
    return PermutabilityResult(
        checked=checked,
        skipped=int(seeds.size - checked),
        max_dev=float(np.fmin(dev, np.finfo(np.float64).max).max()),
        tol=tol,
    )


def _strip_mask(seeds: np.ndarray) -> np.ndarray:
    """Left-half-plane strips around odd multiples of pi."""
    x = seeds.real
    y = seeds.imag
    phase = np.mod(y - np.pi / 2.0, 2.0 * np.pi)
    return (x < 0) & (phase > 0) & (phase < np.pi)


_K = int(Classification.BOUNDED)
_BU = int(Classification.BUNGEE)
_I = int(Classification.ESCAPING)


def _escaping_union_bad(f, g, fg, equality, **_):
    in_union = (f == _I) | (g == _I)
    if equality:
        return in_union != (fg == _I)
    return in_union & (fg != _I)


class _Relation(NamedTuple):
    """One row of `_RELATIONS`.

    ``bad`` takes the verdict columns by label, plus ``seeds`` and
    ``equality``, and marks the seeds where the relation fails.
    ``permutable`` is set for statements that assume a commuting pair, so
    their reports always carry a permutability result; ``hypothesis`` for
    statements that assume no finite asymptotic values, a flag the caller
    supplies and the report records, never computed.
    """

    labels: tuple[str, ...]  # report columns, each built by `_column`
    bad: Callable[..., np.ndarray]
    needs: str = ""  # the arguments beyond f that the relation requires
    permutable: bool = False
    hypothesis: bool = False


_RELATIONS = {
    RelationId.AFFINE_BUNGEE_EQUAL: _Relation(
        ("f", "g"),
        lambda f, g, **_: (f == _BU) != (g == _BU),
        needs="a and b",
        permutable=True,
    ),
    RelationId.BU_SWAP: _Relation(
        ("fg", "gf_at_image"),
        lambda fg, gf_at_image, **_: (fg == _BU) != (gf_at_image == _BU),
        needs="g",
    ),
    RelationId.K_INTERSECTION_INTO_COMPOSITE: _Relation(
        ("f", "g", "fg"),
        lambda f, g, fg, **_: (f == _K) & (g == _K) & (fg != _K),
        needs="g",
        permutable=True,
    ),
    RelationId.ESCAPING_INVARIANCE: _Relation(
        ("g", "g_at_image"),
        lambda g, g_at_image, **_: (g == _I) & (g_at_image != _I),
        needs="g",
        permutable=True,
        hypothesis=True,
    ),
    RelationId.ESCAPING_UNION: _Relation(
        ("f", "g", "fg"),
        _escaping_union_bad,
        needs="g",
        permutable=True,
        hypothesis=True,
    ),
    RelationId.BUNGEE_COMPOSITE: _Relation(
        ("f", "g", "fg"),
        lambda f, g, fg, **_: (fg == _BU) & ~((f == _BU) & (g == _BU)),
        needs="g",
        permutable=True,
        hypothesis=True,
    ),
    RelationId.K_SWAP: _Relation(
        ("fg", "gf_at_image"),
        lambda fg, gf_at_image, **_: (fg == _K) != (gf_at_image == _K),
        needs="g",
    ),
    RelationId.CONJUGACY_TRANSPORT: _Relation(
        ("f", "conjugate_at_image"),
        lambda f, conjugate_at_image, **_: f != conjugate_at_image,
        needs="a and b",
    ),
    RelationId.DISJOINT_K_AND_BU: _Relation(
        ("f", "g"),
        lambda f, g, **_: (f == g) & ((f == _K) | (f == _BU)),
        needs="g",
    ),
    RelationId.STRIP_CONTAINMENT: _Relation(
        ("f",),
        lambda f, seeds, **_: (f == _I) & ~_strip_mask(seeds),
    ),
}


def _column(
    label: str,
    f: FunctionExpr,
    g: Optional[FunctionExpr],
    a: Optional[complex],
    b: Optional[complex],
    seeds: np.ndarray,
    cfg: ClassifierConfig,
) -> np.ndarray:
    """Verdict codes of one report column over the seeds.

    ``f``, ``g`` and ``fg`` classify that map at the seeds; ``g_at_image``
    classifies g at f(seeds), ``gf_at_image`` classifies g o f at g(seeds)
    and ``conjugate_at_image`` classifies the conjugate of f at a*seeds+b.
    A seed whose image fails to evaluate or is not finite stays Unresolved.
    """
    if label in ("f", "g", "fg"):
        target = f if label == "f" else g if label == "g" else compose(f, g)
        return classify_batch(target, seeds, cfg)
    if label == "conjugate_at_image":
        target, events = conjugate(f, a, b), EVENT_NONE
        with np.errstate(all="ignore"):
            images = a * seeds + b
    else:
        mover, target = (f, g) if label == "g_at_image" else (g, compose(g, f))
        images, events = eval_array(mover.root, seeds)
    ok = (events == EVENT_NONE) & np.isfinite(images)
    codes = np.full(seeds.shape, _UNRESOLVED, dtype=np.int8)
    codes[ok] = classify_batch(target, images[ok], cfg)
    return codes


def verify_relation(
    rel: RelationId,
    f: FunctionExpr,
    plan: SamplePlan,
    g: Optional[FunctionExpr] = None,
    a: Optional[complex] = None,
    b: Optional[complex] = None,
    cfg: ClassifierConfig = DEFAULT_CONFIG,
    tol: float = PERMUTABILITY_TOL,
    equality: bool = False,
    no_finite_asymptotic_values: Optional[bool] = None,
    hypothesis_source: str = "unstated",
    workers: int = 1,
) -> RelationReport:
    """Test one relation over the plan's seeds and report violations.

    ``g`` is required for the two-map relations; ``a`` and ``b`` define
    the affine map for ConjugacyTransport and AffineBungeeEqual.
    ``equality`` switches EscapingUnion from inclusion to equality.
    AffineBungeeEqual refuses pairs that fail the permutability check;
    the other commuting-pair relations record the check and proceed.
    Columns are built in the relation's label order. A seed counts only
    if every column resolves it, so a later column skips the seeds an
    earlier column left Unresolved and reads Unresolved there too; the
    report is the same as if every column were classified everywhere.
    ``workers`` is accepted for compatibility and must be at least 1; it
    changes neither speed nor output, since every map is classified by
    one `classify_batch` call, which ends the seeds a region holds at
    step 0 and runs the engine on the rest in chunks.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    _check_tol(tol)
    if isinstance(rel, str):
        rel = RelationId(rel)
    row = _RELATIONS[rel]
    seeds = plan.seeds()
    given = {"": True, "g": g is not None, "a and b": a is not None and b is not None}
    if not given[row.needs]:
        raise ValueError(f"{rel.value} requires {row.needs}")
    if row.needs == "a and b":
        _check_affine(a, b)
        a, b = complex(a), complex(b)
    if rel is RelationId.AFFINE_BUNGEE_EQUAL:
        g = affine_post(f, a, b)

    permutability = check_permutable(f, g, plan, tol) if row.permutable else None
    if rel is RelationId.AFFINE_BUNGEE_EQUAL and not permutability.permutable:
        raise ValueError(
            "AffineBungeeEqual requires a permutable pair; "
            f"max_dev={permutability.max_dev:.3e} exceeds tol={tol:.1e}"
        )
    hypothesis = None
    if row.hypothesis:
        hypothesis = {
            "no_finite_asymptotic_values": no_finite_asymptotic_values,
            "source": hypothesis_source,
        }

    # Seeds a column could not resolve (including images that failed to
    # evaluate) never count, so later columns skip them.
    resolved = np.ones(seeds.shape, dtype=bool)
    columns = []
    for label in row.labels:
        col = np.full(seeds.shape, _UNRESOLVED, dtype=np.int8)
        col[resolved] = _column(label, f, g, a, b, seeds[resolved], cfg)
        resolved &= col != _UNRESOLVED
        columns.append(col)
    bad = row.bad(seeds=seeds, equality=equality, **dict(zip(row.labels, columns)))
    bad &= resolved
    violations = tuple(
        Violation(
            seed=complex(seeds[i]),
            verdicts={
                lab: Classification(int(col[i])) for lab, col in zip(row.labels, columns)
            },
        )
        for i in np.flatnonzero(bad)
    )
    return RelationReport(
        relation=rel,
        sample_count=int(seeds.size),
        evaluated_count=int(resolved.sum()),
        violations=violations,
        permutability=permutability,
        config=cfg,
        plan=plan,
        hypothesis=hypothesis,
    )
