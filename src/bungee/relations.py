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
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import (
    EVENT_NONE,
    FunctionExpr,
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


# Relations whose statements assume a commuting pair; their reports
# always carry a permutability result.
_NEEDS_PERMUTABILITY = frozenset(
    {
        RelationId.AFFINE_BUNGEE_EQUAL,
        RelationId.K_INTERSECTION_INTO_COMPOSITE,
        RelationId.ESCAPING_INVARIANCE,
        RelationId.ESCAPING_UNION,
        RelationId.BUNGEE_COMPOSITE,
    }
)

# Relations whose statements assume the maps have no finite asymptotic
# values; the flag is supplied by the caller, never computed.
_NEEDS_ASYMPTOTIC_FLAG = frozenset(
    {
        RelationId.ESCAPING_INVARIANCE,
        RelationId.ESCAPING_UNION,
        RelationId.BUNGEE_COMPOSITE,
    }
)


@dataclass(frozen=True)
class SamplePlan:
    """Where relation samples come from: a grid of cell centers or a list."""

    kind: str
    re_min: float = 0.0
    re_max: float = 0.0
    im_min: float = 0.0
    im_max: float = 0.0
    nx: int = 0
    ny: int = 0
    points: tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "grid":
            if not (self.re_min < self.re_max and self.im_min < self.im_max):
                raise ValueError("sample rectangle must have positive extent")
            if self.nx < 1 or self.ny < 1:
                raise ValueError("sample grid must have at least one cell per axis")
        elif self.kind == "list":
            if not self.points:
                raise ValueError("sample list must not be empty")
            for p in self.points:
                if not (np.isfinite(p.real) and np.isfinite(p.imag)):
                    raise ValueError("sample points must be finite")
        else:
            raise ValueError(f"unknown sample plan kind: {self.kind!r}")

    @staticmethod
    def grid(
        re_min: float, re_max: float, im_min: float, im_max: float, nx: int, ny: int
    ) -> "SamplePlan":
        return SamplePlan(
            kind="grid",
            re_min=re_min,
            re_max=re_max,
            im_min=im_min,
            im_max=im_max,
            nx=nx,
            ny=ny,
        )

    @staticmethod
    def explicit(points) -> "SamplePlan":
        return SamplePlan(kind="list", points=tuple(complex(p) for p in points))

    @property
    def sample_count(self) -> int:
        return self.nx * self.ny if self.kind == "grid" else len(self.points)

    def seeds(self) -> np.ndarray:
        if self.kind == "grid":
            spec = GridSpec(self.re_min, self.re_max, self.im_min, self.im_max, self.nx, self.ny)
            return spec.points().ravel()
        return np.array(self.points, dtype=np.complex128)

    def to_dict(self) -> dict:
        if self.kind == "grid":
            return {
                "kind": "grid",
                "re_min": self.re_min,
                "re_max": self.re_max,
                "im_min": self.im_min,
                "im_max": self.im_max,
                "nx": self.nx,
                "ny": self.ny,
            }
        return {"kind": "list", "points": [[p.real, p.imag] for p in self.points]}


@dataclass(frozen=True)
class PermutabilityResult:
    """Outcome of the numeric f(g(z)) vs g(f(z)) comparison."""

    checked: int
    skipped: int
    max_dev: float
    tol: float

    @property
    def permutable(self) -> bool:
        return self.max_dev <= self.tol


@dataclass(frozen=True)
class Violation:
    seed: complex
    verdicts: dict


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


def check_permutable(
    f: FunctionExpr,
    g: FunctionExpr,
    plan: SamplePlan,
    tol: float = PERMUTABILITY_TOL,
) -> PermutabilityResult:
    """Compare f(g(z)) against g(f(z)) over the plan's samples.

    Deviation is relative: |f(g(z)) - g(f(z))| / (1 + |f(g(z))|).
    Samples where either order fails to evaluate finitely are skipped
    and counted. Raises when no sample is evaluable.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    dev = np.abs(fg_vals[ok] - gf_vals[ok]) / (1.0 + np.abs(fg_vals[ok]))
    return PermutabilityResult(
        checked=checked,
        skipped=int(seeds.size - checked),
        max_dev=float(dev.max()),
        tol=tol,
    )


def _images(g: FunctionExpr, seeds: np.ndarray):
    """Evaluate g at the seeds; returns (values, finite mask)."""
    vals, events = eval_array(g.root, seeds)
    ok = (events == EVENT_NONE) & np.isfinite(vals)
    return vals, ok


def _classify_where(
    f: FunctionExpr,
    points: np.ndarray,
    ok: np.ndarray,
    cfg: ClassifierConfig,
) -> np.ndarray:
    """Classify points[ok]; everything else reports Unresolved."""
    out = np.full(points.shape, _UNRESOLVED, dtype=np.int8)
    out[ok] = classify_batch(f, points[ok], cfg)
    return out


def _strip_mask(seeds: np.ndarray) -> np.ndarray:
    """Left-half-plane strips around odd multiples of pi."""
    x = seeds.real
    y = seeds.imag
    phase = np.mod(y - np.pi / 2.0, 2.0 * np.pi)
    return (x < 0) & (phase > 0) & (phase < np.pi)


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
    ``workers`` is accepted for compatibility and must be at least 1; it
    changes neither speed nor output, since every map is classified by
    one `classify_batch` call over fixed chunks of seeds.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    if isinstance(rel, str):
        rel = RelationId(rel)
    seeds = plan.seeds()

    needs_g = rel in {
        RelationId.BU_SWAP,
        RelationId.K_SWAP,
        RelationId.K_INTERSECTION_INTO_COMPOSITE,
        RelationId.ESCAPING_INVARIANCE,
        RelationId.ESCAPING_UNION,
        RelationId.BUNGEE_COMPOSITE,
        RelationId.DISJOINT_K_AND_BU,
    }
    if needs_g and g is None:
        raise ValueError(f"{rel.value} requires g")
    needs_phi = rel in {RelationId.CONJUGACY_TRANSPORT, RelationId.AFFINE_BUNGEE_EQUAL}
    if needs_phi and (a is None or b is None):
        raise ValueError(f"{rel.value} requires a and b")

    if rel is RelationId.AFFINE_BUNGEE_EQUAL:
        g = affine_post(f, complex(a), complex(b))

    permutability: Optional[PermutabilityResult] = None
    if rel in _NEEDS_PERMUTABILITY:
        permutability = check_permutable(f, g, plan, tol)
        if rel is RelationId.AFFINE_BUNGEE_EQUAL and not permutability.permutable:
            raise ValueError(
                "AffineBungeeEqual requires a permutable pair; "
                f"max_dev={permutability.max_dev:.3e} exceeds tol={tol:.1e}"
            )

    hypothesis = None
    if rel in _NEEDS_ASYMPTOTIC_FLAG:
        hypothesis = {
            "no_finite_asymptotic_values": no_finite_asymptotic_values,
            "source": hypothesis_source,
        }

    if rel in {RelationId.BU_SWAP, RelationId.K_SWAP}:
        fg = compose(f, g)
        gf = compose(g, f)
        cls_fg = classify_batch(fg, seeds, cfg)
        images, img_ok = _images(g, seeds)
        cls_gf_img = _classify_where(gf, images, img_ok, cfg)
        target = (
            Classification.BUNGEE if rel is RelationId.BU_SWAP else Classification.BOUNDED
        )
        bad = (cls_fg == int(target)) != (cls_gf_img == int(target))
        labels = ("fg", "gf_at_image")
        columns = (cls_fg, cls_gf_img)

    elif rel is RelationId.K_INTERSECTION_INTO_COMPOSITE:
        cls_f = classify_batch(f, seeds, cfg)
        cls_g = classify_batch(g, seeds, cfg)
        cls_fg = classify_batch(compose(f, g), seeds, cfg)
        in_both = (cls_f == int(Classification.BOUNDED)) & (
            cls_g == int(Classification.BOUNDED)
        )
        bad = in_both & (cls_fg != int(Classification.BOUNDED))
        labels = ("f", "g", "fg")
        columns = (cls_f, cls_g, cls_fg)

    elif rel is RelationId.ESCAPING_INVARIANCE:
        cls_g = classify_batch(g, seeds, cfg)
        images, img_ok = _images(f, seeds)
        cls_g_img = _classify_where(g, images, img_ok, cfg)
        esc = int(Classification.ESCAPING)
        bad = (cls_g == esc) & (cls_g_img != esc)
        labels = ("g", "g_at_image")
        columns = (cls_g, cls_g_img)

    elif rel is RelationId.ESCAPING_UNION:
        cls_f = classify_batch(f, seeds, cfg)
        cls_g = classify_batch(g, seeds, cfg)
        cls_fg = classify_batch(compose(f, g), seeds, cfg)
        esc = int(Classification.ESCAPING)
        in_union = (cls_f == esc) | (cls_g == esc)
        bad = in_union & (cls_fg != esc)
        if equality:
            bad |= (cls_fg == esc) & ~in_union
        labels = ("f", "g", "fg")
        columns = (cls_f, cls_g, cls_fg)

    elif rel is RelationId.BUNGEE_COMPOSITE:
        cls_f = classify_batch(f, seeds, cfg)
        cls_g = classify_batch(g, seeds, cfg)
        cls_fg = classify_batch(compose(f, g), seeds, cfg)
        bu = int(Classification.BUNGEE)
        bad = (cls_fg == bu) & ~((cls_f == bu) & (cls_g == bu))
        labels = ("f", "g", "fg")
        columns = (cls_f, cls_g, cls_fg)

    elif rel is RelationId.CONJUGACY_TRANSPORT:
        av = complex(a)
        bv = complex(b)
        h = conjugate(f, av, bv)
        cls_f = classify_batch(f, seeds, cfg)
        images = av * seeds + bv
        cls_h_img = classify_batch(h, images, cfg)
        bad = cls_f != cls_h_img
        labels = ("f", "conjugate_at_image")
        columns = (cls_f, cls_h_img)

    elif rel is RelationId.AFFINE_BUNGEE_EQUAL:
        cls_f = classify_batch(f, seeds, cfg)
        cls_g = classify_batch(g, seeds, cfg)
        bu = int(Classification.BUNGEE)
        bad = (cls_f == bu) != (cls_g == bu)
        labels = ("f", "g")
        columns = (cls_f, cls_g)

    elif rel is RelationId.DISJOINT_K_AND_BU:
        cls_f = classify_batch(f, seeds, cfg)
        cls_g = classify_batch(g, seeds, cfg)
        both_k = (cls_f == int(Classification.BOUNDED)) & (
            cls_g == int(Classification.BOUNDED)
        )
        both_bu = (cls_f == int(Classification.BUNGEE)) & (
            cls_g == int(Classification.BUNGEE)
        )
        bad = both_k | both_bu
        labels = ("f", "g")
        columns = (cls_f, cls_g)

    elif rel is RelationId.STRIP_CONTAINMENT:
        cls_f = classify_batch(f, seeds, cfg)
        bad = (cls_f == int(Classification.ESCAPING)) & ~_strip_mask(seeds)
        labels = ("f",)
        columns = (cls_f,)

    else:  # pragma: no cover - every RelationId is handled above
        raise ValueError(f"unhandled relation: {rel!r}")

    # Seeds a column could not resolve (including images that failed to
    # evaluate, which `_classify_where` reports as Unresolved) never count.
    resolved = np.logical_and.reduce([col != _UNRESOLVED for col in columns])
    bad &= resolved
    violations = tuple(
        Violation(
            seed=complex(seeds[i]),
            verdicts={lab: Classification(int(col[i])) for lab, col in zip(labels, columns)},
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
