"""Escaping, bounded and bungee sets of entire maps, computed numerically.

The package classifies orbits of user-supplied complex maps into four
empirical classes (Escaping, Bounded, Bungee, Unresolved), renders the
classification over grids, and checks a catalog of set-level relations
between maps and their composites on sampled seeds.
"""

from .expr import (
    ExprSyntaxError,
    FunctionExpr,
    InfinityEvent,
    PoleEvent,
    affine_post,
    compose,
    conjugate,
    evaluate,
    format_expr,
    parse,
)
from .orbit import (
    Classification,
    CertifiedBounded,
    CertifiedBungee,
    CertifiedEscape,
    ClassifierConfig,
    Completed,
    CycleFound,
    OrbitRecord,
    Overflowed,
    PoleHit,
    classify,
    classify_batch,
    classify_point,
    iterate_orbit,
)
from .grid import (
    GridSpec,
    Raster,
    classify_grid,
    extract_boundary,
    raster_to_json,
    render_ppm,
)
from .relations import (
    PermutabilityResult,
    RelationId,
    RelationReport,
    SamplePlan,
    check_permutable,
    verify_relation,
)

__version__ = "0.1.0"

# The example catalog (`bungee.registry`) is imported on first use of one of
# these names, so `import bungee` and the CLI's other commands skip it.
_REGISTRY_NAMES = ("ExampleEntry", "export_registry_json", "get_example", "list_examples", "run_example")


def __getattr__(name: str):
    if name in _REGISTRY_NAMES:
        from . import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_REGISTRY_NAMES})

__all__ = [
    "ExprSyntaxError",
    "FunctionExpr",
    "InfinityEvent",
    "PoleEvent",
    "affine_post",
    "compose",
    "conjugate",
    "evaluate",
    "format_expr",
    "parse",
    "Classification",
    "CertifiedBounded",
    "CertifiedBungee",
    "CertifiedEscape",
    "ClassifierConfig",
    "Completed",
    "CycleFound",
    "OrbitRecord",
    "Overflowed",
    "PoleHit",
    "classify",
    "classify_batch",
    "classify_point",
    "iterate_orbit",
    "GridSpec",
    "Raster",
    "classify_grid",
    "extract_boundary",
    "raster_to_json",
    "render_ppm",
    "PermutabilityResult",
    "RelationId",
    "RelationReport",
    "SamplePlan",
    "check_permutable",
    "verify_relation",
    "ExampleEntry",
    "export_registry_json",
    "get_example",
    "list_examples",
    "run_example",
    "__version__",
]
