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
from importlib import import_module as _import_module

__version__ = "0.1.0"

# Every public name but those of `expr` is imported from its module on the
# first read of the name (PEP 562), so `import bungee` loads `expr` alone and
# a CLI start adds only what its command runs. The modules themselves resolve
# the same way: `bungee.orbit` after a plain `import bungee`.
_LAZY = {
    **dict.fromkeys((
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
    ), "orbit"),
    **dict.fromkeys(
        ("GridSpec", "Raster", "classify_grid", "extract_boundary", "raster_to_json", "render_ppm"), "grid"
    ),
    **dict.fromkeys(
        ("PermutabilityResult", "RelationId", "RelationReport", "SamplePlan", "check_permutable", "verify_relation"),
        "relations",
    ),
    **dict.fromkeys(
        ("ExampleEntry", "export_registry_json", "get_example", "list_examples", "run_example"), "registry"
    ),
}
_SUBMODULES = ("certify", "grid", "orbit", "registry", "relations")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_SUBMODULES})


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
    *_LAZY,
    "__version__",
]
