"""The public surface: every name in `bungee.__all__` stays and resolves."""

from __future__ import annotations

import bungee

PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    assert bungee.__all__ == PUBLIC_NAMES
    missing = [name for name in bungee.__all__ if not hasattr(bungee, name)]
    assert missing == []
