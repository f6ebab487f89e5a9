"""The public surface: every name in `bungee.__all__` stays and resolves."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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


def test_public_names_are_pinned_and_resolve():
    assert bungee.__all__ == PUBLIC_NAMES
    missing = [name for name in bungee.__all__ if not hasattr(bungee, name)]
    assert missing == []


def test_import_and_cli_start_leave_the_catalog_unloaded():
    """`import bungee` and a CLI start import `bungee.registry` only when
    one of its names is first read; every public name still resolves."""
    code = f"""
import sys
sys.path.insert(0, {str(Path(bungee.__file__).parent.parent)!r})
import bungee, bungee.cli
assert bungee.cli.main([]) == 1  # no subcommand: a usage error, after building the parser
assert "bungee.registry" not in sys.modules
assert set(bungee.__all__) <= set(dir(bungee))
missing = [name for name in bungee.__all__ if not hasattr(bungee, name)]
assert missing == [], missing
assert "bungee.registry" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
