"""The scripts under ``tools/`` load against the current package.

Each script is loaded as a module, not run, so only its imports and
top-level definitions execute; this catches a script that imports a
name the package no longer has (``tools/stepcost.py`` imports the
private engine names ``_run_batch``, ``_COMPLETED`` and ``_CHUNK`` and the
region searches ``escape_regions`` and ``form_regions``, and reads
``Program.checked`` from ``compile_expr``).
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.mark.parametrize("script, names", [
    ("parity.py", ["write_outputs", "EDGE_SEEDS", "main"]),
    ("stepcost.py", ["main", "run_seconds", "search_seconds", "short_orbit_row", "against", "SHORT_ORBIT_PROBE",
                     "_run_batch", "_COMPLETED", "_CHUNK", "compile_expr", "escape_regions", "form_regions",
                     "classify_batch", "GridSpec"]),
])
def test_tool_script_loads(script, names):
    namespace = runpy.run_path(str(TOOLS / script), run_name="not_main")
    assert [name for name in names if name not in namespace] == []
