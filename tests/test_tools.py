"""The scripts under ``tools/`` load against the current package.

Each script is loaded as a module, not run, so only its imports and
top-level definitions execute; this catches a script that imports a
name the package no longer has (``tools/stepcost.py`` imports the
private engine names ``_COMPLETED`` and ``_CHUNK`` and the region
searches ``regions``, ``form_regions`` and ``trap_regions``, and reads ``Program.checked``
from ``compile_expr``). The probes that ``tools/stepcost.py`` runs in
fresh processes import more private names, so they are run once on a
small input; the set-up and region-search probes, on their own maps.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


@pytest.mark.parametrize("script, names", [
    ("parity.py", ["write_outputs", "EDGE_SEEDS", "DRIFT_CFG", "main"]),
    ("stepcost.py", ["main", "probe", "search_seconds", "batch_row", "engine_steps", "against", "BATCH_PROBE",
                     "STEP_PROBE", "SETUP_PROBE", "SEARCH_PROBE", "AGAINST_ROWS", "BATCH_ROWS", "_COMPLETED",
                     "_CHUNK", "compile_expr", "regions", "form_regions", "trap_regions", "classify_batch",
                     "GridSpec"]),
])
def test_tool_script_loads(script, names):
    namespace = runpy.run_path(str(TOOLS / script), run_name="not_main")
    assert [name for name in names if name not in namespace] == []


def test_stepcost_probes_run_on_this_checkout():
    stepcost = runpy.run_path(str(TOOLS / "stepcost.py"), run_name="not_main")
    evaluation, step = stepcost["probe"](stepcost["STEP_PROBE"], ROOT / "src", 1, 1)
    assert 0 < evaluation < step
    for _, text, _ in stepcost["BATCH_ROWS"]:
        (run,) = stepcost["probe"](stepcost["BATCH_PROBE"], ROOT / "src", text, -1.0, 1.0, -1.0, 1.0, 4, 4)
        assert run > 0
    (setup,) = stepcost["probe"](stepcost["SETUP_PROBE"], ROOT / "src", *stepcost["SETUP_MAPS"])
    assert setup > 0
    (search,) = stepcost["probe"](stepcost["SEARCH_PROBE"], ROOT / "src", *stepcost["SETUP_MAPS"])
    assert search > 0
    titles = [title for title, *_ in stepcost["AGAINST_ROWS"]]
    assert titles[:2] == ["short orbits: 1/pow(z,2) over 256x256 seeds of [-2, 2]x[-2, 2], us per run",
                          "Bounded cycles: 0.3*exp(z) over 256x256 seeds of [-4, 4]x[-4, 4], us per run"]
    assert titles[-1] == ("region search: certify.regions of z+1+exp(-z), 0.3*exp(z), 1/pow(z,2), z+sin(z), "
                          "summed, us per call")


def test_stepcost_batch_row_without_engine_steps(capsys):
    """Every seed of ``pow(z,2)`` over [2, 3]^2 lies in its region
    ``|z| >= 1.0009765625`` and ends at step 0, so the engine runs no step:
    the row prints the time per run alone. The short-orbit row's 56 live
    seeds run as one chunk, until the last ends at step 3."""
    stepcost = runpy.run_path(str(TOOLS / "stepcost.py"), run_name="not_main")
    stepcost["batch_row"]("outside the disk", "pow(z,2)", stepcost["GridSpec"](2.0, 3.0, 2.0, 3.0, 8, 8))
    out = capsys.readouterr().out
    assert "0 engine steps" in out and "per engine step" not in out
    _, text, grid = stepcost["BATCH_ROWS"][0]
    _, state = stepcost["classify_batch"](stepcost["parse"](text), grid.points(), return_state=True)
    assert stepcost["engine_steps"](state) == 3
