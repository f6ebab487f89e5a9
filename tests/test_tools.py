"""The scripts under ``tools/`` load against the current package.

Each script is loaded as a module, not run, so only its imports and
top-level definitions execute; this catches a script that imports a
name the package no longer has. The rows of ``tools/stepcost.py`` are
functions of a package object, which read its private engine names
(``orbit._setup``, ``orbit._COMPLETED``, the ``orbit.eval_array``
binding) and the region searches ``regions``, ``form_regions`` and
``trap_regions`` only when called, so each row is called once on this
checkout's package, on a small input; the set-up row, which runs in a
fresh process, on its own maps, and the render row on its own grid. Of
``tools/parity.py`` the composites writer is called, on one catalog pair,
and the records writer, on one map.
"""

from __future__ import annotations

import runpy
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


@pytest.mark.parametrize("script, names", [
    ("parity.py", ["write_outputs", "EDGE_SEEDS", "DRIFT_CFG", "CONFIGS", "COMPOSITE_GRIDS", "main"]),
    ("stepcost.py", ["main", "load", "best", "per_call", "SAMPLE_S", "step_us", "batch_us", "engine_steps",
                     "batch_row", "render_us", "orbit_us", "search_us", "setup_ms", "against", "SETUP_PROBE",
                     "AGAINST_ROWS", "BATCH_ROWS", "ORBIT_SEEDS", "GridSpec", "bungee"]),
])
def test_tool_script_loads(script, names):
    namespace = runpy.run_path(str(TOOLS / script), run_name="not_main")
    assert [name for name in names if name not in namespace] == []


def test_parity_composites_cover_both_orders_and_configs():
    """The composites writer on ex_halfplane_pair: the text of f(g) and
    g(f), then, under both configs, a verdict and a termination at every
    edge seed and the codes of every grid, a digit a seed. On the wide grid
    two seeds of f(g), a conjugate pair, evaluate exp at a real part past
    700 while every value stays a double; both read Bounded."""
    parity = runpy.run_path(str(TOOLS / "parity.py"), run_name="not_main")
    entry = parity["get_example"]("ex_halfplane_pair")
    lines = dict(line.split("\t", 1) for line in parity["_composites"]([entry]).splitlines())
    seeds, grids = parity["EDGE_SEEDS"], parity["COMPOSITE_GRIDS"]
    assert len(lines) == 2 * (1 + 2 * (len(seeds) + len(grids)))
    for order, (outer, inner) in (("fg", (entry.f, entry.g)), ("gf", (entry.g, entry.f))):
        name = f"ex_halfplane_pair-{order}"
        assert lines[f"{name}-map"] == str(parity["compose"](outer, inner))
        for cname in ("default", "drift"):
            for si in range(len(seeds)):
                verdict, termination = lines[f"{name}-seed{si}-{cname}"].split("\t")
                assert verdict in ("Escaping", "Bounded", "Bungee", "Unresolved") and termination.endswith(")")
            for gname, grid in grids.items():
                codes = lines[f"{name}-{gname}-{cname}"]
                assert len(codes) == grid.nx * grid.ny and set(codes) <= set("0123")
    wide = grids["wide40"].points().ravel()
    for cname in ("default", "drift"):
        codes = lines[f"ex_halfplane_pair-fg-wide40-{cname}"]
        for seed in (2.9166666666666714 - 22.083333333333332j, 2.9166666666666714 + 22.083333333333336j):
            assert codes[int(np.flatnonzero(wide == seed)[0])] == "1"


def test_parity_records_show_copies_and_checks():
    """Per tree built from a map, the records writer gives the root's repr
    as built, after a pickle round trip and after a deep copy, which must
    agree, and the compiled program's checked flags."""
    parity = runpy.run_path(str(TOOLS / "parity.py"), run_name="not_main")
    lines = dict(line.split("\t", 1) for line in parity["_records"](["z+sin(z)"]).splitlines())
    for tname in ("root", "compose", "conjugate"):
        built, pickled, copied, checked = lines[f"map0-{tname}"].split("\t")
        assert built == pickled == copied and built.startswith(("BinOp(", "Apply("))
        assert checked.startswith("(") and "True" in checked
    assert lines["map0-root"].endswith("\t(False, False, False, True)")  # sin feeds a +, so only the + checks


def test_stepcost_search_samples_loop_for_at_least_five_ms():
    stepcost = runpy.run_path(str(TOOLS / "stepcost.py"), run_name="not_main")
    calls = []
    seconds = stepcost["per_call"](lambda: calls.append(None))
    assert stepcost["SAMPLE_S"] == 0.005
    assert len(calls) > 1 and seconds * len(calls) >= 0.005


def test_stepcost_rows_run_on_this_checkout():
    stepcost = runpy.run_path(str(TOOLS / "stepcost.py"), run_name="not_main")
    bungee = stepcost["bungee"]
    setup = bungee.orbit._setup
    evaluation, bookkeeping = stepcost["step_us"](bungee, 1, 1)
    assert evaluation > 0 and bookkeeping > 0
    assert bungee.orbit.eval_array is bungee.expr.eval_array  # the timing wrapper is gone
    assert bungee.orbit._setup is setup  # and so is the set-up without certificates
    grid = stepcost["GridSpec"](-1.0, 1.0, -1.0, 1.0, 4, 4)
    for _, text, _ in stepcost["BATCH_ROWS"]:
        assert stepcost["batch_us"](bungee, text, grid) > 0
    assert stepcost["render_us"](bungee) > 0
    assert stepcost["orbit_us"](bungee) > 0
    for search in ("regions", "form_regions", "trap_regions"):
        assert stepcost["search_us"](bungee, stepcost["SETUP_MAPS"], search) > 0
    assert stepcost["setup_ms"](bungee) > 0
    titles = [title for title, _ in stepcost["AGAINST_ROWS"]]
    assert len(titles) == 8
    assert titles[:4] == ["short orbits: 1/pow(z,2) over 256x256 seeds of [-2, 2]x[-2, 2], us per run",
                          "Bounded cycles: 0.3*exp(z) over 256x256 seeds of [-4, 4]x[-4, 4], us per run",
                          "render: cli.main of 1/pow(z,2) over 256x256 seeds of [-2, 2]x[-2, 2] with --boundary "
                          "and --json, overwriting its outputs, us per run",
                          "single seed: iterate_orbit then classify of one seed of each of z+1+exp(-z), "
                          "0.3*exp(z), 1/pow(z,2), z+sin(z), summed, us per call"]
    assert titles[-2:] == ["region search: certify.regions of z+1+exp(-z), 0.3*exp(z), 1/pow(z,2), z+sin(z), "
                           "summed, us per call",
                           "trap search: certify.trap_regions of z+1+exp(-z), 0.3*exp(z), 1/pow(z,2), z+sin(z), "
                           "summed, us per call"]
    assert [figure(bungee) > 0 for _, figure in stepcost["AGAINST_ROWS"][-2:]] == [True, True]


def test_stepcost_batch_row_without_engine_steps(capsys):
    """Every seed of ``pow(z,2)`` over [2, 3]^2 lies in its region
    ``|z| >= 1.0009765625`` and ends at step 0, so the engine runs no step:
    the row prints the time per run alone. The short-orbit row's 56 live
    seeds make one engine run, until the last ends at step 3: three
    evaluations of the map."""
    stepcost = runpy.run_path(str(TOOLS / "stepcost.py"), run_name="not_main")
    bungee = stepcost["bungee"]
    stepcost["batch_row"](bungee, "outside the disk", "pow(z,2)", stepcost["GridSpec"](2.0, 3.0, 2.0, 3.0, 8, 8))
    out = capsys.readouterr().out
    assert "0 engine steps" in out and "per engine step" not in out
    _, text, grid = stepcost["BATCH_ROWS"][0]
    assert stepcost["engine_steps"](bungee, text, grid) == 3
    assert bungee.orbit.eval_array is bungee.expr.eval_array  # the counting wrapper is gone


def test_stepcost_loads_two_checkouts_side_by_side(tmp_path):
    """`load` imports a checkout's package under a name of its own: this
    checkout and a copy of its ``src/`` give distinct ``orbit`` modules,
    each from its own ``src/``, and a wrapper on one's ``eval_array``
    binding leaves the other alone."""
    stepcost = runpy.run_path(str(TOOLS / "stepcost.py"), run_name="not_main")
    shutil.copytree(ROOT / "src" / "bungee", tmp_path / "src" / "bungee", ignore=shutil.ignore_patterns("__pycache__"))
    names = ("stepcost_test_this", "stepcost_test_copy")
    try:
        this, copy = stepcost["load"](ROOT, names[0]), stepcost["load"](tmp_path, names[1])
        assert this.orbit is not copy.orbit
        assert Path(this.orbit.__file__).is_relative_to(ROOT / "src")
        assert Path(copy.orbit.__file__).is_relative_to(tmp_path / "src")
        assert copy.certify.__name__ == "stepcost_test_copy.certify"  # a module no public name comes from
        copy.list_examples()  # the catalog is imported lazily, as a module of the package that asks
        assert copy.registry.__name__ == "stepcost_test_copy.registry"
        calls, inner = [], this.orbit.eval_array

        def counted(*args):
            calls.append(args)
            return inner(*args)

        this.orbit.eval_array = counted
        copy.classify_batch(copy.parse("exp(z)"), np.zeros(1))  # no region holds 0: the engine evaluates
        assert calls == [] and copy.orbit.eval_array is copy.expr.eval_array
        this.classify_batch(this.parse("exp(z)"), np.zeros(1))
        assert calls
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] in names]:
            del sys.modules[name]


def test_stepcost_against_one_checkout_keeps_two_sides(capsys):
    """`against` of a checkout with itself still alternates two packages:
    here a row whose figure is the length of the package's name, which
    differs between the two. Each side prints its median and quartiles,
    for one round too, and no count of rounds won."""
    stepcost = runpy.run_path(str(TOOLS / "stepcost.py"), run_name="not_main")
    stepcost["against"].__globals__["AGAINST_ROWS"] = (("name length", lambda pkg: len(pkg.__name__)),)
    for rounds in (1, 2):
        try:
            stepcost["against"](ROOT, rounds)
        finally:
            for name in [name for name in sys.modules if name.split(".")[0] == "bungee_against"]:
                del sys.modules[name]
        _, this, other = capsys.readouterr().out.splitlines()
        assert this.split() == ["6.0", "median,", "quartiles", "6.0", "6.0", str(ROOT)]
        assert other.split() == ["14.0", "median,", "quartiles", "14.0", "14.0", str(ROOT)]


def test_stepcost_quartiles_stay_within_the_rounds():
    quartiles = runpy.run_path(str(TOOLS / "stepcost.py"), run_name="not_main")["quartiles"]
    assert quartiles([3.0]) == (3.0, 3.0)
    assert quartiles([1.0, 3.0]) == (1.5, 2.5)
    assert quartiles([5.0, 1.0, 2.0, 4.0, 3.0]) == (2.0, 4.0)
