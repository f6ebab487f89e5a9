"""Cost of one orbit-engine step, in microseconds.

Usage, from any directory::

    python3 tools/stepcost.py
    python3 tools/stepcost.py --against OTHER_CHECKOUT [--rounds N]

Every row but the set-up is one function of the package object it
measures, called in this process; alone, the script calls them on the
package in ``src/`` of the checkout that holds it. Every row reaches the
engine through ``classify_batch``, ``iterate_orbit`` or the CLI, never
through the engine's own run function, whose signature a change may
move; a row that needs the engine without certificates, or its step
count, patches ``orbit._setup`` or wraps the ``orbit.eval_array``
binding. Seeds are a lattice in [0.5, 3.5] x [-3, 3], where every orbit
of the Fatou map ``z+1+exp(-z)`` runs the whole budget of 1,000 steps
(Re z grows by about 1 a step) when the engine is given no certificates,
so each step of a run steps every lane. (With its certified half-plane
``Re z >= 1/16`` every one of those orbits ends at step 0; the rows
measure the step itself, as they did before certificates.) The step rows
call ``classify_batch`` with ``orbit._setup`` patched to give the map's
program, compiled once, no regions and no trap boxes. At 1, 288 and
3,600 lanes they print, in microseconds per step:

- ``eval_array``: the time the engine spends in ``eval_array``, timed by
  a wrapper around the package's ``orbit.eval_array`` binding;
- ``engine step``: the whole ``classify_batch`` call divided by its
  1,000 steps, evaluation, about 0.3 us of wrapper and the call's own
  work before and after the engine included;
- ``bookkeeping``: the difference, what the engine itself adds per step.

It first prints how many lane reductions one evaluation of the map runs:
the finiteness checks its compiled program keeps, plus one count per
divisor (a divisor is counted only when its quotient is not finite, so
an evaluation with no event runs fewer).

Two batch rows measure the other end, where lanes end, each a run of
``classify_batch`` over a 256 x 256 grid:

- short orbits: ``1/pow(z,2)`` over [-2, 2] x [-2, 2], whose seeds lie
  in the map's certified Bungee region and end there at step 0, before
  one evaluation, except the 56 about the unit circle, between the
  region's two parts, which the step-1 or step-3 checkpoint finds inside;
- Bounded cycles: ``0.3*exp(z)`` over [-4, 4] x [-4, 4], whose bounded
  orbits end in the trap box about its attracting fixed point at the
  step-15 checkpoint (without the box, at a near-repeat, about step 64).

Each prints microseconds per run and per engine step, and the lane-steps,
the steps summed over the lanes. A wrapper on the package's
``orbit.eval_array`` binding counts the engine steps of one
``classify_batch`` call: an engine run evaluates the map once a step,
until its last lane ends, so the count is each run's steps, summed. A
grid whose every seed ends at step 0 runs no engine step: its row prints
the time per run alone.

Then the render row: microseconds per in-process call of the package's
``cli.main`` that renders ``1/pow(z,2)`` over [-2, 2] x [-2, 2] at 256 x
256, the short-orbit row's grid, with ``--boundary`` and ``--json``, into
one temporary directory that every run overwrites (one run writes the
files before the timed ones), so that it times the CLI's writes of
existing files as well as the classification and the encoders.

Then the single-seed row, the path of ``bungee classify --point``:
microseconds per in-process call of ``iterate_orbit`` then ``classify``
of one fixed seed of each of four maps, the set-up row's, summed over
them: ``z+1+exp(-z)`` at 2+i, in its half-plane at step 0; ``0.3*exp(z)``
at 1+i, trapped at the step-15 checkpoint, after the call's box search;
``1/pow(z,2)`` at 1+i, in its Bungee region at step 0; and ``z+sin(z)``
at 2+2i, which ends in a cycle at step 8.

Last, for every map of the catalog and for the maps of ``SEARCH_EXTRA``,
it prints the time of the whole region search, `bungee.certify.regions`,
which runs once per ``classify_batch`` or ``iterate_orbit`` call: the
half-planes and rays of ``escape_regions`` and the disk regions of
``form_regions``; then the time of the disk part alone, which for a map
that applies ``exp``, ``sin`` or ``cos`` to ``z`` is one walk over its
program that tracks which values read ``z``, with no interval arithmetic;
then the time of the trap-box search, `bungee.certify.trap_regions`,
which runs at most once per call, when a lane reaches the step-15
checkpoint; then the regions and the boxes found. A search takes tens to
hundreds of microseconds, so each sample of it loops the call for at
least `SAMPLE_S`, 5 ms, and reads the mean time per call; the row is the
fastest of `REPEATS` samples.

Then the set-up row: in milliseconds, what the set-up probe of
``perfbench/run.py`` times, the import of ``bungee`` and ``bungee.cli``,
the parse of the four maps of its ``classify_points`` workload and a
call of the CLI without arguments, which builds its parser. It times an
import, so it alone runs in fresh processes, each on a fresh copy of the
package's source under ``PYTHONDONTWRITEBYTECODE=1``: every module
compiles from source, as in perfbench, whatever cache the checkout holds.

Each row is the fastest of several runs, but the machine's speed drifts
between invocations by more than many changes move a row. So
``--against OTHER_CHECKOUT`` also loads the other checkout's
``src/bungee`` in this process, as ``bungee_against``, and alternates
eight rows between the two packages, which share one numpy and one
allocator, ``--rounds`` times (default 10): the two batch rows' run
times, the render, the single seed, the 3,600-lane bookkeeping per step,
the set-up, the region search and the trap-box search (each of the
set-up's four maps, summed). It prints each side's median and its lower
and upper quartiles (inclusive method; one round is its own quartiles).
A row whose medians differ by less than the other side's interquartile
range has not moved beyond that side's own spread. It prints no count of
the rounds each side was the faster: two identical copies of one tree
split them as unevenly as 8 to 2, so such a count reads a move where
there is none.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "bungee" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'bungee'} not found; run from a checkout of bungee")
sys.path.insert(0, str(SRC))

import bungee  # noqa: E402
from bungee import GridSpec  # noqa: E402

FATOU = "z+1+exp(-z)"
LATTICES = ((1, 1), (12, 24), (60, 60))  # nx x ny seeds: 1, 288 and 3,600 lanes
# The batch rows: a title, the map and its grid.
BATCH_ROWS = (
    ("short orbits", "1/pow(z,2)", GridSpec(-2.0, 2.0, -2.0, 2.0, 256, 256)),  # the window of a rational render
    ("Bounded cycles", "0.3*exp(z)", GridSpec(-4.0, 4.0, -4.0, 4.0, 256, 256)),
)
REPEATS = 9
# The least time one sample of a search row loops its calls for: a single
# call is short enough that a burst of load moves it whole.
SAMPLE_S = 0.005
# The render row: the short-orbit row's map and grid, as the CLI takes them.
RENDER_ARGS = ("render", "--function", "1/pow(z,2)", "--grid=-2,2,-2,2", "--size", "256,256")
RENDER_TITLE = ("render: cli.main of 1/pow(z,2) over 256x256 seeds of [-2, 2]x[-2, 2] with --boundary and --json, "
                "overwriting its outputs, us per run")
# Maps beside the catalog's: polynomial ones, two whose coefficients are
# exp of a constant, and a power of high degree, whose rectangle and error
# bound the search builds by squaring.
SEARCH_EXTRA = ("pow(z,2)", "z*z-1", "1.001*z", "exp(0.001)*z", "exp(1)*z*z", "pow(z,1000)")
# Set-up, in milliseconds, once: the package in argv[1] and its CLI
# imported, the maps of argv[2:] parsed and the CLI run without arguments.
SETUP_PROBE = """
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bungee, bungee.cli
for text in sys.argv[2:]:
    bungee.parse(text)
with contextlib.redirect_stderr(io.StringIO()):
    code = bungee.cli.main([])  # builds the parser; no subcommand is a usage error
print((time.perf_counter() - start) * 1e3)
if code != 1:
    sys.exit(f"error: the CLI without a subcommand exited {code}")
"""
SETUP_MAPS = ("z+1+exp(-z)", "0.3*exp(z)", "1/pow(z,2)", "z+sin(z)")  # perfbench's classify_points maps
# The single-seed row: one seed of each of those maps, in its classify_points window.
ORBIT_SEEDS = tuple(zip(SETUP_MAPS, (2 + 1j, 1 + 1j, 1 + 1j, 2 + 2j)))
ORBIT_TITLE = (f"single seed: iterate_orbit then classify of one seed of each of {', '.join(SETUP_MAPS)}, "
               "summed, us per call")
SETUP_TITLE = "set-up: import bungee and bungee.cli from source, parse 4 maps, run the CLI without arguments, ms"
SEARCH_TITLE = f"region search: certify.regions of {', '.join(SETUP_MAPS)}, summed, us per call"
TRAP_TITLE = f"trap search: certify.trap_regions of {', '.join(SETUP_MAPS)}, summed, us per call"


def load(checkout: Path, name: str):
    """The package in ``checkout/src/bungee``, imported in this process as
    ``name``, beside any other; its modules import as ``name.orbit`` and so on."""
    package = checkout / "src" / "bungee"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found")
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def best(run) -> tuple:
    """The fastest of `REPEATS` calls of ``run()``: its seconds and what it returned."""
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = run()
        runs.append((time.perf_counter() - start, out))
    return min(runs, key=lambda timed: timed[0])


def per_call(run) -> float:
    """Seconds per call of ``run()``, called in a loop for at least `SAMPLE_S`."""
    calls, start = 0, time.perf_counter()
    while True:
        run()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SAMPLE_S:
            return elapsed / calls


def window(grid: GridSpec) -> str:
    """A grid's rectangle, as the rows name it."""
    return f"[{grid.re_min:g}, {grid.re_max:g}]x[{grid.im_min:g}, {grid.im_max:g}]"


def step_us(pkg, nx: int, ny: int) -> tuple[float, float]:
    """One ``classify_batch`` call of the Fatou map without certificates
    over the lattice of ``nx`` x ``ny`` seeds, which runs the engine once:
    microseconds per step in ``eval_array``, and in the engine's own
    bookkeeping."""
    orbit, f = pkg.orbit, pkg.parse(FATOU)
    program, cfg = pkg.expr.compile_expr(f), orbit.DEFAULT_CONFIG
    z = (np.linspace(0.5, 3.5, nx)[None, :] + 1j * np.linspace(-3.0, 3.0, ny)[:, None]).ravel()
    inner, spent = orbit.eval_array, [0.0]

    def timed(*args):
        start = time.perf_counter()
        out = inner(*args)
        spent[0] += time.perf_counter() - start
        return out

    def run():
        spent[0] = 0.0
        pkg.classify_batch(f, z)
        return spent[0]

    with mock.patch.object(orbit, "_setup", lambda f, cfg: (program, (), None)):
        if not (pkg.classify_batch(f, z, return_state=True)[1].kind == orbit._COMPLETED).all():
            sys.exit(f"error: not every orbit at {z.size} lanes ran the whole budget")
        with mock.patch.object(orbit, "eval_array", timed):
            wall, evaluation = best(run)
    return evaluation / cfg.max_iter * 1e6, (wall - evaluation) / cfg.max_iter * 1e6


def batch_us(pkg, text: str, grid: GridSpec) -> float:
    """A ``classify_batch`` run of the map ``text`` over ``grid``: microseconds per run."""
    f, z = pkg.parse(text), grid.points().ravel()
    return best(lambda: pkg.classify_batch(f, z))[0] * 1e6


def engine_steps(pkg, text: str, grid: GridSpec) -> int:
    """The steps the engine runs in one ``classify_batch`` call of the map
    ``text`` over ``grid``, summed over its runs: the map's evaluations,
    one per run per step, counted by a wrapper on the package's
    ``orbit.eval_array`` binding."""
    inner, calls = pkg.orbit.eval_array, []

    def counted(*args):
        calls.append(None)
        return inner(*args)

    with mock.patch.object(pkg.orbit, "eval_array", counted):
        pkg.classify_batch(pkg.parse(text), grid.points())
    return len(calls)


def batch_row(pkg, title: str, text: str, grid: GridSpec) -> None:
    """Print the cost of a batch run whose lanes all end before the
    budget, per run and, if the engine steps at all, per engine step, and
    its lane-steps."""
    _, state = pkg.classify_batch(pkg.parse(text), grid.points(), return_state=True)
    ends = state.term_step
    if (state.kind == pkg.orbit._COMPLETED).any():
        sys.exit(f"error: an orbit of {text} ran the whole budget")
    steps, run = engine_steps(pkg, text, grid), batch_us(pkg, text, grid)
    print(f"{title}: {text} over {grid.nx}x{grid.ny} seeds of {window(grid)}, lanes end at steps "
          f"{ends.min()}-{ends.max()}, {steps} engine steps; best of {REPEATS}")
    per_step = f" {run / steps:>10.1f} us per engine step" if steps else ""
    print(f"{run:>10.0f} us per run{per_step} {int(ends.sum()):>10,} lane-steps")


def render_us(pkg) -> float:
    """The render of `RENDER_ARGS` by ``pkg``'s CLI, with its three
    outputs in one temporary directory: microseconds per run, each run
    after the first overwriting the files the one before wrote."""
    main = importlib.import_module(f"{pkg.__name__}.cli").main
    with tempfile.TemporaryDirectory() as out:
        argv = [*RENDER_ARGS, "--ppm", f"{out}/r.ppm", "--boundary", f"{out}/r.pbm", "--json", f"{out}/r.json"]

        def run():
            code = main(argv)
            if code:
                sys.exit(f"error: the render exited {code}")

        run()  # the timed runs overwrite what this one wrote
        return best(run)[0] * 1e6


def orbit_us(pkg) -> float:
    """``iterate_orbit`` then ``classify`` of each seed of `ORBIT_SEEDS`,
    its map parsed once: microseconds per call, the best of `REPEATS` calls
    for each map, summed over the maps."""
    total = 0.0
    for text, seed in ORBIT_SEEDS:
        f = pkg.parse(text)
        total += best(lambda: pkg.classify(pkg.iterate_orbit(f, seed)))[0]
    return total * 1e6


def search_us(pkg, texts, search: str = "regions") -> float:
    """The region search ``certify.<search>`` of each map of ``texts``,
    once compiled: microseconds per call, the best of `REPEATS` samples of
    `per_call` for each map, summed over the maps. The trap-box search gets
    the default config."""
    run = getattr(pkg.certify, search)
    args = (pkg.orbit.DEFAULT_CONFIG,) if search == "trap_regions" else ()
    programs = [pkg.expr.compile_expr(pkg.parse(text)) for text in texts]
    return sum(min(per_call(lambda: run(program, *args)) for _ in range(REPEATS)) for program in programs) * 1e6


def setup_ms(pkg) -> float:
    """The set-up probe, run once in a fresh process on a fresh copy of
    ``pkg``'s source, which holds no ``__pycache__`` and gets none."""
    with tempfile.TemporaryDirectory() as copy:
        shutil.copytree(Path(pkg.__file__).parent, Path(copy) / "bungee",
                        ignore=shutil.ignore_patterns("__pycache__"))
        run = subprocess.run([sys.executable, "-c", SETUP_PROBE, copy, *SETUP_MAPS], capture_output=True,
                             text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if run.returncode:
        sys.exit(run.stderr.strip() or f"error: the set-up probe exited with {run.returncode}")
    return float(run.stdout)


# The rows `--against` alternates: a title and its figure, a function of the package.
AGAINST_ROWS = (
    *((f"{title}: {text} over {grid.nx}x{grid.ny} seeds of {window(grid)}, us per run",
       functools.partial(batch_us, text=text, grid=grid))
      for title, text, grid in BATCH_ROWS),
    (RENDER_TITLE, render_us),
    (ORBIT_TITLE, orbit_us),
    (f"map {FATOU} over 60x60 lanes, bookkeeping us per step", lambda pkg: step_us(pkg, 60, 60)[1]),
    (SETUP_TITLE, setup_ms),
    (SEARCH_TITLE, functools.partial(search_us, texts=SETUP_MAPS)),
    (TRAP_TITLE, functools.partial(search_us, texts=SETUP_MAPS, search="trap_regions")),
)


def quartiles(values: list) -> tuple[float, float]:
    """The lower and upper quartiles of ``values``, by the inclusive method,
    which stays within the values; a single value is both."""
    if len(values) == 1:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, high


def against(other: Path, rounds: int) -> int:
    """Alternate each of `AGAINST_ROWS` between this checkout's package
    and ``other``'s, loaded beside it in this process."""
    sides = ((ROOT, bungee), (other, load(other, "bungee_against")))  # two sides even if other is ROOT
    figures: dict = {(row, side): [] for row in range(len(AGAINST_ROWS)) for side in (0, 1)}
    for k in range(rounds):
        for row, (_, figure) in enumerate(AGAINST_ROWS):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                figures[row, side].append(figure(sides[side][1]))
    for row, (title, figure) in enumerate(AGAINST_ROWS):
        each = "once in a fresh process" if figure is setup_ms else f"best of {REPEATS}"
        print(f"{title} ({each} a round), {rounds} alternating rounds")
        for side, (checkout, _) in enumerate(sides):
            low, high = quartiles(figures[row, side])
            print(f"{statistics.median(figures[row, side]):>10.1f} median, quartiles {low:>10.1f} {high:>10.1f}  "
                  f"{checkout}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="another checkout to alternate eight rows with")
    parser.add_argument("--rounds", type=int, default=10, help="alternations with --against (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.against is not None:
        return against(args.against.resolve(), args.rounds)
    program = bungee.expr.compile_expr(bungee.parse(FATOU))
    checks = sum(program.checked)
    divisors = sum(op == "/" for op, _, _ in program.code)
    print(f"map {FATOU}: {checks + divisors} lane reductions per evaluation "
          f"({checks} finiteness, {divisors} divisor)")
    print(f"{bungee.orbit.DEFAULT_CONFIG.max_iter} steps; microseconds per step, best of {REPEATS}")
    print(f"{'lanes':>6} {'eval_array':>11} {'engine step':>12} {'bookkeeping':>12}")
    for nx, ny in LATTICES:
        evaluation, bookkeeping = step_us(bungee, nx, ny)
        print(f"{nx * ny:>6} {evaluation:>11.1f} {evaluation + bookkeeping:>12.1f} {bookkeeping:>12.1f}")
    for row in BATCH_ROWS:
        batch_row(bungee, *row)
    print(f"{RENDER_TITLE}, best of {REPEATS}: {render_us(bungee):.0f}")
    print(f"{ORBIT_TITLE}, best of {REPEATS}: {orbit_us(bungee):.0f}")
    print(f"region search per call, microseconds, best of {REPEATS}: the whole search, its disk part, "
          "and the trap boxes")
    entries = [bungee.get_example(eid) for eid, _ in bungee.list_examples()]
    maps = [str(m) for e in entries for m in (e.f, e.g) if m is not None] + list(SEARCH_EXTRA)
    for text in dict.fromkeys(maps):
        program = bungee.expr.compile_expr(bungee.parse(text))
        found = bungee.certify.regions(program) + bungee.certify.trap_regions(program, bungee.orbit.DEFAULT_CONFIG)
        whole, disks, boxes = (search_us(bungee, [text], s) for s in ("regions", "form_regions", "trap_regions"))
        print(f"{text:>20} {whole:>8.0f} {disks:>8.1f} {boxes:>8.0f}  {[str(r) for r in found]}")
    setup = min(setup_ms(bungee) for _ in range(REPEATS))
    print(f"{SETUP_TITLE}, best of {REPEATS} processes: {setup:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
