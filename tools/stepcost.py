"""Cost of one orbit-engine step, in microseconds.

Usage, from any directory::

    python3 tools/stepcost.py
    python3 tools/stepcost.py --against OTHER_CHECKOUT [--rounds N]

The package is imported from ``src/`` of the checkout that holds this
script, so running it from two checkouts compares them. Seeds are a
lattice in [0.5, 3.5] x [-3, 3], where every orbit of the Fatou map
``z+1+exp(-z)`` runs the whole budget of 1,000 steps (Re z grows by
about 1 a step) when the engine is given no escape regions, so each
step of a run steps every lane. (With its certified half-plane
``Re z >= 1/16`` every one of those orbits ends at step 0; the rows
measure the step itself, as they did before certificates.) At 1, 288
and 3,600 lanes it prints, in microseconds per step, from runs in a
fresh process for each lattice:

- ``eval_array``: the time the engine spends in ``eval_array``, timed by
  a wrapper around the ``bungee.orbit.eval_array`` binding;
- ``engine step``: the whole ``_run_batch`` run divided by its 1,000
  steps, evaluation and about 0.3 us of wrapper included;
- ``bookkeeping``: the difference, what the engine itself adds per step.

It first prints how many lane reductions one evaluation of the map runs:
the finiteness checks its compiled program keeps, plus one count per
``exp``/``sin``/``cos`` argument test and per divisor (a divisor is
counted only when its quotient is not finite, so an evaluation with no
event runs fewer).

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
the steps summed over the lanes. ``classify_batch`` tests every seed
against the regions once, as step 0, and runs the engine only on the
seeds that no region holds, in chunks of up to 4,096 of them, each chunk
until its last lane ends; the engine steps are those steps summed over
the chunks. A grid whose every seed ends at step 0 runs no engine step:
its row prints the time per run alone.

Last, for every map of the catalog and for the maps of ``SEARCH_EXTRA``,
it prints the time of the whole region search, `bungee.certify.regions`,
which runs once per ``classify_batch`` or ``iterate_orbit`` call: the
half-planes and rays of ``escape_regions`` and the disk regions of
``form_regions``; then the time of the disk part alone, which for a map
that applies ``exp``, ``sin`` or ``cos`` to ``z`` is one walk over its
program that tracks which values read ``z``, with no interval arithmetic
(each search walks the program with the one walker of `bungee.expr`);
then the time of the trap-box search, `bungee.certify.trap_regions`,
which runs at most once per call, when a lane reaches the step-15
checkpoint; then the regions and the boxes found.

Then the set-up row: in milliseconds, what the set-up probe of
``perfbench/run.py`` times in a fresh process, the import of ``bungee``
and ``bungee.cli``, the parse of the four maps of its ``classify_points``
workload and a call of the CLI without arguments, which builds its parser.
Each process measures it once.

All of them come from the fastest of several runs, so a busy machine
inflates them less than a mean would. The machine's speed still drifts
between invocations by more than many changes move a row. So with
``--against OTHER_CHECKOUT`` the script prints only five rows, the run
times of the two batch rows, the 3,600-lane bookkeeping per step, the
set-up and the region search (the best of several ``regions`` calls for
each of the set-up's four maps, summed), each measured in fresh processes
that alternate between this checkout and the other one, ``--rounds``
times each (default 10): each side's median, and in how many rounds each
side was the faster.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "bungee" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'bungee'} not found; run from a checkout of bungee")
sys.path.insert(0, str(SRC))

from bungee import GridSpec, classify_batch, get_example, list_examples, parse  # noqa: E402
from bungee.certify import form_regions, regions, trap_regions  # noqa: E402
from bungee.expr import compile_expr  # noqa: E402
from bungee.orbit import _CHUNK, _COMPLETED, DEFAULT_CONFIG  # noqa: E402

FATOU = "z+1+exp(-z)"
LATTICES = ((1, 1), (12, 24), (60, 60))  # nx x ny seeds: 1, 288 and 3,600 lanes
# The batch rows: a title, the map and its grid.
BATCH_ROWS = (
    ("short orbits", "1/pow(z,2)", GridSpec(-2.0, 2.0, -2.0, 2.0, 256, 256)),  # the window of a rational render
    ("Bounded cycles", "0.3*exp(z)", GridSpec(-4.0, 4.0, -4.0, 4.0, 256, 256)),
)
REPEATS = 9
# Maps beside the catalog's: polynomial ones, two whose coefficients are
# exp of a constant, and a power of high degree, whose rectangle and error
# bound the search builds by squaring.
SEARCH_EXTRA = ("pow(z,2)", "z*z-1", "1.001*z", "exp(0.001)*z", "exp(1)*z*z", "pow(z,1000)")
# The probes below run in a fresh process against the package in argv[1]
# and print what they measured, the best of REPEATS runs.
# A batch run of the map argv[2] over the grid of argv[3:]: microseconds per run.
BATCH_PROBE = f"""
import sys, time
sys.path.insert(0, sys.argv[1])
from bungee import GridSpec, classify_batch, parse
f = parse(sys.argv[2])
z = GridSpec(*map(float, sys.argv[3:7]), *map(int, sys.argv[7:9])).points().ravel()
times = []
for _ in range({REPEATS}):
    start = time.perf_counter()
    classify_batch(f, z)
    times.append(time.perf_counter() - start)
print(min(times) * 1e6)
"""
# One engine run of the Fatou map without escape regions over the lattice
# of argv[2] x argv[3] seeds: microseconds per step in eval_array, and in
# the whole step.
STEP_PROBE = f"""
import sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
import bungee.orbit
from bungee import parse
from bungee.expr import compile_expr
from bungee.orbit import _COMPLETED, DEFAULT_CONFIG, _run_batch
nx, ny = int(sys.argv[2]), int(sys.argv[3])
program = compile_expr(parse({FATOU!r}))
z = (np.linspace(0.5, 3.5, nx)[None, :] + 1j * np.linspace(-3.0, 3.0, ny)[:, None]).ravel()
if not (_run_batch(program, z, DEFAULT_CONFIG, ()).kind == _COMPLETED).all():
    sys.exit(f"error: not every orbit at {{z.size}} lanes ran the whole budget")
inner, spent = bungee.orbit.eval_array, [0.0]

def timed(*args):
    start = time.perf_counter()
    try:
        return inner(*args)
    finally:
        spent[0] += time.perf_counter() - start

bungee.orbit.eval_array = timed
runs = []
for _ in range({REPEATS}):
    spent[0] = 0.0
    start = time.perf_counter()
    _run_batch(program, z, DEFAULT_CONFIG, ())
    runs.append((time.perf_counter() - start, spent[0]))
wall, evaluation = min(runs)
print(evaluation / DEFAULT_CONFIG.max_iter * 1e6, wall / DEFAULT_CONFIG.max_iter * 1e6)
"""
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
SETUP_TITLE = "set-up: import bungee and bungee.cli, parse 4 maps, run the CLI without arguments, ms"
# The region search of each map of argv[2:], once compiled: microseconds
# per call, the best of REPEATS calls for each map, summed over the maps.
SEARCH_PROBE = f"""
import sys, time
sys.path.insert(0, sys.argv[1])
from bungee import parse
from bungee.certify import regions
from bungee.expr import compile_expr
total = 0.0
for text in sys.argv[2:]:
    program = compile_expr(parse(text))
    times = []
    for _ in range({REPEATS}):
        start = time.perf_counter()
        regions(program)
        times.append(time.perf_counter() - start)
    total += min(times)
print(total * 1e6)
"""
SEARCH_TITLE = f"region search: certify.regions of {', '.join(SETUP_MAPS)}, summed, us per call"


def window(grid: GridSpec) -> str:
    """A grid's rectangle, as the rows name it."""
    return f"[{grid.re_min:g}, {grid.re_max:g}]x[{grid.im_min:g}, {grid.im_max:g}]"


# The rows `--against` alternates: a title, a probe with its arguments, and
# the figure compared, from the numbers the probe prints.
AGAINST_ROWS = (
    *((f"{title}: {text} over {grid.nx}x{grid.ny} seeds of {window(grid)}, us per run",
       BATCH_PROBE, (text, *grid.to_dict().values()), lambda out: out[0])
      for title, text, grid in BATCH_ROWS),
    (f"map {FATOU} over 60x60 lanes, bookkeeping us per step",
     STEP_PROBE, (60, 60), lambda out: out[1] - out[0]),
    (SETUP_TITLE, SETUP_PROBE, SETUP_MAPS, lambda out: out[0]),
    (SEARCH_TITLE, SEARCH_PROBE, SETUP_MAPS, lambda out: out[0]),
)


def probe(code: str, src: Path, *args) -> list[float]:
    """The numbers a probe prints, run in a fresh process against the package in ``src``."""
    run = subprocess.run([sys.executable, "-c", code, str(src), *map(str, args)], capture_output=True, text=True)
    if run.returncode:
        sys.exit(run.stderr.strip() or f"error: a probe exited with {run.returncode}")
    return [float(x) for x in run.stdout.split()]


def engine_steps(state) -> int:
    """The steps the engine runs in a ``classify_batch`` call whose lanes
    all end before the budget: the seeds that no region holds at step 0
    run in chunks of up to ``_CHUNK``, each chunk until its last lane ends."""
    live = state.term_step[~((state.term_step == 0) & (state.region >= 0))]
    return sum(int(live[lo : lo + _CHUNK].max()) for lo in range(0, live.size, _CHUNK))


def batch_row(title: str, text: str, grid: GridSpec) -> None:
    """Print the cost of a batch run whose lanes all end before the
    budget, per run and, if the engine steps at all, per engine step, and
    its lane-steps."""
    f, z = parse(text), grid.points().ravel()
    _, state = classify_batch(f, z, return_state=True)
    ends = state.term_step
    if (state.kind == _COMPLETED).any():
        sys.exit(f"error: an orbit of {text} ran the whole budget")
    steps = engine_steps(state)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        classify_batch(f, z)
        times.append(time.perf_counter() - start)
    run = min(times)
    print(f"{title}: {text} over {grid.nx}x{grid.ny} seeds of {window(grid)}, lanes end at steps "
          f"{ends.min()}-{ends.max()}, {steps} engine steps; best of {REPEATS}")
    per_step = f" {run / steps * 1e6:>10.1f} us per engine step" if steps else ""
    print(f"{run * 1e6:>10.0f} us per run{per_step} {int(ends.sum()):>10,} lane-steps")


def search_seconds(program, search=regions) -> float:
    """The fastest of several runs of a region search for one map: by
    default the whole search, both kinds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        search(program)
        times.append(time.perf_counter() - start)
    return min(times)


def against(other: Path, rounds: int) -> int:
    """Alternate fresh-process runs of each of `AGAINST_ROWS` between this
    checkout and ``other``."""
    sides = {str(ROOT): SRC, str(other): other / "src"}
    if not (sides[str(other)] / "bungee" / "__init__.py").is_file():
        sys.exit(f"error: {other / 'src' / 'bungee'} not found")
    figures: dict = {(row, side): [] for row in range(len(AGAINST_ROWS)) for side in sides}
    wins = {key: 0 for key in figures}
    for k in range(rounds):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for row, (_, code, args, figure) in enumerate(AGAINST_ROWS):
            for side in order:
                figures[row, side].append(figure(probe(code, sides[side], *args)))
            wins[row, min(sides, key=lambda side: figures[row, side][-1])] += 1
    for row, (title, code, *_) in enumerate(AGAINST_ROWS):
        each = "once" if code is SETUP_PROBE else f"best of {REPEATS}"
        print(f"{title} ({each} in each process), {rounds} alternating rounds")
        for side in sides:
            print(f"{statistics.median(figures[row, side]):>10.1f} median, "
                  f"faster in {wins[row, side]:>2} of {rounds}  {side}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="another checkout to alternate two rows with")
    parser.add_argument("--rounds", type=int, default=10, help="alternations with --against (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.against is not None:
        return against(args.against.resolve(), args.rounds)
    program = compile_expr(parse(FATOU))
    checks = sum(program.checked)
    tests = sum(op in ("exp", "sin", "cos", "/") for op, _, _ in program.code)
    print(f"map {FATOU}: {checks + tests} lane reductions per evaluation "
          f"({checks} finiteness, {tests} argument or divisor)")
    print(f"{DEFAULT_CONFIG.max_iter} steps; microseconds per step, best of {REPEATS}")
    print(f"{'lanes':>6} {'eval_array':>11} {'engine step':>12} {'bookkeeping':>12}")
    for nx, ny in LATTICES:
        evaluation, step = probe(STEP_PROBE, SRC, nx, ny)
        print(f"{nx * ny:>6} {evaluation:>11.1f} {step:>12.1f} {step - evaluation:>12.1f}")
    for row in BATCH_ROWS:
        batch_row(*row)
    print(f"region search per call, microseconds, best of {REPEATS}: the whole search, its disk part, "
          "and the trap boxes")
    entries = [get_example(eid) for eid, _ in list_examples()]
    maps = [str(m) for e in entries for m in (e.f, e.g) if m is not None] + list(SEARCH_EXTRA)
    for text in dict.fromkeys(maps):
        program = compile_expr(parse(text))
        found = regions(program) + trap_regions(program, DEFAULT_CONFIG)
        whole, disks = search_seconds(program), search_seconds(program, form_regions)
        boxes = search_seconds(program, lambda p: trap_regions(p, DEFAULT_CONFIG))
        print(f"{text:>20} {whole * 1e6:>8.0f} {disks * 1e6:>8.1f} {boxes * 1e6:>8.0f}  {[str(r) for r in found]}")
    setup = min(probe(SETUP_PROBE, SRC, *SETUP_MAPS)[0] for _ in range(REPEATS))
    print(f"{SETUP_TITLE}, best of {REPEATS} processes: {setup:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
