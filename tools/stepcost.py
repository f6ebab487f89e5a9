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
``Re z >= 1/16`` every one of those orbits ends at step 1; the rows
measure the step itself, as they did before certificates.) At 1, 288
and 3,600 lanes it prints, in microseconds per step:

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

The short-orbit row measures the other end, where lanes end: the 256 x 256
grid of ``1/pow(z,2)`` over [-2, 2] x [-2, 2] through ``classify_batch``,
whose orbits all end within a few steps, at the first Brent checkpoint
that finds them in the map's certified Bungee region (or, on the unit
circle, by a cycle). It prints microseconds per run and per engine step
(the run's time over the steps its chunks take, each chunk running until
its last lane ends).

Last, for every map of the catalog and for ``pow(z,2)``, ``z*z-1`` and
``1.001*z``, it prints the time of the whole region search, which runs
once per ``classify_batch`` or ``iterate_orbit`` call: the half-planes and
rays of `bungee.certify.escape_regions` and the disk regions of
`bungee.certify.form_regions`; then the time of the disk part alone,
which a map with ``exp``, ``sin`` or ``cos`` ends after one scan of its
program; then the regions found.

All of them come from the fastest of several runs, so a busy machine
inflates them less than a mean would. The machine's speed still drifts
between invocations by more than many changes move a row. So with
``--against OTHER_CHECKOUT`` the script prints only the short-orbit run
time, measured in fresh processes that alternate between this checkout
and the other one, ``--rounds`` times each (default 10): each side's
median, and in how many rounds each side was the faster.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "bungee" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'bungee'} not found; run from a checkout of bungee")
sys.path.insert(0, str(SRC))

import bungee.orbit  # noqa: E402
from bungee import GridSpec, classify_batch, get_example, list_examples, parse  # noqa: E402
from bungee.certify import escape_regions, form_regions  # noqa: E402
from bungee.expr import compile_expr  # noqa: E402
from bungee.orbit import _CHUNK, _COMPLETED, DEFAULT_CONFIG, _run_batch  # noqa: E402

FATOU = "z+1+exp(-z)"
LATTICES = ((1, 1), (12, 24), (60, 60))  # nx x ny seeds: 1, 288 and 3,600 lanes
RATIONAL = "1/pow(z,2)"
RATIONAL_GRID = GridSpec(-2.0, 2.0, -2.0, 2.0, 256, 256)  # the window of a rational render
REPEATS = 9
SEARCH_EXTRA = ("pow(z,2)", "z*z-1", "1.001*z")  # polynomial maps beside the catalog's
# The short-orbit run, timed in a fresh process against the package in argv[1].
SHORT_ORBIT_PROBE = f"""
import sys, time
sys.path.insert(0, sys.argv[1])
from bungee import GridSpec, classify_batch, parse
f, z = parse({RATIONAL!r}), GridSpec{tuple(RATIONAL_GRID.to_dict().values())!r}.points().ravel()
times = []
for _ in range({REPEATS}):
    start = time.perf_counter()
    classify_batch(f, z)
    times.append(time.perf_counter() - start)
print(min(times) * 1e6)
"""


def seeds(nx: int, ny: int) -> np.ndarray:
    re = np.linspace(0.5, 3.5, nx)
    im = np.linspace(-3.0, 3.0, ny)
    return (re[None, :] + 1j * im[:, None]).ravel()


def run_seconds(program, z: np.ndarray) -> tuple[float, float]:
    """One engine run without escape regions: its wall time, and the part
    spent in eval_array."""
    inner = bungee.orbit.eval_array
    spent = 0.0

    def timed(*args, **kwargs):
        nonlocal spent
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spent += time.perf_counter() - start

    bungee.orbit.eval_array = timed
    try:
        start = time.perf_counter()
        _run_batch(program, z, DEFAULT_CONFIG, ())
        return time.perf_counter() - start, spent
    finally:
        bungee.orbit.eval_array = inner


def short_orbit_row() -> None:
    """Print the cost of a run whose lanes all end early, per run and per step."""
    f, z = parse(RATIONAL), RATIONAL_GRID.points().ravel()
    _, state = classify_batch(f, z, return_state=True)
    ends = state.term_step
    if (state.kind == _COMPLETED).any():
        sys.exit(f"error: an orbit of {RATIONAL} ran the whole budget")
    steps = sum(int(ends[lo : lo + _CHUNK].max()) for lo in range(0, z.size, _CHUNK))
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        classify_batch(f, z)
        times.append(time.perf_counter() - start)
    run = min(times)
    print(f"short orbits: {RATIONAL} over {RATIONAL_GRID.nx}x{RATIONAL_GRID.ny} seeds of [-2, 2]^2, "
          f"lanes end at steps {ends.min()}-{ends.max()}, {steps} engine steps; best of {REPEATS}")
    print(f"{run * 1e6:>10.0f} us per run {run / steps * 1e6:>10.1f} us per engine step")


def search_seconds(program, search=lambda program: escape_regions(program) + form_regions(program)) -> float:
    """The fastest of several runs of a region search for one map: by
    default the whole search, both kinds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        search(program)
        times.append(time.perf_counter() - start)
    return min(times)


def against(other: Path, rounds: int) -> int:
    """Alternate fresh-process short-orbit runs of this checkout and ``other``."""
    sides = {str(ROOT): SRC, str(other): other / "src"}
    if not (sides[str(other)] / "bungee" / "__init__.py").is_file():
        sys.exit(f"error: {other / 'src' / 'bungee'} not found")
    times: dict = {side: [] for side in sides}
    wins = dict.fromkeys(sides, 0)
    for k in range(rounds):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for side in order:
            run = subprocess.run([sys.executable, "-c", SHORT_ORBIT_PROBE, str(sides[side])],
                                 capture_output=True, text=True, check=True)
            times[side].append(float(run.stdout))
        wins[min(sides, key=lambda side: times[side][-1])] += 1
    print(f"short orbits: {RATIONAL} over {RATIONAL_GRID.nx}x{RATIONAL_GRID.ny} seeds of [-2, 2]^2, "
          f"us per run (best of {REPEATS} in each process), {rounds} alternating rounds")
    for side in sides:
        print(f"{statistics.median(times[side]):>10.0f} us median, faster in {wins[side]:>2} of {rounds}  {side}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="another checkout to alternate the short-orbit row with")
    parser.add_argument("--rounds", type=int, default=10, help="alternations with --against (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.against is not None:
        return against(args.against.resolve(), args.rounds)
    f = parse(FATOU)
    steps = DEFAULT_CONFIG.max_iter
    program = compile_expr(f)
    checks = sum(program.checked)
    tests = sum(op in ("exp", "sin", "cos", "/") for op, _, _ in program.code)
    print(f"map {FATOU}: {checks + tests} lane reductions per evaluation "
          f"({checks} finiteness, {tests} argument or divisor)")
    print(f"{steps} steps; microseconds per step, best of {REPEATS}")
    print(f"{'lanes':>6} {'eval_array':>11} {'engine step':>12} {'bookkeeping':>12}")
    for nx, ny in LATTICES:
        z = seeds(nx, ny)
        if not (_run_batch(program, z, DEFAULT_CONFIG, ()).kind == _COMPLETED).all():
            sys.exit(f"error: not every orbit at {z.size} lanes ran the whole budget")
        wall, spent = min(run_seconds(program, z) for _ in range(REPEATS))
        step, evaluation = wall / steps, spent / steps
        print(f"{z.size:>6} {evaluation * 1e6:>11.1f} {step * 1e6:>12.1f} {(step - evaluation) * 1e6:>12.1f}")
    short_orbit_row()
    print(f"region search per call, microseconds, best of {REPEATS}: the whole search, and its disk part")
    entries = [get_example(eid) for eid, _ in list_examples()]
    maps = [str(m) for e in entries for m in (e.f, e.g) if m is not None] + list(SEARCH_EXTRA)
    for text in dict.fromkeys(maps):
        program = compile_expr(parse(text))
        regions = escape_regions(program) + form_regions(program)
        whole, disks = search_seconds(program), search_seconds(program, form_regions)
        print(f"{text:>20} {whole * 1e6:>8.0f} {disks * 1e6:>8.1f}  {[str(r) for r in regions]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
