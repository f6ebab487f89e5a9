"""Cost of one orbit-engine step, in microseconds.

Usage, from any directory::

    python3 tools/stepcost.py

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
whose orbits all end within a few dozen steps, by an evaluation event, the
guard or a cycle. It prints microseconds per run and per engine step (the
run's time over the steps its chunks take, each chunk running until its
last lane ends).

Last, for every map of the catalog, it prints the time of the
escape-region search (`bungee.certify.escape_regions`), which runs once
per ``classify_batch`` or ``iterate_orbit`` call, and the regions found.

All of them come from the fastest of several runs, so a busy machine
inflates them less than a mean would. The machine's speed can still
drift between invocations: compare two checkouts by running them
alternately, a few times each.
"""

from __future__ import annotations

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
from bungee.certify import escape_regions  # noqa: E402
from bungee.expr import compile_expr  # noqa: E402
from bungee.orbit import _CHUNK, _COMPLETED, DEFAULT_CONFIG, _run_batch  # noqa: E402

FATOU = "z+1+exp(-z)"
LATTICES = ((1, 1), (12, 24), (60, 60))  # nx x ny seeds: 1, 288 and 3,600 lanes
RATIONAL = "1/pow(z,2)"
RATIONAL_GRID = GridSpec(-2.0, 2.0, -2.0, 2.0, 256, 256)  # the window of a rational render
REPEATS = 9


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


def search_seconds(program) -> float:
    """The fastest of several runs of the region search for one map."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        escape_regions(program)
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
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
    print(f"escape-region search per call, microseconds, best of {REPEATS}")
    entries = [get_example(eid) for eid, _ in list_examples()]
    for text in dict.fromkeys(str(m) for e in entries for m in (e.f, e.g) if m is not None):
        program = compile_expr(parse(text))
        print(f"{text:>20} {search_seconds(program) * 1e6:>8.0f}  {[str(r) for r in escape_regions(program)]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
