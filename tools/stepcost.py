"""Cost of one orbit-engine step, in microseconds.

Usage, from any directory::

    python3 tools/stepcost.py

The package is imported from ``src/`` of the checkout that holds this
script, so running it from two checkouts compares them. Seeds are a
lattice in [0.5, 3.5] x [-3, 3], where every orbit of the Fatou map
``z+1+exp(-z)`` runs the whole budget of 1,000 steps (Re z grows by
about 1 a step), so each step of a run steps every lane. At 1, 288 and
3,600 lanes it prints, in microseconds per step:

- ``eval_array``: the time the engine spends in ``eval_array``, timed by
  a wrapper around the ``bungee.orbit.eval_array`` binding;
- ``engine step``: the whole ``_run_batch`` run divided by its 1,000
  steps, evaluation and about 0.3 us of wrapper included;
- ``bookkeeping``: the difference, what the engine itself adds per step.

All three come from the fastest of several runs, so a busy machine
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
from bungee import parse  # noqa: E402
from bungee.orbit import _COMPLETED, DEFAULT_CONFIG, _run_batch  # noqa: E402

FATOU = "z+1+exp(-z)"
LATTICES = ((1, 1), (12, 24), (60, 60))  # nx x ny seeds: 1, 288 and 3,600 lanes
REPEATS = 9


def seeds(nx: int, ny: int) -> np.ndarray:
    re = np.linspace(0.5, 3.5, nx)
    im = np.linspace(-3.0, 3.0, ny)
    return (re[None, :] + 1j * im[:, None]).ravel()


def run_seconds(root, z: np.ndarray) -> tuple[float, float]:
    """One engine run: its wall time, and the part spent in eval_array."""
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
        _run_batch(root, z, DEFAULT_CONFIG)
        return time.perf_counter() - start, spent
    finally:
        bungee.orbit.eval_array = inner


def main() -> int:
    f = parse(FATOU)
    steps = DEFAULT_CONFIG.max_iter
    print(f"map {FATOU}, {steps} steps; microseconds per step, best of {REPEATS}")
    print(f"{'lanes':>6} {'eval_array':>11} {'engine step':>12} {'bookkeeping':>12}")
    for nx, ny in LATTICES:
        z = seeds(nx, ny)
        if not (_run_batch(f.root, z, DEFAULT_CONFIG).kind == _COMPLETED).all():
            sys.exit(f"error: not every orbit at {z.size} lanes ran the whole budget")
        wall, spent = min(run_seconds(f.root, z) for _ in range(REPEATS))
        step, evaluation = wall / steps, spent / steps
        print(f"{z.size:>6} {evaluation * 1e6:>11.1f} {step * 1e6:>12.1f} {(step - evaluation) * 1e6:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
