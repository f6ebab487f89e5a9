"""Machine speed, measured with a fixed reference loop.

On a shared machine the speed of a core changes by up to 2x, in phases
from under a second to minutes, as other tenants come and go. A fixed
reference loop, timed right before and right after each piece of work,
measures the speed of the moment. The benchmark rescales each timing to
the speed at which one reference unit takes REF_UNIT_S seconds:

    reported = measured * REF_UNIT_S / (time of one reference unit around it)

summed over a run: the total measured time of a piece of work over the
total time of the reference unit around it.

Set-up, mostly the import of numpy in a fresh interpreter, is file and
loader work, which slows differently from the loop. Its reference is a
fresh interpreter that imports numpy, timed from outside
(``import_seconds``), and set-up is reported at the speed at which that
takes REF_IMPORT_S seconds.

The references are the benchmark's own code and numpy, so a change to
bungee moves the reported times and leaves the references alone.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import numpy as np

REF_UNIT_S = 0.02  # about one unit's time on a 2-core Xeon VM in a fast phase
REF_SHARE = 0.2  # reference time next to a piece of work, as a share of the work's time
REF_IMPORT_S = 0.1  # about the time to start python and import numpy, on the same machine

_REF_RNG = np.random.default_rng(12345)
_REF_SMALL = _REF_RNG.random(2048) + 1j * _REF_RNG.random(2048)
_REF_BIG = _REF_RNG.random(1 << 17) + 1j * _REF_RNG.random(1 << 17)
_REF_ROWS = [[i, i * 0.5, str(i)] for i in range(400)]


def ref_unit() -> int:
    """One unit of fixed work, in four about equal parts, after what the
    jobs spend their time on: numpy calls on one lane (the single-seed
    path), on a few thousand lanes (batches), on a large array (encoders
    and grids), and plain Python with JSON encoding (the CLI)."""
    one = _REF_SMALL[:1]
    for _ in range(1000):
        one = np.where(np.abs(one) < 1e3, np.exp(-one) * 0.5 + one + 1, one)
    z = _REF_SMALL
    for _ in range(75):
        z = np.where(np.abs(z) < 1e3, np.exp(-z) * 0.5 + z + 1, z)
    w = np.exp(-_REF_BIG) + _REF_BIG
    codes = (np.abs(w) > 1).astype(np.int8)
    s = 0
    for i in range(60000):
        s += i * i % 7
    text = json.dumps(_REF_ROWS) + json.dumps(codes[:8192].tolist())
    return s + len(text) + int(codes.sum()) + int(abs(one[0]) + abs(z[0]) > 0)


class Speed:
    """Times the reference loop; ``sample()`` gives seconds per unit.

    With ``threads`` > 1 the loop runs in that many threads at once, as a
    worker pool runs the work it is compared with, so that the sample
    feels what the pool feels: turns at the interpreter lock and the
    state of every core it uses."""

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.units = 1  # units per thread in one sample
        self.samples: list[float] = []

    def _run_units(self) -> None:
        for _ in range(self.units):
            ref_unit()

    def sample(self) -> float:
        start = time.perf_counter()
        if self.threads == 1:
            self._run_units()
        else:
            pool = [threading.Thread(target=self._run_units) for _ in range(self.threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
        per_unit = (time.perf_counter() - start) / (self.units * self.threads)
        self.samples.append(per_unit)
        return per_unit

    def fit(self, work_seconds: float) -> None:
        """Size a sample to REF_SHARE of a piece of work of ``work_seconds``."""
        unit = self.sample()
        self.units = max(1, round(REF_SHARE * work_seconds / (unit * self.threads)))


def import_seconds() -> float:
    """Time to run a fresh interpreter that imports numpy: the reference for set-up."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, timeout=120,
                   check=True)
    return time.perf_counter() - start
