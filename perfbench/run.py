#!/usr/bin/env python3
"""Benchmark of bungee's grid, relation and single-seed paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout; without it the
run stops with exit code 1 and prints no result. One run:

1. times set-up in fresh interpreters (``setup_s``; untraced runs only);
2. builds the workload's inputs from ``--seed``;
3. runs one warm-up job, discards its timing and reads the peak memory;
4. repeats the job for ``--seconds``, times a fixed reference loop between
   stretches of calls, and reports each call's time at the reference
   speed, taken over the whole run (see refspeed.py and ``call_seconds``);
5. checks the outputs, outside the timed region.

With ``--trace 1`` the first half of the time runs untraced and the
second half traced (see spans.py), giving the per-layer metrics and the
tracing overhead. The lines printed before the result give the machine
record and every metric by name with its unit; the last line is the
JSON result. A copy with the machine record, and a traced run's spans,
go to ``perfbench/_out/``. README.md says why each workload is there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

if not (SRC / "bungee" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'bungee'} not found; run from a checkout of bungee")
sys.path.insert(0, str(SRC))

import bungee  # noqa: E402
import bungee.cli  # noqa: E402
from refspeed import REF_IMPORT_S, REF_UNIT_S, Speed, import_seconds  # noqa: E402
from spans import Tracer, layer_metrics, trace_bungee, write_spans  # noqa: E402

if Path(bungee.__file__).resolve().parent != SRC / "bungee":
    sys.exit(f"error: imported bungee from {bungee.__file__}, not from {SRC}")

END_TO_END = {
    "wall_s": "s",
    "seeds_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "resolved_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "expr.eval_calls": "count",
    "expr.eval_lanes": "count",
    "expr.lanes_per_call": "lanes/call",
    "expr.eval_s": "s",
    "expr.lane_evals_per_s": "1/s",
    "expr.parse_s": "s",
    "expr.self_s": "s",
    "orbit.batch_calls": "count",
    "orbit.batch_seeds": "count",
    "orbit.steps_per_seed": "steps/seed",
    "orbit.batch_s": "s",
    "orbit.self_s": "s",
    "orbit.point_calls": "count",
    "orbit.point_s": "s",
    "orbit.point_self_s": "s",
    "grid.rows": "count",
    "grid.classify_s": "s",
    "grid.self_s": "s",
    "grid.parallelism": "ratio",
    "grid.encode_ppm_s": "s",
    "grid.boundary_s": "s",
    "grid.encode_pbm_s": "s",
    "grid.encode_json_s": "s",
    "grid.bytes_out": "bytes",
    "relations.verify_s": "s",
    "relations.self_s": "s",
    "relations.seeds_classified": "count",
    "relations.evaluated_share": "share",
    "cli.main_calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
    "trace.self_sum_share": "share",
    "ref.unit_s": "s",
}

MIN_JOBS = 3  # timed jobs in an untraced run, at least; a traced run times two per half
STRETCH_S = 0.25  # calls run between two samples of the reference loop, in seconds at least
SETUP_RUNS = 9
CHECKED_CELLS = 12  # cells per render cross-checked against classify_point
UNRESOLVED = int(bungee.Classification.UNRESOLVED)
BUNGEE = int(bungee.Classification.BUNGEE)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def machine_record() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# --- calls into the program -------------------------------------------------


@dataclass
class Call:
    """One call into bungee: exit code (2 for a raised exception), time."""

    code: int
    seconds: float
    stdout: str = ""
    stderr: str = ""
    value: object = None
    ref: float = REF_UNIT_S  # seconds per reference unit, around the call


def run_cli(argv: list[str], files=(), tracer: Tracer | None = None) -> Call:
    """Run ``bungee.cli.main(argv)`` in-process, capturing its output.

    Traced, the call is a ``cli.main`` span whose size is the bytes it
    wrote: standard output plus the ``files`` it produced.
    """
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span as rec:
        start = time.perf_counter()
        code = bungee.cli.main(argv)
        seconds = time.perf_counter() - start
        if tracer:
            rec["size"] = len(out.getvalue().encode()) + sum(
                Path(f).stat().st_size for f in files if Path(f).exists()
            )
    return Call(code, seconds, out.getvalue(), err.getvalue())


def run_api(fn) -> Call:
    start = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # counted as a failed operation, never skipped
        return Call(2, time.perf_counter() - start, stderr=repr(exc))
    return Call(0, time.perf_counter() - start, value=value)


# --- inputs -------------------------------------------------------------------


def shifted_spec(rng, window, nx: int, ny: int):
    """``window`` split into nx*ny cells, moved up by a seeded fraction of a
    cell. Not sideways: z+1+exp(-z) moves its Fatou orbits right by about 1
    a step, so whether one ends past the bound of 1000 (Unresolved) or just
    under it (Bounded) changes at a vertical line, and a sideways shift would
    move a whole column of cells across it."""
    re_min, re_max, im_min, im_max = window
    dy = (im_max - im_min) / ny * rng.random()
    return bungee.GridSpec(re_min, re_max, im_min + dy, im_max + dy, nx, ny)


def grid_arg(spec) -> str:
    return "--grid=" + ",".join(
        repr(float(x)) for x in (spec.re_min, spec.re_max, spec.im_min, spec.im_max)
    )


def sample_cells(rng, spec, k: int) -> list[tuple[int, int]]:
    flat = rng.choice(spec.nx * spec.ny, size=min(k, spec.nx * spec.ny), replace=False)
    return [(int(i) // spec.nx, int(i) % spec.nx) for i in flat]


def decode_ppm(blob: bytes) -> np.ndarray:
    """Codes of a P6 image written by render_ppm, row 0 at the bottom; -1 if
    a pixel has no palette color."""
    _magic, dims, _maxval, pixels = blob.split(b"\n", 3)
    nx, ny = (int(t) for t in dims.split())
    rgb = np.frombuffer(pixels, dtype=np.uint8).reshape(ny, nx, 3)[::-1]
    codes = np.full((ny, nx), -1, dtype=np.int8)
    for code, color in enumerate(bungee.grid.PALETTE):
        codes[(rgb == color).all(axis=-1)] = code
    return codes


# --- correctness checks (pure, so each can be fed a wrong expectation) -------


def cells_match(codes: np.ndarray, points: np.ndarray, cells, verdict) -> bool:
    """The raster agrees with ``verdict(point)`` at every sampled cell."""
    return all(int(codes[j, i]) == int(verdict(complex(points[j, i]))) for j, i in cells)


def rational_oracle(codes: np.ndarray, points: np.ndarray) -> bool:
    """1/z^2 is Bungee at every seed off the unit circle."""
    off_circle = np.abs(np.abs(points) - 1.0) > 1e-6
    return codes.shape == points.shape and bool(np.all(codes[off_circle] == BUNGEE))


def no_violations(report) -> bool:
    return len(report.violations) == 0


def verdicts_match(got: list[str], expected: list[str]) -> bool:
    return got == expected


def resolved(codes: np.ndarray) -> float:
    return float(np.mean(codes != UNRESOLVED))


# --- workloads ----------------------------------------------------------------


class Workload:
    """Inputs built from a seed; a job, the timed unit of work, is the list
    of calls that `calls` returns, run in order."""

    name = ""
    maps: tuple[str, ...] = ()  # expressions parsed during set-up
    seeds = 0  # seeds one job classifies
    threads = 1  # threads a call runs on, and the reference loop with it

    def calls(self, tracer: Tracer | None) -> list[Callable[[], Call]]:
        raise NotImplementedError

    def job(self, tracer: Tracer | None = None) -> list[Call]:
        return [call() for call in self.calls(tracer)]

    def verify(self, calls: list[Call]) -> tuple[list[tuple[str, bool]], float]:
        """Checks of one job's output, and its resolved share."""
        raise NotImplementedError


class RenderFatou(Workload):
    """The nx x ny grid is rendered in ``strips`` CLI calls, each a band of
    whole rows, so that one call is short next to the machine's changes of
    speed (refspeed.py); the bands tile the grid exactly."""

    name = "render_fatou"
    maps = ("z+1+exp(-z)",)

    def __init__(self, rng, workdir: Path, nx: int = 48, ny: int = 24, strips: int = 4):
        if ny % strips:
            raise ValueError("strips must divide ny")
        self.f = bungee.parse(self.maps[0])
        self.spec = shifted_spec(rng, (-3.0, 3.0, -3.0, 3.0), nx, ny)
        height = (self.spec.im_max - self.spec.im_min) / strips
        self.strips = [
            bungee.GridSpec(self.spec.re_min, self.spec.re_max, self.spec.im_min + k * height,
                            self.spec.im_min + (k + 1) * height, nx, ny // strips)
            for k in range(strips)
        ]
        self.seeds = nx * ny
        self.workers = self.threads = min(2, nproc())
        self.workdir = workdir
        self.ppms = [workdir / f"fatou-{k}.ppm" for k in range(strips)]
        self.cells = sample_cells(rng, self.spec, CHECKED_CELLS)

    def argv(self, spec, ppm: Path, workers: int) -> list[str]:
        return ["render", "--function", self.maps[0], grid_arg(spec), "--size",
                f"{spec.nx},{spec.ny}", "--ppm", str(ppm), "--workers", str(workers)]

    def calls(self, tracer):
        return [lambda spec=spec, ppm=ppm: run_cli(self.argv(spec, ppm, self.workers), [ppm], tracer)
                for spec, ppm in zip(self.strips, self.ppms)]

    def verify(self, calls):
        blobs = [ppm.read_bytes() for ppm in self.ppms]
        codes = np.vstack([decode_ppm(blob) for blob in blobs])  # strip 0 is the bottom
        points = np.vstack([spec.points() for spec in self.strips])
        ones = [self.workdir / f"fatou-{k}-one-worker.ppm" for k in range(len(self.strips))]
        one = [run_cli(self.argv(spec, ppm, 1)) for spec, ppm in zip(self.strips, ones)]
        return [
            ("one_worker_render_exit_0", all(c.code == 0 for c in one)),
            ("identical_to_one_worker", all(c.code == 0 for c in one)
             and [ppm.read_bytes() for ppm in ones] == blobs),
            ("cells_match_classify_point", cells_match(
                codes, points, self.cells, lambda z: bungee.classify_point(self.f, z))),
        ], resolved(codes)


class VerifyDisjoint(Workload):
    name = "verify_disjoint"
    maps = ("z+1+exp(-z)", "z+1+exp(-z)+2*pi*i")

    def __init__(self, rng, workdir: Path, n: int = 60):
        self.f, self.g = (bungee.parse(m) for m in self.maps)
        spec = shifted_spec(rng, (-3.0, 3.0, -3.0, 3.0), n, n)
        self.plan = bungee.SamplePlan.grid(spec.re_min, spec.re_max, spec.im_min, spec.im_max, n, n)
        self.seeds = n * n

    def calls(self, tracer):
        return [lambda: run_api(lambda: bungee.verify_relation(
            "DisjointKandBU", self.f, self.plan, g=self.g, workers=1))]

    def verify(self, calls):
        report = calls[0].value
        if report is None:
            return [("verify_completed", False)], 0.0
        return [("no_violations", no_violations(report))], (
            report.evaluated_count / report.sample_count)


class RenderRational(Workload):
    name = "render_rational"
    maps = ("1/pow(z,2)",)

    def __init__(self, rng, workdir: Path, n: int = 256):
        self.f = bungee.parse(self.maps[0])
        self.spec = shifted_spec(rng, (-2.0, 2.0, -2.0, 2.0), n, n)
        self.seeds = n * n
        self.files = [workdir / "rational.ppm", workdir / "rational.pbm", workdir / "rational.json"]
        self.cells = sample_cells(rng, self.spec, CHECKED_CELLS)

    def calls(self, tracer):
        ppm, pbm, js = self.files
        argv = ["render", "--function", self.maps[0], grid_arg(self.spec),
                "--size", f"{self.spec.nx},{self.spec.ny}",
                "--ppm", str(ppm), "--boundary", str(pbm), "--json", str(js)]
        return [lambda: run_cli(argv, self.files, tracer)]

    def verify(self, calls):
        doc = json.loads(self.files[2].read_text())
        codes = np.array(doc["codes"], dtype=np.int8).reshape(self.spec.ny, self.spec.nx)
        points = self.spec.points()
        return [
            ("cells_match_classify_point", cells_match(
                codes, points, self.cells, lambda z: bungee.classify_point(self.f, z))),
            ("bungee_off_unit_circle", rational_oracle(codes, points)),
        ], resolved(codes)


class ClassifyPoints(Workload):
    name = "classify_points"
    # (map, window, lattice nx x ny). The Fatou window holds only 1000-step
    # orbits that end past the bound of 1000 (Re z grows by about 1 a step),
    # so neither a job's work nor its verdicts depend on the seed; the exponential
    # map gets twice the calls so that p50 falls inside its group and p90
    # inside the Fatou group, not on the edge between two groups. A job is
    # kept short (20 calls) so that the reference loop, timed between jobs,
    # follows the machine's speed closely.
    LATTICES = (
        ("z+1+exp(-z)", (0.5, 3.5, -3.0, 3.0), (2, 2)),
        ("0.3*exp(z)", (-2.0, 2.0, -2.0, 2.0), (2, 4)),
        ("1/pow(z,2)", (-2.0, 2.0, -2.0, 2.0), (2, 2)),
        ("z+sin(z)", (-4.0, 4.0, -4.0, 4.0), (2, 2)),
    )
    maps = tuple(m for m, _, _ in LATTICES)

    def __init__(self, rng, workdir: Path, lattices=LATTICES):
        self.points = [
            (m, complex(z))
            for m, window, (nx, ny) in lattices
            for z in shifted_spec(rng, window, nx, ny).points().ravel()
        ]
        self.points = [self.points[i] for i in rng.permutation(len(self.points))]
        self.seeds = len(self.points)

    def calls(self, tracer):
        return [
            lambda m=m, z=z: run_cli(["classify", "--format", "json", "--function", m,
                                      f"--point={z.real!r},{z.imag!r}"], (), tracer)
            for m, z in self.points
        ]

    def verify(self, calls):
        got = []
        for call in calls:
            try:
                got.append(json.loads(call.stdout)["verdict"])
            except (ValueError, KeyError):
                got.append(None)
        expected = [None] * len(self.points)
        for m in self.maps:
            idx = [k for k, (mm, _) in enumerate(self.points) if mm == m]
            codes = bungee.classify_batch(bungee.parse(m), np.array([self.points[k][1] for k in idx]))
            for k, c in zip(idx, codes):
                expected[k] = str(bungee.Classification(int(c)))
        share = sum(v not in (None, "Unresolved") for v in got) / len(got)
        return [("verdicts_match_classify_batch", verdicts_match(got, expected))], share


WORKLOADS = {w.name: w for w in (RenderFatou, VerifyDisjoint, RenderRational, ClassifyPoints)}


# --- measurement ----------------------------------------------------------------

_SETUP_CODE = """
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bungee, bungee.cli
for text in sys.argv[2:]:
    bungee.parse(text)
with contextlib.redirect_stderr(io.StringIO()):
    code = bungee.cli.main([])  # builds the parser; no subcommand is a usage error
print(time.perf_counter() - start, code)
"""


def setup_seconds(maps: tuple[str, ...], runs: int) -> float:
    """Median time, in fresh interpreters, to import bungee, build the CLI
    parser and parse the workload's maps, each probe at the reference speed
    of a numpy import timed before and after it (refspeed.py)."""

    def probe() -> float:
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), *maps],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, code = proc.stdout.split()
        if code != "1":
            raise RuntimeError(f"set-up probe: CLI without a subcommand exited {code}")
        return float(seconds)

    probe()  # untimed: it warms the file cache
    times = []
    before = import_seconds()
    for _ in range(runs):
        seconds = probe()
        after = import_seconds()
        times.append(seconds * REF_IMPORT_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


@dataclass
class Job:
    wall: float
    calls: list[Call]
    spans: list  # the job's spans when traced


def timed_jobs(wl: Workload, seconds: float, min_jobs: int, speed: Speed,
               tracer: Tracer | None = None) -> list[Job]:
    """Jobs for ``seconds``, the reference loop sampled between them.

    Untraced, the loop is also sampled inside a job, after each stretch of
    calls of at least STRETCH_S, so that the speed is measured close to
    every call; a job's wall time leaves the samples out. Traced, it is
    sampled only between jobs, outside the job's span. Each call's ``ref``
    is the mean of the samples before and after its stretch.
    """
    jobs: list[Job] = []
    stretch: list[Call] = []  # calls run since the last sample
    before = speed.sample()

    def sample() -> None:
        nonlocal before
        after = speed.sample()
        for call in stretch:
            call.ref = (before + after) / 2
        stretch.clear()
        before = after

    end = time.perf_counter() + seconds
    while len(jobs) < min_jobs or time.perf_counter() < end:
        if tracer:
            tracer.spans.clear()
        calls: list[Call] = []
        paused = 0.0
        start = time.perf_counter()
        with tracer.span("bench.job") if tracer else contextlib.nullcontext():
            for call in wl.calls(tracer):
                calls.append(call())
                stretch.append(calls[-1])
                if not tracer and sum(c.seconds for c in stretch) >= STRETCH_S:
                    pause = time.perf_counter()
                    sample()
                    paused += time.perf_counter() - pause
        jobs.append(Job(time.perf_counter() - start - paused, calls,
                        list(tracer.spans) if tracer else []))
        if tracer:
            sample()
    if stretch:
        sample()
    return jobs


def call_seconds(jobs: list[Job]) -> list[float]:
    """Time of each call of a job at the reference speed, over the whole
    run: the call's total time over the total time of the reference unit
    around it, times REF_UNIT_S. The k-th call of every job does the same
    work."""
    return [REF_UNIT_S * sum(j.calls[k].seconds for j in jobs) / sum(j.calls[k].ref for j in jobs)
            for k in range(len(jobs[0].calls))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    """Warm up, time, check. Returns counts, metrics, and the traced jobs."""
    warm = Job(0.0, wl.job(), [])
    rss = peak_rss_mb()  # before the reference loop first runs: its arrays are not the program's
    speed = Speed(wl.threads)
    speed.fit(STRETCH_S)
    if trace:
        plain = timed_jobs(wl, seconds / 2, 2, speed)
        tracer = Tracer()
        trace_bungee(tracer)
        try:
            jobs = timed_jobs(wl, seconds / 2, 2, speed, tracer)
        finally:
            tracer.restore()
    else:
        plain = []
        jobs = timed_jobs(wl, seconds, MIN_JOBS, speed)
    try:
        checks, share = wl.verify(jobs[-1].calls)
    except Exception:  # unreadable output: one failed check, never a crash
        traceback.print_exc()
        checks, share = [("outputs_readable", False)], 0.0

    calls = [c for j in [warm, *plain, *jobs] for c in j.calls]
    failed_calls = [c for c in calls if c.code != 0]
    failed_checks = [name for name, ok in checks if not ok]
    if trace:
        per_job = [layer_metrics(j.spans, next(s for s in j.spans if s.name == "bench.job"))
                   for j in jobs]
        values = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
        values["trace.untraced_wall_s"] = statistics.median(j.wall for j in plain)
        values["trace.overhead"] = sum(call_seconds(jobs)) / sum(call_seconds(plain))
        values["ref.unit_s"] = statistics.median(speed.samples)
        units = PER_LAYER
    else:
        latencies = call_seconds(jobs)
        wall = sum(latencies)
        values = {
            "wall_s": wall,
            "seeds_per_s": wl.seeds / wall,
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * percentile(latencies, 90),
            "resolved_share": share,
            "peak_rss_mb": rss,
        }
        units = END_TO_END
    return {
        "attempted": len(calls) + len(checks),
        "failed": len(failed_calls) + len(failed_checks),
        "failed_calls": [(c.code, c.stderr.strip()[-300:]) for c in failed_calls],
        "failed_checks": failed_checks,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
        "job_walls": [j.wall for j in jobs],
        "call_refs": [[c.ref for c in j.calls] for j in jobs],
        "call_seconds": [[c.seconds for c in j.calls] for j in jobs],
        "ref_unit_s": statistics.median(speed.samples),
        "spans": [j.spans for j in jobs] if trace else [],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    cls = WORKLOADS[ns.workload]
    record = {**machine_record(), "workload": ns.workload, "seed": ns.seed,
              "seconds": ns.seconds, "trace": ns.trace}
    print("machine", json.dumps(record), flush=True)
    setup = None if ns.trace else setup_seconds(cls.maps, SETUP_RUNS)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = cls(np.random.default_rng(ns.seed), Path(tmp))
        res = measure(wl, ns.seconds, bool(ns.trace))
    if setup is not None:
        res["metrics"]["setup_s"] = {"value": setup, "unit": END_TO_END["setup_s"]}
    stem = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    spans = res.pop("spans")
    if spans:
        write_spans(OUT / f"spans-{stem}.csv", spans)

    for name, m in res["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"jobs {len(res['job_walls'])}; measured job time median "
          f"{statistics.median(res['job_walls'])!r} s; reference unit median "
          f"{res['ref_unit_s']!r} s (reported at {REF_UNIT_S} s)")
    print(f"failed_share {res['failed'] / res['attempted']!r} share "
          f"({res['failed']} of {res['attempted']} operations)")
    for code, err in res["failed_calls"]:
        print(f"failed call: exit {code}: {err}", file=sys.stderr)
    for name in res["failed_checks"]:
        print(f"failed check: {name}", file=sys.stderr)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps({**result, "machine": record,
                                                          "job_walls": res["job_walls"],
                                                          "call_refs": res["call_refs"],
                                                          "call_seconds": res["call_seconds"]},
                                                         indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
