"""Span tracing for the benchmark's traced mode.

`Tracer.wrap` replaces a function on the module that calls it (for
example ``bungee.orbit.eval_array``, the name the orbit engine binds) by
a wrapper that records one span per call: name, start, end, parent span,
thread, and the thread's CPU time during the call. Spans are kept in
memory; `write_spans` saves them.

`self_times` splits every instant of a job's wall time evenly among the
spans active at that instant that have no active child. A span's self
time is its share. Single-threaded, that is its duration minus the time
its children cover; with worker threads the shares still add up to the
job's wall time, which a plain duration-minus-children sum would exceed.

`layer_metrics` turns one job's spans into the per-layer metrics named in
BENCHMARK.json. A span's layer is the part of its name before the dot.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    cpu: float  # CPU time of the calling thread during the span
    size: object  # what the call measured: lanes, seeds, bytes, ...


class Tracer:
    """Records spans for wrapped calls; create it on the main thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # A call on a thread with no open span was started by a worker pool
        # that a traced call on the main thread created; that call is its parent.
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, Optional[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; the yielded dict's "size" is kept."""
        stack, sid, parent = self._open()
        rec = {"size": None}
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), cpu, rec["size"])
            )

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Trace calls of ``owner.attr`` as spans called ``name``.

        ``measure(args, result)`` gives the span's size. Nothing is traced
        when ``owner`` has no such attribute.
        """
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        spans = self.spans
        perf_counter = time.perf_counter
        thread_time = time.thread_time
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            size = None
            cpu = thread_time()
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
                if measure is not None:
                    size = measure(args, result)
                return result
            finally:
                end = perf_counter()
                cpu = thread_time() - cpu
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, get_ident(), cpu, size))

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's share of wall time (see the module docstring)."""
    parent = {s.sid: s.parent for s in spans}
    events = [(s.start, 1, s.sid) for s in spans] + [(s.end, 0, s.sid) for s in spans]
    events.sort()  # at equal times an end sorts before a start
    share: dict[int, float] = defaultdict(float)
    active: set[int] = set()
    leaves: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    last = events[0][0] if events else 0.0
    for t, is_start, sid in events:
        if leaves and t > last:
            part = (t - last) / len(leaves)
            for leaf in leaves:
                share[leaf] += part
        last = t
        p = parent[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if p in active:
                open_children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return share


def _lanes(args, result) -> int:
    return int(np.size(args[1]))


def _length(args, result) -> int:
    return len(result)


def _evaluated(args, result) -> tuple[int, int]:
    return result.evaluated_count, result.sample_count


# Every binding through which one layer calls another in the workloads:
# (module, attribute, span name, what the span measures). The benchmark
# calls verify_relation through the package namespace, so it wraps that.
BINDINGS = (
    ("bungee.cli", "parse", "expr.parse", None),
    ("bungee.orbit", "eval_array", "expr.eval_array", _lanes),
    ("bungee.relations", "eval_array", "expr.eval_array", _lanes),
    ("bungee.grid", "classify_batch", "orbit.classify_batch", _lanes),
    ("bungee.relations", "classify_batch", "orbit.classify_batch", _lanes),
    ("bungee.cli", "iterate_orbit", "orbit.iterate_orbit", None),
    ("bungee.cli", "classify", "orbit.classify", None),
    ("bungee.cli", "classify_grid", "grid.classify_grid", None),
    ("bungee.cli", "render_ppm", "grid.render_ppm", _length),
    ("bungee.cli", "extract_boundary", "grid.extract_boundary", None),
    ("bungee.cli", "render_pbm", "grid.render_pbm", _length),
    ("bungee.cli", "raster_to_json", "grid.raster_to_json", _length),
    ("bungee", "verify_relation", "relations.verify_relation", _evaluated),
)


def trace_bungee(tracer: Tracer) -> None:
    """Wrap every binding in `BINDINGS`; undo with ``tracer.restore()``."""
    for module, attr, name, measure in BINDINGS:
        tracer.wrap(importlib.import_module(module), attr, name, measure)


LAYERS = ("expr", "orbit", "grid", "relations", "cli")

_ENCODERS = {
    "grid.render_ppm": "grid.encode_ppm_s",
    "grid.extract_boundary": "grid.boundary_s",
    "grid.render_pbm": "grid.encode_pbm_s",
    "grid.raster_to_json": "grid.encode_json_s",
}

_POINT_CALLS = ("orbit.iterate_orbit", "orbit.classify")


def layer_metrics(spans: list[Span], job: Span) -> dict[str, float]:
    """Per-layer metrics of one job; ``spans`` are the job's spans.

    Times are seconds. ``*_s`` busy times add span durations over all
    threads; ``*self_s`` are shares of wall time from `self_times`.
    ``grid.parallelism`` divides the CPU time of the row batches by the
    grid's wall time: a thread waiting for the interpreter lock uses no
    CPU, so worker threads that only take turns read about 1.
    """
    by_sid = {s.sid: s for s in spans}
    share = self_times(spans)

    def named(*names: str) -> list[Span]:
        return [s for s in spans if s.name in names]

    def under(s: Span, name: str) -> bool:
        p = s.parent
        while p is not None and p in by_sid:
            if by_sid[p].name == name:
                return True
            p = by_sid[p].parent
        return False

    def busy(group: list[Span]) -> float:
        return sum(s.end - s.start for s in group)

    def self_of(group: list[Span]) -> float:
        return sum(share[s.sid] for s in group)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def total(group: list[Span]) -> int:
        return sum(s.size or 0 for s in group)

    evals = named("expr.eval_array")
    batches = named("orbit.classify_batch")
    batch_ids = {s.sid for s in batches}
    points = named(*_POINT_CALLS)
    grids = named("grid.classify_grid")
    grid_batches = [s for s in batches if under(s, "grid.classify_grid")]
    verifies = named("relations.verify_relation")
    mains = named("cli.main")

    eval_lanes = total(evals)
    eval_s = busy(evals)
    batch_seeds = total(batches)
    batch_lanes = total([s for s in evals if s.parent in batch_ids])
    evaluated = sum(s.size[0] for s in verifies if s.size)
    sampled = sum(s.size[1] for s in verifies if s.size)

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += share[s.sid]
    wall = job.end - job.start

    m = {
        "expr.eval_calls": len(evals),
        "expr.eval_lanes": eval_lanes,
        "expr.lanes_per_call": ratio(eval_lanes, len(evals)),
        "expr.eval_s": eval_s,
        "expr.lane_evals_per_s": ratio(eval_lanes, eval_s),
        "expr.parse_s": busy(named("expr.parse")),
        "expr.self_s": layer_self["expr"],
        "orbit.batch_calls": len(batches),
        "orbit.batch_seeds": batch_seeds,
        "orbit.steps_per_seed": ratio(batch_lanes, batch_seeds),
        "orbit.batch_s": busy(batches),
        "orbit.self_s": self_of(batches),
        "orbit.point_calls": len(named("orbit.iterate_orbit")),
        "orbit.point_s": busy(points),
        "orbit.point_self_s": self_of(points),
        "grid.rows": len(grid_batches),
        "grid.classify_s": busy(grids),
        "grid.self_s": layer_self["grid"],
        "grid.parallelism": ratio(sum(s.cpu for s in grid_batches), busy(grids)),
        "grid.bytes_out": total(named(*_ENCODERS)),
        "relations.verify_s": busy(verifies),
        "relations.self_s": layer_self["relations"],
        "relations.seeds_classified": total(
            [s for s in batches if under(s, "relations.verify_relation")]
        ),
        "relations.evaluated_share": ratio(evaluated, sampled),
        "cli.main_calls": len(mains),
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": total(mains),
        "trace.wall_s": wall,
        "trace.self_sum_share": ratio(sum(layer_self[k] for k in LAYERS), wall),
    }
    for span_name, metric in _ENCODERS.items():
        m[metric] = busy(named(span_name))
    return m


def write_spans(path: Path, jobs: list[list[Span]]) -> None:
    """Save spans as CSV, one row per span, numbered by job."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["job", *Span._fields])
        for j, spans in enumerate(jobs):
            out.writerows([j, *s] for s in spans)
