"""Smoke check of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric BENCHMARK.json names prints with its unit,
that traced spans nest inside their parents and that self times add up
to the job's wall time, and that each correctness check fails when it is
fed a wrong expectation.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from refspeed import REF_SHARE  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times, trace_bungee  # noqa: E402

import bungee  # noqa: E402  (run.py put src/ on the path)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "render_fatou": {"nx": 4, "ny": 4, "strips": 2},
    "verify_disjoint": {"n": 6},
    "render_rational": {"n": 16},
    "classify_points": {
        "lattices": tuple((m, w, (1, 1)) for m, w, _ in run.ClassifyPoints.LATTICES)
    },
}


def tiny(name: str):
    cls = run.WORKLOADS[name]

    class Tiny(cls):
        def __init__(self, rng, workdir):
            super().__init__(rng, workdir, **TINY[name])

    return Tiny


def make(name: str, workdir: Path, seed: int = 0):
    return tiny(name)(np.random.default_rng(seed), workdir)


def traced_job(wl):
    tracer = Tracer()
    trace_bungee(tracer)
    try:
        return run.timed_jobs(wl, 0.0, 1, run.Speed(), tracer)[0]
    finally:
        tracer.restore()


def test_workloads_and_units_match_benchmark_json():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_prints_with_unit(name, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[1:-1]}
    for metric, unit in listed.items():
        assert printed[metric] == unit
        assert isinstance(result["metrics"][metric]["value"], (int, float))
    if trace == "0" and name in ("verify_disjoint", "render_rational"):  # one call a job
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["latency_p50_ms"] == m["latency_p90_ms"] == pytest.approx(1e3 * m["wall_s"])


def test_reference_speed_cancels_the_machine_speed():
    # The same work, then on a machine half as fast for one of two jobs: the
    # call and the reference loop around it both take twice as long, and the
    # reported time stays the same.
    def job(seconds, ref):
        return run.Job(seconds, [run.Call(0, seconds, ref=ref)], [])

    fast = run.call_seconds([job(1.5, run.REF_UNIT_S), job(1.5, run.REF_UNIT_S)])
    slow = run.call_seconds([job(1.5, run.REF_UNIT_S), job(3.0, 2 * run.REF_UNIT_S)])
    assert fast == pytest.approx([1.5]) and slow == pytest.approx(fast)
    speed = run.Speed()
    speed.fit(work_seconds=4 * run.REF_UNIT_S / REF_SHARE)
    assert speed.units >= 1 and len(speed.samples) == 1 and speed.sample() > 0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_spans_nest_inside_parents(name, tmp_path):
    job = traced_job(make(name, tmp_path))
    assert bungee.orbit.eval_array is bungee.expr.eval_array  # wrappers removed
    by_sid = {s.sid: s for s in job.spans}
    roots = [s for s in job.spans if s.parent is None]
    assert [r.name for r in roots] == ["bench.job"]
    assert len(job.spans) > 2
    for s in job.spans:
        if s.parent is not None:
            p = by_sid[s.parent]
            assert p.start <= s.start <= s.end <= p.end, (p, s)
    metrics = layer_metrics(job.spans, roots[0])
    assert metrics["trace.self_sum_share"] == pytest.approx(1.0, abs=0.05)


def test_self_times_split_overlapping_threads():
    spans = [
        Span(1, "grid.classify_grid", 0.0, 10.0, None, 1, 4.0, None),
        Span(2, "orbit.classify_batch", 1.0, 5.0, 1, 2, 3.0, 8),
        Span(3, "orbit.classify_batch", 3.0, 7.0, 1, 3, 3.0, 8),
    ]
    assert dict(self_times(spans)) == {1: 4.0, 2: 3.0, 3: 3.0}


def test_render_checks_fail_on_wrong_output(tmp_path):
    wl = make("render_fatou", tmp_path)
    calls = wl.job(None)
    checks, _ = wl.verify(calls)
    assert all(ok for _, ok in checks)
    for spec, ppm in zip(wl.strips, wl.ppms):
        blob = ppm.read_bytes()
        header_len = len(blob) - 3 * spec.nx * spec.ny
        wrong = (run.decode_ppm(blob) + 1) % 4  # every cell in another class
        ppm.write_bytes(blob[:header_len] + bungee.grid.PALETTE[wrong[::-1]].tobytes())
    checks = dict(wl.verify(calls)[0])
    assert not checks["identical_to_one_worker"]
    assert not checks["cells_match_classify_point"]


def test_rational_checks_fail_on_wrong_output(tmp_path):
    wl = make("render_rational", tmp_path)
    calls = wl.job(None)
    assert all(ok for _, ok in wl.verify(calls)[0])
    doc = json.loads(wl.files[2].read_text())
    doc["codes"] = [int(bungee.Classification.ESCAPING)] * len(doc["codes"])
    wl.files[2].write_text(json.dumps(doc))
    checks = dict(wl.verify(calls)[0])
    assert not checks["cells_match_classify_point"]
    assert not checks["bungee_off_unit_circle"]


def test_verify_check_fails_on_a_violation(tmp_path):
    wl = make("verify_disjoint", tmp_path)
    calls = wl.job(None)
    assert dict(wl.verify(calls)[0]) == {"no_violations": True}
    report = calls[0].value
    fake = dataclasses.replace(report, violations=(object(),))
    assert dict(wl.verify([run.Call(0, 0.0, value=fake)])[0]) == {"no_violations": False}
    assert dict(wl.verify([run.Call(2, 0.0)])[0]) == {"verify_completed": False}


def test_point_checks_and_exit_codes_count_failures(tmp_path, monkeypatch):
    wl = make("classify_points", tmp_path)
    calls = wl.job(None)
    assert dict(wl.verify(calls)[0]) == {"verdicts_match_classify_batch": True}
    flipped = [
        dataclasses.replace(c, stdout=c.stdout.replace('"verdict": "', '"verdict": "Not'))
        for c in calls
    ]
    assert dict(wl.verify(flipped)[0]) == {"verdicts_match_classify_batch": False}

    monkeypatch.setattr(bungee.cli, "main", lambda argv: 2)
    res = run.measure(wl, 0.0, trace=False)
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]


def test_oracle_and_cell_checks_reject_wrong_expectations():
    points = bungee.GridSpec(-2, 2, -2, 2, 8, 8).points()
    codes = np.full(points.shape, run.BUNGEE, dtype=np.int8)
    assert run.rational_oracle(codes, points)
    codes[0, 0] = int(bungee.Classification.ESCAPING)
    assert not run.rational_oracle(codes, points)
    cells = [(0, 0), (3, 5)]
    assert run.cells_match(codes, points, cells, lambda z: codes[0, 0] if z == points[0, 0] else run.BUNGEE)
    assert not run.cells_match(codes, points, cells, lambda z: run.BUNGEE)
    assert not run.verdicts_match(["Bounded"], ["Escaping"])


def test_setup_probe_runs_in_a_fresh_interpreter():
    assert 0 < run.setup_seconds(("z+1+exp(-z)",), runs=1) < 30


def test_unreadable_output_is_a_failed_check(tmp_path, monkeypatch):
    wl = make("render_rational", tmp_path)
    monkeypatch.setattr(wl, "verify", lambda calls: json.loads(""))
    res = run.measure(wl, 0.0, trace=False)
    assert res["failed_checks"] == ["outputs_readable"] and res["failed"] == 1
