"""Acceptance suite: the eleven end-to-end checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion. Each test prints its measured values before asserting so
failures carry the numbers. Oracles (bisection roots, hand-built sample
sets, analytic deviations) are computed here, independently of the
library paths under test.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import time

import numpy as np
from hypothesis import assume, given, settings

from bungee import (
    CertifiedBounded,
    CertifiedEscape,
    Classification,
    ClassifierConfig,
    SamplePlan,
    check_permutable,
    classify_batch,
    classify_point,
    compose,
    evaluate,
    format_expr,
    iterate_orbit,
    parse,
    verify_relation,
)
from bungee.cli import main as cli_main

from strategies import expression_strings, sample_points

SINE = parse("z+sin(z)")
SINE_SHIFTED = parse("z+sin(z)+2*pi")
FATOU = parse("z+1+exp(-z)")
FATOU_SHIFTED = parse("z+1+exp(-z)+2*pi*i")
SCALED_EXP = parse("0.3*exp(z)")

# A longer budget with lower radii, under which the sine pair's drifting
# orbit once resolved; it is certified under any config now.
SINE_CFG = ClassifierConfig(max_iter=2000, r_bound=100.0, r_esc=1e3)


def bisect(h, lo: float, hi: float) -> float:
    flo = h(lo)
    assert flo * h(hi) < 0
    for _ in range(200):
        mid = (lo + hi) / 2
        if flo * h(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_criterion_01_sine_pair_orbit_oracle():
    started = time.perf_counter()
    z, drift_dev = 0j, 0.0
    for n in range(1, 31):
        z = evaluate(SINE_SHIFTED, z)
        drift_dev = max(drift_dev, abs(z - 2 * math.pi * n))
    # 2*pi lies on the real ray the map provably moves right by at least
    # 2*pi - 1 a step, so the orbit of 0 is certified at its first checkpoint.
    rec = iterate_orbit(SINE_SHIFTED, 0, SINE_CFG)
    assert rec.termination == CertifiedEscape(1, "z in [0.0625, inf)")
    verdict_g = classify_point(SINE_SHIFTED, 0, SINE_CFG)
    verdict_f = classify_point(SINE, 0, SINE_CFG)
    fixed_verdicts = [
        classify_point(SINE, k * math.pi, SINE_CFG) for k in range(-3, 4)
    ]
    elapsed = time.perf_counter() - started
    print(f"criterion 1: drift_dev={drift_dev:.3e} g(0)={verdict_g} "
          f"f(0)={verdict_f} elapsed={elapsed:.2f}s")
    assert drift_dev <= 1e-6
    assert verdict_g == Classification.ESCAPING
    assert verdict_f == Classification.BOUNDED
    assert all(v == Classification.BOUNDED for v in fixed_verdicts)
    assert elapsed < 1.0


def test_criterion_02_rational_bungee_oracle():
    started = time.perf_counter()
    f = parse("1/pow(z,2)")
    rng = np.random.default_rng(20260819)
    radii = 0.1 + 0.8 * rng.random(500)
    angles = 2 * math.pi * rng.random(500)
    annulus = radii * np.exp(1j * angles)
    verdicts = classify_batch(f, annulus)
    bungee_rate = float(np.mean(verdicts == int(Classification.BUNGEE)))
    bounded_count = int(np.sum(verdicts == int(Classification.BOUNDED)))
    circle = np.exp(2j * math.pi * np.arange(64) / 64)
    circle_verdicts = classify_batch(f, circle)
    circle_bounded = int(np.sum(circle_verdicts == int(Classification.BOUNDED)))
    elapsed = time.perf_counter() - started
    print(f"criterion 2: bungee_rate={bungee_rate:.3f} bounded={bounded_count} "
          f"circle_bounded={circle_bounded}/64 elapsed={elapsed:.2f}s")
    assert bungee_rate >= 0.95
    assert bounded_count == 0
    assert circle_bounded == 64
    assert elapsed < 1.0


def test_criterion_03_exponential_family_basin():
    q = bisect(lambda x: 0.3 * math.exp(x) - x, 0.0, 1.0)
    worst = 0.0
    for x in np.linspace(-2, 0, 17):
        rec = iterate_orbit(SCALED_EXP, complex(x))
        assert classify_point(SCALED_EXP, complex(x)) == Classification.BOUNDED
        # The orbit ends in the trap box about q, which the map provably
        # sends into itself, before it has settled; continued by hand from
        # its last iterate, it settles onto q.
        assert isinstance(rec.termination, CertifiedBounded)
        z = complex(rec.values[-1])
        for _ in range(64):
            z = 0.3 * cmath.exp(z)
        worst = max(worst, abs(z - q))
    escape_verdict = classify_point(SCALED_EXP, 3)
    print(f"criterion 3: q={q:.12f} max_fixed_point_dev={worst:.3e} "
          f"seed3={escape_verdict}")
    assert worst <= 1e-6
    assert escape_verdict == Classification.ESCAPING


def test_criterion_04_permutability():
    plan = SamplePlan.grid(-2, 2, -2, 2, 20, 10)
    commuting = check_permutable(FATOU, FATOU_SHIFTED, plan)
    clashing = check_permutable(parse("exp(z)"), parse("exp(z)+2*pi*i"), plan)
    print(f"criterion 4: fatou_max_dev={commuting.max_dev:.3e} "
          f"exp_max_dev={clashing.max_dev:.3f}")
    assert plan.sample_count == 200
    assert commuting.max_dev < 1e-9 and commuting.permutable
    assert clashing.max_dev > 1 and not clashing.permutable


def test_criterion_05_disjoint_bounded_and_bungee_sets():
    started = time.perf_counter()
    report = verify_relation(
        "DisjointKandBU",
        FATOU,
        SamplePlan.grid(-3, 3, -3, 3, 200, 200),
        g=FATOU_SHIFTED,
        workers=4,
    )
    elapsed = time.perf_counter() - started
    print(f"criterion 5: evaluated={report.evaluated_count}/40000 "
          f"violations={len(report.violations)} elapsed={elapsed:.1f}s")
    assert len(report.violations) == 0
    assert elapsed < 60.0


def test_criterion_06_kswap_equivalence():
    report = verify_relation(
        "KSwap",
        SINE,
        SamplePlan.grid(-1, 1, -1, 1, 10, 10),
        g=SINE_SHIFTED,
        cfg=SINE_CFG,
    )
    resolved_share = report.evaluated_count / report.sample_count
    print(f"criterion 6: resolved={resolved_share:.0%} "
          f"violation_rate={report.violation_rate}")
    assert report.violation_rate == 0.0
    assert resolved_share >= 0.80


def test_criterion_07_conjugacy_transport():
    plan = SamplePlan.grid(-2, 2, -2, 2, 25, 20)
    transported = verify_relation("ConjugacyTransport", SCALED_EXP, plan, a=2, b=1)
    identity = verify_relation("ConjugacyTransport", SCALED_EXP, plan, a=1, b=0)
    agreement = 1.0 - transported.violation_rate
    print(f"criterion 7: samples={plan.sample_count} agreement={agreement:.4f} "
          f"identity_rate={identity.violation_rate}")
    assert plan.sample_count == 500
    assert agreement >= 0.99
    assert identity.violation_rate == 0.0


def test_criterion_08_strip_containment():
    report = verify_relation(
        "StripContainment",
        parse("exp(-z-1)+1"),
        SamplePlan.grid(-4, 4, -4, 4, 100, 100),
        workers=4,
    )
    print(f"criterion 8: evaluated={report.evaluated_count} "
          f"violation_rate={report.violation_rate:.4f}")
    assert report.violation_rate <= 0.01


def test_criterion_09_escaping_invariance():
    plan = SamplePlan.grid(-2, 2, -2, 2, 20, 10)
    report = verify_relation(
        "EscapingInvariance",
        FATOU,
        plan,
        g=FATOU_SHIFTED,
        cfg=ClassifierConfig(max_iter=2000, r_bound=100.0, r_esc=1e3),
        no_finite_asymptotic_values=True,
        hypothesis_source="registry:ex_exp_translate",
    )
    print(f"criterion 9: samples={plan.sample_count} "
          f"evaluated={report.evaluated_count} violations={len(report.violations)}")
    assert plan.sample_count == 200
    assert report.evaluated_count > 0
    assert len(report.violations) == 0


def test_criterion_10_render_determinism(tmp_path):
    digests = []
    for workers in ("1", "8"):
        path = tmp_path / f"disjoint-{workers}.ppm"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(
                [
                    "render",
                    "--function",
                    format_expr(FATOU),
                    "--grid=-3,3,-3,3",
                    "--size",
                    "256,256",
                    "--ppm",
                    str(path),
                    "--workers",
                    workers,
                ]
            )
        assert code == 0, err.getvalue()
        digests.append(path.read_bytes())
    identical = digests[0] == digests[1]
    print(f"criterion 10: bytes={len(digests[0])} identical={identical}")
    assert len(digests[0]) == len(b"P6\n256 256\n255\n") + 3 * 256 * 256
    assert identical


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(expression_strings())
def test_criterion_11a_round_trip_thousandfold(text):
    tree = parse(text)
    assert parse(format_expr(tree)) == tree


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(expression_strings(), expression_strings(), sample_points())
def test_criterion_11b_composition_soundness_thousandfold(ftext, gtext, z):
    f, g = parse(ftext), parse(gtext)
    inner = evaluate(g, z)
    assume(isinstance(inner, complex))
    want = evaluate(f, inner)
    assume(isinstance(want, complex))
    got = evaluate(compose(f, g), z)
    assert isinstance(got, complex)
    assert abs(got - want) <= 1e-10 * (1 + abs(want))
