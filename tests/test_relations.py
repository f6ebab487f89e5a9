"""Permutability checks and the set-relation verifier."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

import bungee.relations
from bungee import (
    Classification,
    ClassifierConfig,
    RelationId,
    SamplePlan,
    check_permutable,
    classify_batch,
    parse,
    verify_relation,
)
from bungee.expr import affine_post, conjugate
from bungee.orbit import DEFAULT_CONFIG
from bungee.relations import (
    PERMUTABILITY_TOL,
    RelationReport,
    Violation,
    _RELATIONS,
    _column,
)

DRIFT_CFG = ClassifierConfig(max_iter=2000, r_bound=100.0, r_esc=1e3)

SINE = parse("z+sin(z)")
SINE_SHIFTED = parse("z+sin(z)+2*pi")
FATOU = parse("z+1+exp(-z)")
FATOU_SHIFTED = parse("z+1+exp(-z)+2*pi*i")


def test_relation_vocabulary():
    assert {r.value for r in RelationId} == {
        "AffineBungeeEqual",
        "BuSwap",
        "KIntersectionIntoComposite",
        "EscapingInvariance",
        "EscapingUnion",
        "BungeeComposite",
        "KSwap",
        "ConjugacyTransport",
        "DisjointKandBU",
        "StripContainment",
    }


# --- sample plans --------------------------------------------------------


def test_grid_plan_yields_cell_centers():
    plan = SamplePlan.grid(-1, 1, -1, 1, 2, 2)
    assert plan.sample_count == 4
    assert sorted(plan.seeds().tolist(), key=lambda z: (z.imag, z.real)) == [
        -0.5 - 0.5j,
        0.5 - 0.5j,
        -0.5 + 0.5j,
        0.5 + 0.5j,
    ]


def test_explicit_plan_keeps_points():
    plan = SamplePlan.explicit([1, 2j, -0.5 + 0.5j])
    assert plan.sample_count == 3
    assert plan.seeds().tolist() == [1 + 0j, 2j, -0.5 + 0.5j]


@pytest.mark.parametrize(
    "build",
    [
        lambda: SamplePlan.explicit([]),
        lambda: SamplePlan.grid(1, 0, 0, 1, 2, 2),
        lambda: SamplePlan.grid(0, 1, 0, 1, 0, 2),
        lambda: SamplePlan.explicit([complex("inf")]),
        lambda: SamplePlan(kind="banana"),
        lambda: SamplePlan(kind="grid"),
    ],
)
def test_sample_plan_validation(build):
    with pytest.raises(ValueError):
        build()


# --- check_permutable ----------------------------------------------------


def test_self_commutation_has_zero_deviation():
    plan = SamplePlan.explicit([0, 1, -0.5 + 0.25j, 2j])
    result = check_permutable(SINE, SINE, plan)
    assert result.max_dev == 0.0
    assert result.permutable
    assert result.checked == 4 and result.skipped == 0


def test_translate_pair_commutes():
    plan = SamplePlan.grid(-2, 2, -2, 2, 20, 10)
    result = check_permutable(FATOU, FATOU_SHIFTED, plan)
    assert result.permutable
    assert result.max_dev < 1e-9


def test_exp_translate_pair_does_not_commute():
    # At z=0 the two orders differ by exactly the translation 2*pi*i:
    # f(g(0)) = e^(1+2*pi*i) = e while g(f(0)) = e + 2*pi*i.
    plan = SamplePlan.explicit([0])
    result = check_permutable(parse("exp(z)"), parse("exp(z)+2*pi*i"), plan)
    assert not result.permutable
    assert result.max_dev == pytest.approx(2 * math.pi / (1 + math.e))


def test_nonfinite_samples_are_skipped_and_counted():
    f, g = parse("exp(z)"), parse("exp(z)+2*pi*i")
    result = check_permutable(f, g, SamplePlan.explicit([10, 0]))
    assert result.checked == 1 and result.skipped == 1


def test_all_nonfinite_samples_raise():
    f, g = parse("exp(z)"), parse("exp(z)+2*pi*i")
    with pytest.raises(ValueError, match="no evaluable samples"):
        check_permutable(f, g, SamplePlan.explicit([10, 20]))


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        check_permutable(SINE, SINE, SamplePlan.explicit([0]), tol=0.0)


BAD_TOLS = [math.inf, -math.inf, math.nan, -1e-9]


# KSwap runs no permutability check, so `verify_relation` refuses the tol itself.
@pytest.mark.parametrize(
    "relation, tol",
    [pytest.param(None, tol, id=str(tol)) for tol in BAD_TOLS]
    + [pytest.param(RelationId.K_SWAP, tol, id=f"KSwap-{tol}") for tol in (*BAD_TOLS, 0.0)],
)
def test_tolerance_must_be_finite_and_positive(relation, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        if relation is None:
            check_permutable(SINE, SINE, SamplePlan.explicit([0]), tol=tol)
        else:
            verify_relation(relation, SINE, SamplePlan.explicit([0]), g=SINE_SHIFTED, tol=tol)


# --- verify_relation -----------------------------------------------------


def test_kswap_sine_pair_has_no_violations():
    report = verify_relation(
        RelationId.K_SWAP,
        SINE,
        SamplePlan.grid(-1, 1, -1, 1, 10, 10),
        g=SINE_SHIFTED,
        cfg=DRIFT_CFG,
    )
    assert report.sample_count == 100
    assert report.evaluated_count > 0
    assert report.violation_rate == 0.0
    assert report.permutability is None  # equivalence relations skip the precheck


def test_kswap_resolves_only_partially_at_default_config():
    # Most composite orbits drift past r_bound without reaching the
    # default escape radius; those seeds are excluded, not counted.
    report = verify_relation(
        "KSwap", SINE, SamplePlan.grid(-1, 1, -1, 1, 5, 5), g=SINE_SHIFTED
    )
    assert 0 < report.evaluated_count < report.sample_count
    assert report.violation_rate == 0.0


def test_buswap_with_identity_partner():
    report = verify_relation(
        "BuSwap",
        parse("1/pow(z,2)"),
        SamplePlan.grid(0.2, 0.8, 0.2, 0.8, 4, 4),
        g=parse("z"),
    )
    assert report.evaluated_count == 16
    assert report.violation_rate == 0.0


def test_k_intersection_into_composite():
    report = verify_relation(
        "KIntersectionIntoComposite",
        SINE,
        SamplePlan.grid(-1, 1, -1, 1, 4, 4),
        g=SINE_SHIFTED,
        cfg=DRIFT_CFG,
    )
    assert report.evaluated_count == 16
    assert report.violation_rate == 0.0
    assert report.permutability is not None and report.permutability.checked == 16


def test_escaping_invariance_records_hypothesis_provenance():
    report = verify_relation(
        "EscapingInvariance",
        FATOU,
        SamplePlan.grid(-2, 2, -1, 1, 5, 4),
        g=FATOU_SHIFTED,
        cfg=DRIFT_CFG,
        no_finite_asymptotic_values=True,
        hypothesis_source="curated",
    )
    assert report.violation_rate == 0.0
    assert report.hypothesis == {
        "no_finite_asymptotic_values": True,
        "source": "curated",
    }


def test_escaping_union_inclusion_and_equality_modes():
    plan = SamplePlan.grid(-2, 2, -1, 1, 6, 4)
    for equality in (False, True):
        report = verify_relation(
            "EscapingUnion",
            FATOU,
            plan,
            g=FATOU_SHIFTED,
            cfg=DRIFT_CFG,
            equality=equality,
            no_finite_asymptotic_values=True,
        )
        assert report.evaluated_count == 24
        assert report.violation_rate == 0.0
        assert report.permutability is not None


def test_bungee_composite_runs_clean():
    report = verify_relation(
        "BungeeComposite",
        FATOU,
        SamplePlan.grid(-2, 2, -1, 1, 5, 4),
        g=FATOU_SHIFTED,
        cfg=DRIFT_CFG,
        no_finite_asymptotic_values=True,
    )
    assert report.violation_rate == 0.0
    assert "no_finite_asymptotic_values" in report.hypothesis


def test_conjugacy_transport_identity_is_exact():
    report = verify_relation(
        "ConjugacyTransport",
        parse("0.3*exp(z)"),
        SamplePlan.grid(-2, 2, -2, 2, 6, 6),
        a=1,
        b=0,
    )
    assert report.violation_rate == 0.0


def test_conjugacy_transport_translation():
    report = verify_relation(
        "ConjugacyTransport",
        parse("0.3*exp(z)"),
        SamplePlan.grid(-2, 2, -2, 2, 8, 8),
        a=2,
        b=1,
    )
    assert report.evaluated_count == 64
    assert report.violation_rate == 0.0


def test_conjugacy_image_that_overflows_stays_unresolved():
    f = parse("0.3*exp(z)")
    seeds = np.array([1e308, 0.5], dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        codes = _column("conjugate_at_image", f, None, 2, 1, seeds, DEFAULT_CONFIG)
        report = verify_relation("ConjugacyTransport", f, SamplePlan.explicit(seeds), a=2, b=1)
    assert codes[0] == int(Classification.UNRESOLVED)
    assert codes[1] == classify_batch(conjugate(f, 2, 1), np.array([2.0 + 0j]))[0]
    assert (report.sample_count, report.evaluated_count) == (2, 1)


def test_affine_bungee_equal_identity_direction():
    report = verify_relation(
        "AffineBungeeEqual",
        parse("1/pow(z,2)"),
        SamplePlan.grid(0.2, 0.8, 0.2, 0.8, 3, 3),
        a=1,
        b=0,
    )
    assert report.permutability is not None and report.permutability.max_dev == 0.0
    assert report.violation_rate == 0.0


def test_affine_bungee_equal_refuses_noncommuting_pairs():
    with pytest.raises(ValueError, match="permutable"):
        verify_relation(
            "AffineBungeeEqual",
            parse("1/pow(z,2)"),
            SamplePlan.grid(0.2, 0.8, 0.2, 0.8, 3, 3),
            a=0.5,
            b=1,
        )


def test_disjoint_sets_relation_flags_shared_membership():
    # With g = f every bounded seed lands in K(f) twice over, so the
    # report must list it; this exercises the violation payload as well.
    report = verify_relation(
        "DisjointKandBU",
        SINE,
        SamplePlan.grid(-1, 1, -1, 1, 3, 3),
        g=SINE,
    )
    assert report.evaluated_count == 9
    assert len(report.violations) == 7
    assert report.violation_rate == pytest.approx(7 / 9)
    for violation in report.violations:
        assert set(violation.verdicts) == {"f", "g"}
        assert all(str(v) != "Unresolved" for v in violation.verdicts.values())


@pytest.mark.parametrize(
    "rel, f, g, kwargs, violations, evaluated, labels",
    [
        ("KIntersectionIntoComposite", "z*z", "z+1", {}, 16, 72, {"f", "g", "fg"}),
        ("EscapingInvariance", "0.3*exp(z)", "z+sin(z)", {}, 16, 144, {"g", "g_at_image"}),
        ("EscapingUnion", "0.5*z", "2*z", {}, 144, 144, {"f", "g", "fg"}),
        ("EscapingUnion", "1/pow(z,2)", "z*z", {}, 0, 144, None),
        ("EscapingUnion", "1/pow(z,2)", "z*z", {"equality": True}, 32, 144, {"f", "g", "fg"}),
        ("BungeeComposite", "1/pow(z,2)", "z", {}, 144, 144, {"f", "g", "fg"}),
        (
            "ConjugacyTransport",
            "1/pow(z,2)",
            None,
            {"a": 2, "b": 1},
            12,
            144,
            {"f", "conjugate_at_image"},
        ),
        ("StripContainment", "exp(z)", None, {}, 132, 144, {"f"}),
        ("DisjointKandBU", "1/pow(z,2)", "1/pow(z,2)", {}, 144, 144, {"f", "g"}),
    ],
    ids=[
        "k-intersection",
        "escaping-invariance",
        "escaping-union",
        "escaping-union-inclusion-holds",
        "escaping-union-equality",
        "bungee-composite",
        "conjugacy-transport",
        "strip-containment",
        "disjoint-bungee",
    ],
)
def test_violation_counts_pin_each_predicate(rel, f, g, kwargs, violations, evaluated, labels):
    # Pairs that break a relation's hypotheses, or a map paired with
    # itself, produce violations: each predicate must flag exactly these
    # seeds, and a violation names every column of its relation.
    report = verify_relation(
        rel,
        parse(f),
        SamplePlan.grid(-2, 2, -2, 2, 12, 12),
        g=None if g is None else parse(g),
        **kwargs,
    )
    assert len(report.violations) == violations
    assert report.evaluated_count == evaluated
    if labels is not None:
        assert set(report.violations[0].verdicts) == labels


def test_disjoint_sets_hold_for_the_translate_pair():
    report = verify_relation(
        "DisjointKandBU",
        FATOU,
        SamplePlan.grid(-3, 3, -3, 3, 20, 20),
        g=FATOU_SHIFTED,
    )
    assert len(report.violations) == 0


def test_strip_containment_clean_and_populated():
    report = verify_relation(
        "StripContainment",
        parse("exp(-z-1)+1"),
        SamplePlan.grid(-4, 4, -4, 4, 20, 20),
    )
    assert report.evaluated_count == 400
    assert len(report.violations) == 0


def test_missing_parameters_are_rejected():
    plan = SamplePlan.explicit([0])
    with pytest.raises(ValueError, match="requires g"):
        verify_relation("KSwap", SINE, plan)
    with pytest.raises(ValueError, match="requires a and b"):
        verify_relation("ConjugacyTransport", SINE, plan)


def test_unknown_relation_name_is_rejected():
    with pytest.raises(ValueError):
        verify_relation("KSswap", SINE, SamplePlan.explicit([0]), g=SINE)


# --- report shape --------------------------------------------------------


def test_report_json_schema():
    report = verify_relation(
        "KSwap",
        SINE,
        SamplePlan.grid(-1, 1, -1, 1, 3, 3),
        g=SINE_SHIFTED,
        cfg=DRIFT_CFG,
    )
    doc = json.loads(report.to_json())
    assert set(doc) == {
        "relation",
        "sample_count",
        "evaluated_count",
        "violation_rate",
        "permutability",
        "violations",
        "config",
        "plan",
    }
    assert doc["relation"] == "KSwap"
    assert doc["permutability"] is None
    assert doc["plan"]["kind"] == "grid"
    assert doc["config"]["max_iter"] == 2000


def test_report_json_accepts_numpy_scalar_plan_bounds():
    plan = SamplePlan.grid(np.float32(-1), 1, -1, np.float64(1), np.int64(2), 2)
    doc = json.loads(verify_relation("StripContainment", parse("z*z"), plan).to_json())
    assert doc["plan"] == {
        "kind": "grid", "re_min": -1.0, "re_max": 1, "im_min": -1, "im_max": 1.0, "nx": 2, "ny": 2,
    }


def test_report_json_includes_hypothesis_only_when_relevant():
    report = verify_relation(
        "EscapingInvariance",
        FATOU,
        SamplePlan.grid(-1, 1, -1, 1, 2, 2),
        g=FATOU_SHIFTED,
        cfg=DRIFT_CFG,
    )
    doc = report.to_dict()
    assert doc["hypothesis"] == {
        "no_finite_asymptotic_values": None,
        "source": "unstated",
    }
    assert doc["permutability"]["checked"] == 4


def test_violation_entries_serialize_seed_and_verdicts():
    report = verify_relation(
        "DisjointKandBU",
        SINE,
        SamplePlan.grid(-1, 1, -1, 1, 3, 3),
        g=SINE,
    )
    doc = report.to_dict()
    entry = doc["violations"][0]
    assert set(entry) == {"seed", "verdicts"}
    assert len(entry["seed"]) == 2
    assert set(entry["verdicts"]) == {"f", "g"}
    assert entry["verdicts"]["f"] in {"Escaping", "Bounded", "Bungee"}


def test_reports_are_deterministic_across_workers():
    kwargs = dict(
        g=FATOU_SHIFTED,
        cfg=DRIFT_CFG,
        no_finite_asymptotic_values=True,
    )
    plan = SamplePlan.grid(-2, 2, -2, 2, 10, 8)
    serial = verify_relation("EscapingInvariance", FATOU, plan, workers=1, **kwargs)
    threaded = verify_relation("EscapingInvariance", FATOU, plan, workers=4, **kwargs)
    assert serial.to_json() == threaded.to_json()


@pytest.mark.parametrize("workers", [0, -1])
def test_non_positive_workers_are_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        verify_relation(
            "StripContainment", SINE, SamplePlan.explicit([0.5]), workers=workers
        )


def test_default_permutability_tolerance():
    assert PERMUTABILITY_TOL == 1e-9


# --- columns skip seeds an earlier column left unresolved ----------------


UNRESOLVED = int(Classification.UNRESOLVED)
SMALL_CFG = ClassifierConfig(max_iter=120, r_bound=20.0, r_esc=1e4, tail_window=30)


def reference_reports(rel, f, plan, g=None, a=None, b=None, cfg=DEFAULT_CONFIG):
    """The report in each `equality` mode, built by classifying every
    column at every seed."""
    row = _RELATIONS[rel]
    seeds = plan.seeds()
    if rel is RelationId.AFFINE_BUNGEE_EQUAL:
        g = affine_post(f, a, b)
    permutability = check_permutable(f, g, plan) if row.permutable else None
    if rel is RelationId.AFFINE_BUNGEE_EQUAL and not permutability.permutable:
        raise ValueError("AffineBungeeEqual requires a permutable pair")
    columns = {lab: _column(lab, f, g, a, b, seeds, cfg) for lab in row.labels}
    resolved = np.logical_and.reduce([col != UNRESOLVED for col in columns.values()])
    reports = {}
    for equality in (False, True):
        bad = row.bad(seeds=seeds, equality=equality, **columns) & resolved
        reports[equality] = RelationReport(
            relation=rel,
            sample_count=int(seeds.size),
            evaluated_count=int(resolved.sum()),
            violations=tuple(
                Violation(
                    seed=complex(seeds[i]),
                    verdicts={lab: Classification(int(col[i])) for lab, col in columns.items()},
                )
                for i in np.flatnonzero(bad)
            ),
            permutability=permutability,
            config=cfg,
            plan=plan,
            hypothesis=(
                {"no_finite_asymptotic_values": None, "source": "unstated"}
                if row.hypothesis
                else None
            ),
        )
    return reports


# Each pair carries the affine map (a, b) its conjugacy relations use.
PAIRS = {
    "fatou": (FATOU, FATOU_SHIFTED, 1, 2j * math.pi),
    "sine": (SINE, SINE_SHIFTED, 1, 2 * math.pi),
    "square-translate": (parse("z*z"), parse("z+1"), -1, 0),
    "reciprocal-square": (parse("1/pow(z,2)"), parse("1/pow(z,2)"), 1, 0),
    "exp": (parse("0.3*exp(z)"), parse("exp(z)"), 2, 1),
}
PLANS = {
    "grid": SamplePlan.grid(-3, 3, -2, 2, 6, 5),
    "list": SamplePlan.explicit([0, 1e-300, 1e200, 0.5 + 0.5j, -1.5 + 2j, 3j, -0.25]),
}
CONFIGS = {"default": DEFAULT_CONFIG, "small": SMALL_CFG}


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("plan", list(PLANS))
@pytest.mark.parametrize("pair", list(PAIRS))
def test_reports_equal_the_every_column_reference(pair, plan, config):
    f, g, a, b = PAIRS[pair]
    kwargs = dict(g=g, a=a, b=b, cfg=CONFIGS[config])
    for rel in RelationId:
        try:
            expected = reference_reports(rel, f, PLANS[plan], **kwargs)
        except ValueError:
            with pytest.raises(ValueError, match="permutable"):
                verify_relation(rel, f, PLANS[plan], **kwargs)
            continue
        for equality, report in expected.items():
            actual = verify_relation(rel, f, PLANS[plan], equality=equality, **kwargs)
            assert actual.to_json() == report.to_json(), (rel, equality)


@pytest.fixture
def lane_log(monkeypatch):
    """Record the seeds of every classify_batch and eval_array call in relations."""
    calls = []

    def recorder(kind, orig):
        def wrapped(target, seeds, *args, **kwargs):
            calls.append((kind, target, np.array(seeds)))
            return orig(target, seeds, *args, **kwargs)

        return wrapped

    for name in ("classify_batch", "eval_array"):
        monkeypatch.setattr(
            bungee.relations, name, recorder(name, getattr(bungee.relations, name))
        )
    return calls


def resolved_at(f, seeds):
    return seeds[classify_batch(f, seeds) != UNRESOLVED]


def test_later_column_gets_only_the_seeds_f_resolved(lane_log):
    plan = SamplePlan.grid(-3, 3, -3, 3, 12, 12)
    verify_relation("DisjointKandBU", FATOU, plan, g=FATOU_SHIFTED)
    (_, f_map, f_seeds), (_, g_map, g_seeds) = lane_log
    assert f_map is FATOU and g_map is FATOU_SHIFTED
    assert np.array_equal(f_seeds, plan.seeds())
    kept = resolved_at(FATOU, plan.seeds())
    assert 0 < kept.size < plan.sample_count
    assert np.array_equal(g_seeds, kept)


def test_third_column_gets_the_seeds_both_earlier_columns_resolved(lane_log):
    plan = SamplePlan.grid(-3, 3, -3, 3, 12, 12)
    verify_relation("EscapingUnion", FATOU, plan, g=FATOU_SHIFTED)
    batches = [(target, seeds) for kind, target, seeds in lane_log if kind == "classify_batch"]
    (_, f_seeds), (_, g_seeds), (_, fg_seeds) = batches
    assert np.array_equal(g_seeds, resolved_at(FATOU, f_seeds))
    both = resolved_at(FATOU_SHIFTED, g_seeds)
    assert 0 < both.size < g_seeds.size < plan.sample_count
    assert np.array_equal(fg_seeds, both)


def test_a_first_column_that_resolves_nothing_sends_no_seeds_on(lane_log):
    # Right of Re z = 0.5 the Fatou map's orbits all drift out slowly and
    # run out of budget, so the g column resolves no seed and the image
    # column evaluates and classifies empty arrays.
    plan = SamplePlan.grid(0.5, 3.5, -3, 3, 4, 6)
    report = verify_relation("EscapingInvariance", FATOU_SHIFTED, plan, g=FATOU)
    calls = list(lane_log)
    expected = reference_reports(RelationId.ESCAPING_INVARIANCE, FATOU_SHIFTED, plan, g=FATOU)
    assert report.evaluated_count == 0
    assert report.to_json() == expected[False].to_json()
    moved = [seeds.size for _, target, seeds in calls if target is FATOU_SHIFTED.root]
    batches = [seeds.size for kind, _, seeds in calls if kind == "classify_batch"]
    assert moved == [0]
    assert batches == [plan.sample_count, 0]
