"""The curated example catalog and its executable expectations."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest

from bungee import registry
from bungee import (
    export_registry_json,
    format_expr,
    get_example,
    list_examples,
    parse,
    run_example,
)
from bungee.relations import PermutabilityResult

ALL_IDS = [
    "ex_sine_pair",
    "ex_rational_bungee",
    "ex_exponential_family",
    "ex_exp_translate",
    "ex_halfplane_pair",
    "ex_periodic_translate",
]


def test_listing_is_stable_and_complete():
    listed = list_examples()
    assert [i for i, _ in listed] == ALL_IDS
    assert all(summary for _, summary in listed)
    assert listed == list_examples()


def test_unknown_id_is_rejected():
    with pytest.raises(KeyError, match="unknown example id"):
        get_example("ex_nonexistent")
    with pytest.raises(KeyError):
        run_example("ex_nonexistent")


def test_sine_pair_entry():
    entry = get_example("ex_sine_pair")
    assert entry.permutable.value is True
    assert entry.permutable.note
    assert format_expr(entry.f) == "z+sin(z)"
    assert format_expr(entry.g) == "z+sin(z)+2*pi"


def test_rational_oracle_runs_on_defaults():
    entry = get_example("ex_rational_bungee")
    assert entry.oracle_not_entire is True
    assert entry.g is None
    assert format_expr(entry.f) == "1/pow(z,2)"


def test_exponential_family_entry():
    entry = get_example("ex_exponential_family")
    assert format_expr(entry.f) == "0.3*exp(z)"
    assert entry.conjugation == (2 + 0j, 1 + 0j)
    assert "attracting basin" in entry.summary
    assert entry.no_finite_asymptotic_values.value is False


def test_exp_translate_states_both_hypotheses():
    entry = get_example("ex_exp_translate")
    assert entry.permutable.value is True
    assert entry.no_finite_asymptotic_values.value is True
    assert format_expr(entry.f) == "z+1+exp(-z)"
    assert format_expr(entry.g) == "z+1+exp(-z)+2*pi*i"


def test_halfplane_pair_checks_disjoint_escape():
    entry = get_example("ex_halfplane_pair")
    assert format_expr(entry.f) == "exp(-z-1)+1"
    descriptions = [x.description for x in entry.expectations]
    assert any("disjoint" in d for d in descriptions)
    assert any("strip" in d for d in descriptions)


def test_periodic_translate_is_flagged_noncommuting():
    entry = get_example("ex_periodic_translate")
    assert entry.permutable.value is False
    assert format_expr(entry.f) == "exp(z)"
    assert format_expr(entry.g) == "exp(z)+2*pi*i"


def test_fixed_point_bisection_needs_a_sign_change():
    """The fixed point of 0.3*exp lies in [0, 1], where 0.3*e**q - q changes
    sign; on [0, 0.4] it keeps one sign, and the bracket is refused."""
    q = registry._fixed_point_bisection(0.3, 0.0, 1.0)
    assert abs(0.3 * math.exp(q) - q) <= 1e-12
    with pytest.raises(ValueError, match="bisection bracket does not change sign"):
        registry._fixed_point_bisection(0.3, 0.0, 0.4)


def _entry(**fields):
    return registry.ExampleEntry(**{
        "id": "ex_test", "summary": "a map", "f": parse("z*z"),
        "permutable": registry.Flag(None, "single map"),
        "no_finite_asymptotic_values": registry.Flag(None, "not stated"),
        "expectations": (), **fields,
    })


def test_entry_defaults_what_it_omits():
    """An entry that leaves out g, conjugation and oracle_not_entire is the
    entry that states None, None and False."""
    omitted, stated = _entry(), _entry(g=None, conjugation=None, oracle_not_entire=False)
    assert (omitted.g, omitted.conjugation, omitted.oracle_not_entire) == (None, None, False)
    assert omitted == stated and hash(omitted) == hash(stated)
    assert omitted.to_dict() == stated.to_dict()


@pytest.mark.parametrize("max_dev", [
    0.0, math.nextafter(1e-9, 0.0), 1e-9, math.nextafter(1e-9, 1.0), 0.5, 1.0,
    math.nextafter(1.0, 2.0), 1e300, math.inf, math.nan,
])
def test_permutability_rows_keep_their_bounds(monkeypatch, max_dev):
    """The "commutes" row passes exactly when the check calls the pair
    permutable and max_dev < 1e-9, the "does not commute" row when it does
    not and 1.0 < max_dev < inf: at 1e-9 and at 1.0 both fail, and so do
    inf and NaN, which `check_permutable` never gives."""
    result = PermutabilityResult(checked=200, skipped=0, max_dev=max_dev, tol=1e-9)
    monkeypatch.setattr(registry, "check_permutable", lambda f, g, plan: result)
    commuting, periodic = get_example("ex_exp_translate"), get_example("ex_periodic_translate")
    commutes = commuting.expectations[0].run(commuting, None, 1.0)
    differs = periodic.expectations[0].run(periodic, None, 1.0)
    assert commutes[0] is (result.permutable and max_dev < 1e-9)
    assert differs[0] is ((not result.permutable) and 1.0 < max_dev < math.inf)
    if max_dev in (1e-9, 1.0):
        assert not commutes[0] and not differs[0]
    for _, measured in (commutes, differs):
        assert list(measured) == ["max_dev", "checked"] and measured["max_dev"] is max_dev


def test_an_infinite_deviation_does_not_commute():
    """The constant 1e308 and -z give f(g(z)) = 1e308 and g(f(z)) = -1e308,
    whose difference overflows: max_dev is the largest double, which the
    "does not commute" row takes and the "commutes" row refuses, with no
    numpy warning."""
    entry = _entry(f=parse("1e308"), g=parse("-z"))
    commutes = get_example("ex_exp_translate").expectations[0].run
    differs = get_example("ex_periodic_translate").expectations[0].run
    with np.errstate(all="raise"):
        assert differs(entry, None, 1.0) == (True, {"max_dev": sys.float_info.max, "checked": 200})
        assert commutes(entry, None, 1.0)[0] is False


def test_every_expectation_carries_provenance():
    for ex_id in ALL_IDS:
        for expectation in get_example(ex_id).expectations:
            assert expectation.description
            assert expectation.source


# --- export --------------------------------------------------------------


def test_export_is_a_json_array_of_entries():
    doc = json.loads(export_registry_json())
    assert [entry["id"] for entry in doc] == ALL_IDS
    for entry in doc:
        assert set(entry) == {
            "id",
            "summary",
            "f",
            "g",
            "conjugation",
            "flags",
            "expectations",
        }


def test_exported_expressions_reparse():
    for entry in json.loads(export_registry_json()):
        tree = parse(entry["f"])
        assert parse(format_expr(tree)) == tree
        if entry["g"] is not None:
            parse(entry["g"])


def test_flags_round_trip_through_export():
    doc = {entry["id"]: entry for entry in json.loads(export_registry_json())}
    for ex_id in ALL_IDS:
        entry = get_example(ex_id)
        flags = doc[ex_id]["flags"]
        assert flags["permutable"]["value"] == entry.permutable.value
        assert flags["permutable"]["note"] == entry.permutable.note
        assert (
            flags["no_finite_asymptotic_values"]["value"]
            == entry.no_finite_asymptotic_values.value
        )
        assert flags["oracle_not_entire"] == entry.oracle_not_entire


# --- run_example ---------------------------------------------------------


def test_rational_oracle_expectations_pass():
    report = run_example("ex_rational_bungee", scale=0.25)
    assert report.passed
    verdicts = {r.description: r.measured for r in report.results}
    assert any(m.get("verdict") == "Bungee" for m in verdicts.values())
    assert any(m.get("verdict") == "Bounded" for m in verdicts.values())


@pytest.mark.parametrize("ex_id", ALL_IDS)
def test_each_example_passes_at_reduced_scale(ex_id):
    report = run_example(ex_id, scale=0.25)
    failed = [r.description for r in report.results if not r.passed]
    assert report.passed, failed


def test_report_serialization_shape():
    doc = run_example("ex_rational_bungee", scale=0.25).to_dict()
    assert set(doc) == {"example", "passed", "results"}
    assert doc["example"] == "ex_rational_bungee"
    for result in doc["results"]:
        assert set(result) == {"description", "passed", "measured"}


def test_scale_must_be_in_unit_interval():
    with pytest.raises(ValueError):
        run_example("ex_rational_bungee", scale=0.0)
    with pytest.raises(ValueError):
        run_example("ex_rational_bungee", scale=1.5)


# Each expectation's `measured` keys, in order: `examples run --format json`
# prints them as they are, so a dropped or reordered key moves its bytes.
MEASURED_KEYS = {
    "ex_sine_pair": [
        ["max_drift_dev", "steps"],
        ["verdict"],
        ["verdict"],
        ["verdicts"],
        ["violation_rate", "evaluated_count", "sample_count"],
    ],
    "ex_rational_bungee": [
        ["verdict"],
        ["verdict"],
        ["bungee_rate", "bounded_count", "sample_count"],
        ["bounded_count", "sample_count"],
    ],
    "ex_exponential_family": [
        ["fixed_point", "max_limit_dev", "seeds"],
        ["verdict"],
        ["violation_rate", "evaluated_count", "sample_count"],
        ["violation_rate", "evaluated_count"],
    ],
    "ex_exp_translate": [
        ["max_dev", "checked"],
        ["violations", "evaluated_count", "sample_count"],
        ["violation_rate", "evaluated_count"],
    ],
    "ex_halfplane_pair": [
        ["violation_rate", "violations", "evaluated_count"],
        ["both_escaping", "escaping_under_f", "escaping_under_g"],
    ],
    "ex_periodic_translate": [
        ["max_dev", "checked"],
        ["mismatches", "both_resolved", "sample_count"],
    ],
}
FLOAT_KEYS = {"max_drift_dev", "bungee_rate", "fixed_point", "max_limit_dev", "max_dev", "violation_rate"}


@pytest.mark.parametrize("ex_id", ALL_IDS)
def test_measured_keys_are_pinned_in_order(ex_id):
    report = run_example(ex_id, scale=0.1)
    assert [list(r.measured) for r in report.results] == MEASURED_KEYS[ex_id]
    for result in report.results:
        for key, value in result.measured.items():
            # A numpy integer is no int and would not serialize; a bool is one but prints as true.
            want = {"verdict": str, "verdicts": dict}.get(key, float if key in FLOAT_KEYS else int)
            assert isinstance(value, want) and not isinstance(value, bool), key
