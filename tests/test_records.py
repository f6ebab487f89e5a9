"""Value semantics of the package's records.

Every record class but `RelationReport` is an immutable slotted `_Record`
(``bungee.expr``): built by position or keyword, with defaults, checked by
``__post_init__``; ``==`` between records of one exact type and ``hash``
read the fields, and the ``repr`` names them, as a frozen dataclass's do.
Copies and pickles rebuild the record. An import guard pins that no class
on the CLI's import path is a dataclass but `RelationReport`, which
``dataclasses.replace`` still reads.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pickle
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from bungee import cli, parse
from bungee.expr import InfinityEvent, PoleEvent, Var, _Record
from bungee.grid import GridSpec, Raster
from bungee.orbit import (
    BatchState,
    CertifiedBounded,
    CertifiedBungee,
    CertifiedEscape,
    Classification,
    ClassifierConfig,
    Completed,
    CycleFound,
    OrbitRecord,
    Overflowed,
    PoleHit,
    classify_batch,
    iterate_orbit,
)
from bungee.registry import ExampleEntry, ExampleReport, Expectation, ExpectationResult, Flag, get_example
from bungee.relations import PermutabilityResult, SamplePlan, Violation

SRC = Path(__file__).resolve().parent.parent / "src"

SPEC = GridSpec(-2.0, 2.0, -1.0, 1.0, 4, 2)
_, STATE = classify_batch(parse("z*z-1"), SPEC.points(), return_state=True)
ORBIT = iterate_orbit(parse("z*z"), 0.5 + 0j)
ENTRY = get_example("ex_sine_pair")

# One record of each class, with plain hashable fields where the class allows.
RECORDS = [
    InfinityEvent(Var()),
    PoleEvent(Var()),
    SPEC,
    ClassifierConfig(max_iter=50, r_bound=10.0, r_esc=100.0),
    Completed(),
    Overflowed(3),
    CycleFound(period=2, entry=5),
    PoleHit(1),
    CertifiedEscape(1, "|z| >= 2.0"),
    CertifiedBungee(1, "|z| >= 2.0"),
    CertifiedBounded(15, "Re z in [-0.5, 0.5], Im z in [-0.5, 0.5]"),
    SamplePlan.explicit([0.5, 1j]),
    SamplePlan.grid(-1, 1, -1, 1, 3, 3),
    PermutabilityResult(checked=9, skipped=0, max_dev=0.0, tol=1e-9),
    Violation(0.5 + 0j, (("f", Classification.BOUNDED),)),
    Flag(True, "z+1 commutes with itself"),
    ExpectationResult("a claim", True, ()),
    Expectation("a claim", "a reason", len),
    ExampleReport("fatou", (ExpectationResult("a claim", True, ()),)),
]
# Records that hold arrays: `==` on them compares arrays, so they are checked field by field.
ARRAY_RECORDS = [Raster(SPEC, np.zeros((2, 4), dtype=np.int8)), STATE, ORBIT]
EVERY_CLASS = {type(r) for r in RECORDS + ARRAY_RECORDS} | {ExampleEntry}


def same_fields(a, b) -> bool:
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip((getattr(a, k) for k in a._fields), (getattr(b, k) for k in b._fields)))


def classify_json(function: str, point: str, *config: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*config, "classify", "--format", "json", "--function", function, "--point", point]) == 0
    return json.loads(out.getvalue())


def test_every_record_class_is_a_record():
    assert len(EVERY_CLASS) == 22
    assert all(issubclass(kind, _Record) for kind in EVERY_CLASS)
    assert not any(hasattr(record, "__dict__") for record in RECORDS + ARRAY_RECORDS + [ENTRY])


@pytest.mark.parametrize("function, point, termination", [
    ("z*z", "1,0", "CycleFound(period=1, entry=0)"),
    ("z+sin(z)", "1,1", "CycleFound(period=1, entry=6)"),
    ("z*z-1", "3,0", "CertifiedEscape(step=1, region='|z| >= 2.0')"),
    ("z+1+exp(-z)", "2,0", "CertifiedEscape(step=1, region='Re z >= 0.0625')"),
    ("1/pow(z,2)", "0.5,0", "CertifiedBungee(step=1, region='|z| >= 1.0009765625 or 0 < |z| <= 0.9990243902439023')"),
    ("pow(z,2)", "0.5,0", "CertifiedBounded(step=15, region='Re z in [-0.25, 0.25], Im z in [-0.25, 0.25]')"),
    ("1/pow(z,2)", "0,0", "PoleHit(step=1)"),
    ("exp(z)", "1,0", "Overflowed(step=4)"),
])
def test_classify_json_writes_the_termination_repr(function, point, termination):
    assert classify_json(function, point)["termination"] == termination


def test_completed_repr(tmp_path):
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"max_iter": 50}))
    assert classify_json("z*exp(0.1*i)", "1,0", "--config", str(config))["termination"] == "Completed()"


def test_reprs_name_the_fields():
    assert repr(ClassifierConfig()) == "ClassifierConfig(max_iter=1000, r_bound=1000.0, r_esc=1000000.0)"
    assert repr(SPEC) == "GridSpec(re_min=-2.0, re_max=2.0, im_min=-1.0, im_max=1.0, nx=4, ny=2)"
    assert repr(PoleEvent(Var())) == "PoleEvent(node=Var())"
    assert repr(SamplePlan.explicit([1j])) == "SamplePlan(kind='list', spec=None, points=(1j,))"
    assert repr(Flag(None, "n")) == "Flag(value=None, note='n')"


def test_orbit_record_leaves_its_state_out_of_repr_and_eq():
    assert "state=" not in repr(ORBIT) and repr(ORBIT).startswith("OrbitRecord(seed=(0.5+0j), values=array(")
    twin = OrbitRecord(*(getattr(ORBIT, k) for k in OrbitRecord._fields[:-1]), state=STATE)
    assert twin == ORBIT and twin.state is not ORBIT.state


def test_field_tuples():
    assert ClassifierConfig._fields == ("max_iter", "r_bound", "r_esc")
    assert GridSpec._fields == ("re_min", "re_max", "im_min", "im_max", "nx", "ny")
    assert OrbitRecord._fields == ("seed", "values", "moduli", "peaks", "returns", "termination", "global_max", "state")
    assert BatchState._fields == ("z", "kind", "term_step", "period", "cycle_max", "n_returns", "last_peak", "cur_peak",
                                  "in_peak", "escalation_ok", "global_max", "region")
    for kind in (CertifiedEscape, CertifiedBungee, CertifiedBounded):
        assert kind._fields == ("step", "region") and kind.__slots__ == ()
    assert Completed._fields == () and SamplePlan._fields == ("kind", "spec", "points")


def test_certificates_equal_only_their_own_kind():
    r = "|z| >= 2.0"
    assert CertifiedEscape(1, r) != CertifiedBungee(1, r) and CertifiedBungee(1, r) != CertifiedBounded(1, r)
    assert CertifiedEscape(1, r) == CertifiedEscape(step=1, region=r) and CertifiedEscape(1, r) != CertifiedEscape(2, r)
    assert Overflowed(1) != PoleHit(1) and Overflowed(1) != (1,) and Completed() == Completed()


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_hash_agrees_with_eq(record):
    twin = type(record)(*(getattr(record, k) for k in record._fields))
    assert twin == record and hash(twin) == hash(record) and not twin != record
    assert len({record, twin}) == 1


@pytest.mark.parametrize("record", RECORDS + ARRAY_RECORDS, ids=lambda r: type(r).__name__)
def test_records_copy_and_pickle(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert same_fields(twin, record) and repr(twin) == repr(record)
    assert copy.copy(record)._fields == record._fields


def test_catalog_entry_copies_and_pickles():
    """An entry's expectations hold `functools.partial` runners, which
    compare by identity, so the twins are compared by their reprs."""
    for twin in (copy.copy(ENTRY), copy.deepcopy(ENTRY), pickle.loads(pickle.dumps(ENTRY))):
        assert type(twin) is ExampleEntry and repr(twin) == repr(ENTRY) and twin.f == ENTRY.f
    assert copy.copy(ENTRY) == ENTRY and hash(copy.copy(ENTRY)) == hash(ENTRY)


@pytest.mark.parametrize("record", RECORDS + ARRAY_RECORDS + [ENTRY], ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in (*record._fields, "anything"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("build", [
    partial(Overflowed),  # missing
    partial(Overflowed, 1, 2),  # extra
    partial(Overflowed, stop=1),  # unknown
    partial(Overflowed, 1, step=1),  # twice
    partial(CycleFound, period=1),
    partial(Completed, 0),
    partial(ClassifierConfig, 50, 10.0, 100.0, 1),
    partial(ClassifierConfig, tail_window=10),
    partial(GridSpec, -1.0, 1.0, -1.0, 1.0, 4),
    partial(SamplePlan),
    partial(SamplePlan, "list", points=(1j,), kind="list"),
])
def test_missing_extra_or_unknown_fields_raise_type_error(build):
    with pytest.raises(TypeError, match=r"takes fields \("):
        build()


def test_defaults_and_keywords():
    assert ClassifierConfig() == ClassifierConfig(1000, 1e3, 1e6)
    assert ClassifierConfig(r_esc=1e7) == ClassifierConfig(1000, 1e3, 1e7)
    assert ClassifierConfig(50, r_esc=1e7) == ClassifierConfig(max_iter=50, r_bound=1e3, r_esc=1e7)
    assert SamplePlan(kind="list", points=(1j,)) == SamplePlan("list", None, (1j,))
    assert SamplePlan("grid", SPEC).points == ()
    assert GridSpec(re_min=-2.0, re_max=2.0, im_min=-1.0, im_max=1.0, nx=4, ny=2) == SPEC
    assert CycleFound(entry=5, period=2) == CycleFound(2, 5)


@pytest.mark.parametrize("build", [
    partial(GridSpec, 1.0, 1.0, -1.0, 1.0, 4, 2),
    partial(GridSpec, -1.0, 1.0, -1.0, float("inf"), 4, 2),
    partial(GridSpec, -1.0, 1.0, -1.0, 1.0, 0, 2),
    partial(GridSpec, -1.0, 1.0, -1.0, 1.0, True, 2),
    partial(GridSpec, re_min=-1e308, re_max=1e308, im_min=0.0, im_max=1.0, nx=1, ny=1),
    partial(Raster, SPEC, np.zeros((4, 2), dtype=np.int8)),
    partial(Raster, SPEC, np.full((2, 4), 4, dtype=np.int8)),
    partial(Raster, spec=SPEC, codes=np.zeros((2, 4), dtype=bool)),
    partial(SamplePlan, "cloud"),
    partial(SamplePlan, "grid"),
    partial(SamplePlan, "list"),
    partial(SamplePlan, kind="list", points=(complex("nan"),)),
    partial(ClassifierConfig, 0),
    partial(ClassifierConfig, r_bound=1e7),
    partial(ClassifierConfig, max_iter=2.0),
])
def test_post_init_checks_refuse_bad_values(build):
    with pytest.raises(ValueError):
        build()


def test_only_relation_report_is_a_dataclass():
    """In a fresh interpreter: the CLI does not import the example catalog,
    and among the package's classes, the CLI's and the catalog's, the only
    dataclass is `RelationReport`."""
    code = """
import inspect, sys
sys.path.insert(0, sys.argv[1])
import bungee.cli
print("bungee.registry" in sys.modules)
import bungee.registry
print(sorted(f"{name}.{cls.__qualname__}" for name, module in list(sys.modules.items()) if name.startswith("bungee")
             for cls in vars(module).values()
             if inspect.isclass(cls) and cls.__module__ == name and hasattr(cls, "__dataclass_fields__")))
"""
    run = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == ["False", "['bungee.relations.RelationReport']"]
