"""The public surface: every name in `bungee.__all__` stays and resolves,
and every entry point that takes numbers refuses what is not a finite one."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bungee
from bungee.expr import Const

PUBLIC_NAMES = [
    "ExprSyntaxError",
    "FunctionExpr",
    "InfinityEvent",
    "PoleEvent",
    "affine_post",
    "compose",
    "conjugate",
    "evaluate",
    "format_expr",
    "parse",
    "Classification",
    "CertifiedBounded",
    "CertifiedBungee",
    "CertifiedEscape",
    "ClassifierConfig",
    "Completed",
    "CycleFound",
    "OrbitRecord",
    "Overflowed",
    "PoleHit",
    "classify",
    "classify_batch",
    "classify_point",
    "iterate_orbit",
    "GridSpec",
    "Raster",
    "classify_grid",
    "extract_boundary",
    "raster_to_json",
    "render_ppm",
    "PermutabilityResult",
    "RelationId",
    "RelationReport",
    "SamplePlan",
    "check_permutable",
    "verify_relation",
    "ExampleEntry",
    "export_registry_json",
    "get_example",
    "list_examples",
    "run_example",
    "__version__",
]


def test_public_names_are_pinned_and_resolve():
    assert bungee.__all__ == PUBLIC_NAMES
    assert set(bungee.__all__) <= set(dir(bungee))  # the catalog's names too, before it loads
    missing = [name for name in bungee.__all__ if not hasattr(bungee, name)]
    assert missing == []


def run_fresh(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package; it must exit 0. Its stdout."""
    code = f"import sys\nsys.path.insert(0, {str(Path(bungee.__file__).parent.parent)!r})\n{code}"
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


ENGINE = ("bungee.orbit", "bungee.certify", "bungee.grid", "bungee.relations", "bungee.registry")


def test_import_and_cli_start_leave_the_catalog_unloaded():
    """`import bungee` and a CLI start load `bungee.expr` alone: the engine
    modules, the catalog and `dataclasses` are imported only when one of
    their names is first read. Every public name, every submodule of the
    package and every engine name of the CLI still resolves."""
    run_fresh(f"""
import bungee, bungee.cli
bungee.parse("z+1+exp(-z)")
assert bungee.cli.main([]) == 1  # no subcommand: a usage error, after building the parser
loaded = [name for name in {ENGINE + ("dataclasses",)!r} if name in sys.modules]
assert loaded == [], loaded
assert set(bungee.__all__) <= set(dir(bungee))
missing = [name for name in bungee.__all__ if not hasattr(bungee, name)]
assert missing == [], missing
for name in ("certify", "expr", "grid", "orbit", "registry", "relations"):
    assert getattr(bungee, name) is sys.modules[f"bungee.{{name}}"], name
for name, module in bungee.cli._LAZY.items():
    assert getattr(bungee.cli, name) is getattr(sys.modules[f"bungee.{{module}}"], name), name
""")


@pytest.mark.parametrize("argv, loaded", [
    (["classify", "--function=z*z", "--point=0.5,0"], ("bungee.orbit", "bungee.certify")),
    (["orbit", "--function=z*z", "--point=0.5,0", f"--csv={os.devnull}"], ("bungee.orbit", "bungee.certify")),
    (["render", "--function=z*z", "--grid=-2,2,-2,2", "--size=4,3", f"--ppm={os.devnull}"],
     ("bungee.orbit", "bungee.certify", "bungee.grid")),
    (["verify", "--relation=StripContainment", "--f=z", "--samples=list:0,0"],
     ("bungee.orbit", "bungee.certify", "bungee.grid", "bungee.relations")),
    (["examples", "list"], ENGINE),
], ids=["classify", "orbit", "render", "verify", "examples-list"])
def test_each_command_loads_only_the_modules_it_runs(argv, loaded):
    out = run_fresh("""
import contextlib, io, json
import bungee.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = bungee.cli.main(json.loads(sys.argv[1]))
print(code, *sorted(name for name in sys.modules if name.startswith("bungee.")))
""", json.dumps(argv))
    assert out.split() == ["0", *sorted({"bungee.cli", "bungee.expr", *loaded})]


HUGE = 10**400  # a Python int beyond double range: float() of it raises OverflowError
Z2 = bungee.parse("z*z")
ONE_SEED = bungee.SamplePlan.explicit([1])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: bungee.GridSpec(0, HUGE, 0, 1, 2, 2), "grid bounds must be finite real numbers",
                 id="grid-bound"),
    pytest.param(lambda: Const(HUGE), "a constant must be finite", id="constant"),
    pytest.param(lambda: bungee.affine_post(Z2, HUGE, 0), "affine coefficients a and b must be finite",
                 id="affine-post"),
    pytest.param(lambda: bungee.conjugate(Z2, 1, HUGE), "affine coefficients a and b must be finite",
                 id="conjugate"),
    pytest.param(lambda: bungee.SamplePlan.explicit([HUGE]), "sample points must be finite", id="explicit-plan"),
    pytest.param(lambda: bungee.SamplePlan(kind="list", points=(None,)), "sample points must be finite",
                 id="plan-of-none"),
    pytest.param(lambda: bungee.SamplePlan(kind="list", points=("a",)), "sample points must be finite",
                 id="plan-of-text"),
    pytest.param(lambda: bungee.verify_relation("ConjugacyTransport", Z2, ONE_SEED, a=HUGE, b=0),
                 "affine coefficients a and b must be finite", id="verify-a"),
    pytest.param(lambda: bungee.verify_relation("ConjugacyTransport", Z2, ONE_SEED, a=1, b=HUGE),
                 "affine coefficients a and b must be finite", id="verify-b"),
    pytest.param(lambda: bungee.classify_point(Z2, HUGE), "seeds must be finite", id="classify-point"),
    pytest.param(lambda: bungee.classify_batch(Z2, [HUGE]), "seeds must be finite", id="classify-batch"),
    pytest.param(lambda: bungee.classify_batch(Z2, ["1"]), "seeds must be finite", id="classify-batch-text"),
    pytest.param(lambda: bungee.classify_batch(Z2, ["1+2j"]), "seeds must be finite",
                 id="classify-batch-complex-text"),
    pytest.param(lambda: bungee.classify_batch(Z2, [b"1"]), "seeds must be finite", id="classify-batch-bytes"),
    pytest.param(lambda: bungee.classify_batch(Z2, np.array(["1"], dtype=object)), "seeds must be finite",
                 id="classify-batch-object-text"),
    pytest.param(lambda: bungee.classify_batch(Z2, [1, [2, 3]]), "seeds must be finite",
                 id="classify-batch-ragged"),
    pytest.param(lambda: bungee.classify_batch(Z2, [[1, 2], [3]]), "seeds must be finite",
                 id="classify-batch-ragged-rows"),
])
def test_numbers_that_are_not_finite_doubles_are_refused(call, message):
    """An int beyond double range, or a value that is no number, is refused
    with the message the site gives a non-finite float, not with the
    OverflowError or AttributeError of converting it."""
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("seeds, values", [
    pytest.param([Fraction(1, 2)], [0.5], id="fraction"),
    pytest.param([True], [1], id="bool"),
    pytest.param([2**64], [2.0**64], id="int-beyond-int64"),
    pytest.param(np.zeros(0), [], id="empty"),
    pytest.param(np.zeros((0, 3)), np.zeros((0, 3)), id="empty-2d"),
    pytest.param([[0.5, 2], [1j, Fraction(3, 4)]], [[0.5, 2], [1j, 0.75]], id="nested"),
])
def test_numbers_of_any_kind_are_seeds(seeds, values):
    """A seed that is a finite number of another type than complex gets the
    code of the same value as a complex128, in the input's shape."""
    want = bungee.classify_batch(Z2, np.array(values, dtype=np.complex128))
    for return_state in (False, True):
        got = bungee.classify_batch(Z2, seeds, return_state=return_state)
        codes = got[0] if return_state else got
        assert codes.shape == want.shape and codes.dtype == np.int8
        assert codes.tolist() == want.tolist()
