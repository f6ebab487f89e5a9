"""Write bungee's user-visible outputs to a directory, for byte comparison.

Usage, from any directory::

    python3 tools/parity.py OUTDIR

The package is imported from ``src/`` of the checkout that holds this
script, so running it from two checkouts (say, an export of the parent
commit and the working tree) and comparing the directories with
``diff -r`` shows every output a change moved. It writes:

- ``classify --format json`` and ``orbit`` CSV for every map of the
  catalog at every edge seed, under two configs: the default and
  ``DRIFT_CFG``, a longer budget with lower radii;
- ``verify`` JSON for all ten relations, on each catalog entry's pair,
  over a grid plan and a list plan, under both configs, in both
  ``--equality`` modes;
- the exit codes of three inputs ``verify`` refuses, and of a ``--tol``
  that is not finite and positive, given to the permutability check and
  to ``KSwap``, which never reads it;
- ``render`` output (PPM, ``--boundary`` PBM and ``--json``) for every
  map of the catalog on two small grids, under both configs; the grid
  around z = 1 gives ``1/pow(z,2)`` a non-empty boundary;
- the exit codes of two grids ``render`` refuses;
- the exit codes of malformed numeric arguments: for ``--point`` (of
  ``classify`` and ``orbit``), ``--phi``, ``--grid``, ``--size`` and the
  bounds, size and points of ``--samples``, a wrong part count, a part
  that is not a number, and one that is not finite, an integer or a
  positive cell count where those apply;
- ``examples list`` in text and ``--format json``;
- ``examples run`` in ``--format json`` and text for every catalog
  entry at scale 1.0, and the exit codes of five scales outside (0, 1];
- ``export_registry_json()``;
- ``records.tsv``: for every map of the catalog at every edge seed, under
  both configs, the ``repr`` of the orbit record's peaks and of
  ``evaluate`` at the seed; and for every map of the catalog, the node
  ``repr`` of its root, of ``compose(f, f)``'s and of
  ``conjugate(f, 2, 1j)``'s, whose ``Apply`` nodes no parsed map has.

Every command runs in process through ``bungee.cli.main``. Its exit code
and the first line of its standard error go to ``exits.tsv``, so a
command that fails still leaves a comparable record. The sweep writes
1,061 files, 1,018 exit codes among them in ``exits.tsv``, and takes about
4 s in one process on a two-core machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "bungee" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'bungee'} not found; run from a checkout of bungee")
sys.path.insert(0, str(SRC))

from bungee import (  # noqa: E402
    ClassifierConfig,
    RelationId,
    compose,
    conjugate,
    evaluate,
    export_registry_json,
    get_example,
    iterate_orbit,
    list_examples,
    parse,
)
from bungee.cli import main  # noqa: E402

DRIFT_CFG = ClassifierConfig(max_iter=2000, r_bound=100.0, r_esc=1e3)
EDGE_SEEDS = [0, 1e-300, 1e200, 1, 0.5, -800, 800, 800j, 0.1j, 1e-150, 1.5 - 2j]
PLANS = {
    "grid": "grid:-3,3,-3,3:9x7",
    "list": "list:0,0;1e-300,0;1e200,0;0.5,0.5;-1.5,2;0,3;-800,0",
}
# Inputs that `verify` refuses: a pair that does not commute, and
# relations run without the arguments they need.
REFUSALS = {
    "affine-not-permutable": ["--relation=AffineBungeeEqual", "--f=z+1+exp(-z)",
                              "--g=z+1+exp(-z)+2*pi*i", "--phi=2,0,1,0",
                              "--samples=grid:-2,2,-2,2:7x5"],
    "disjoint-without-g": ["--relation=DisjointKandBU", "--f=z+1+exp(-z)",
                           "--samples=grid:-2,2,-2,2:7x5"],
    "conjugacy-without-phi": ["--relation=ConjugacyTransport", "--f=0.3*exp(z)",
                              "--samples=grid:-2,2,-2,2:7x5"],
}
# Tolerances `verify` refuses, and scales `examples run` refuses.
TOL_REFUSALS = ("inf", "nan", "0")
SCALE_REFUSALS = ("0", "2", "nan", "inf", "-1")

# `render` grids as (--grid, --size).
RENDER_GRIDS = {
    "wide": ("-3,3,-3,3", "16,12"),
    "unit": ("0.5,1.5,-0.5,0.5", "15,15"),
}
# Grids `render` refuses: a non-finite bound and an extent that overflows.
RENDER_REFUSALS = {"infinite-bound": "-inf,0,0,1", "overflowing-extent": "-1e308,1e308,0,1"}
# Malformed numeric arguments: for each flag, a command whose `{}` takes
# the value, and one value per failure kind (a wrong part count, a part
# that is not a number, one that is not finite, one that is not an integer,
# a cell count below one). `{out}` is the output directory; none is written.
NUMERIC_REFUSALS = {
    "classify-point": (["classify", "--function=z", "--point={}"],
                       {"count": "1,2,3", "numeric": "1,x", "finite": "nan,0"}),
    "orbit-point": (["orbit", "--function=z", "--point={}", "--csv={out}/refusal.csv"],
                    {"count": "1,2,3", "numeric": "1,x", "finite": "nan,0"}),
    "phi": (["verify", "--relation=ConjugacyTransport", "--f=z", "--phi={}", "--samples=list:1,0"],
            {"count": "1,2", "numeric": "1,0,x,0", "finite": "1,0,inf,0"}),
    "grid": (["render", "--function=z", "--grid={}", "--size=2,2", "--ppm={out}/refusal.ppm"],
             {"count": "1,2,3", "numeric": "0,1,a,1", "finite": "0,1,nan,1"}),
    "size": (["render", "--function=z", "--grid=0,1,0,1", "--size={}", "--ppm={out}/refusal.ppm"],
             {"count": "2", "numeric": "2,x", "finite": "2,inf", "integer": "2,1.5", "cells": "0,2"}),
    "samples-bounds": (["verify", "--relation=StripContainment", "--f=z", "--samples=grid:{}:2x2"],
                       {"count": "0,1,0", "numeric": "0,1,a,1", "finite": "-inf,0,0,1"}),
    "samples-size": (["verify", "--relation=StripContainment", "--f=z", "--samples=grid:0,1,0,1:{}"],
                     {"count": "2x2x2", "numeric": "2x", "finite": "2xinf", "integer": "2x1.5",
                      "cells": "0x2"}),
    "samples-point": (["verify", "--relation=StripContainment", "--f=z", "--samples=list:1,0;{}"],
                      {"count": "1,2,3", "numeric": "1,x", "finite": "nan,0"}),
}


def _pair(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _configs(outdir: Path) -> dict[str, list[str]]:
    drift = outdir / "config-drift.json"
    drift.write_text(json.dumps(DRIFT_CFG.to_dict()) + "\n")
    return {"default": [], "drift": ["--config", str(drift)]}


def _records(maps: list[str]) -> str:
    """One line per map, edge seed and config: the peaks and the value at
    the seed; and one per map and tree built from it: the root's repr."""
    configs = {"default": ClassifierConfig(), "drift": DRIFT_CFG}
    lines = []
    for mi, expr in enumerate(maps):
        f = parse(expr)
        for si, seed in enumerate(EDGE_SEEDS):
            for cname, cfg in configs.items():
                peaks = iterate_orbit(f, complex(seed), cfg).peaks
                lines.append(f"map{mi}-seed{si}-{cname}\t{peaks!r}\t{evaluate(f, complex(seed))!r}")
        for tname, tree in (("root", f), ("compose", compose(f, f)), ("conjugate", conjugate(f, 2, 1j))):
            lines.append(f"map{mi}-{tname}\t{tree.root!r}")
    return "\n".join(lines) + "\n"


def write_outputs(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    configs = _configs(outdir)
    entries = [get_example(eid) for eid, _ in list_examples()]
    exits = []

    def run(name: str, argv: list[str], capture: bool = True) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if capture:
            (outdir / name).write_text(out.getvalue())
        first = (err.getvalue().splitlines() or [""])[0]
        exits.append(f"{name}\t{code}\t{first}")

    maps = list(dict.fromkeys(str(m) for e in entries for m in (e.f, e.g) if m is not None))
    for mi, expr in enumerate(maps):
        for si, seed in enumerate(EDGE_SEEDS):
            for cname, cargs in configs.items():
                tag = f"map{mi}-seed{si}-{cname}"
                point = f"--point={_pair(complex(seed))}"
                run(f"classify-{tag}.json", [*cargs, "--format", "json", "classify",
                                            f"--function={expr}", point])
                csv = outdir / f"orbit-{tag}.csv"
                run(csv.name, [*cargs, "orbit", f"--function={expr}", point,
                               "--csv", str(csv)], capture=False)

    for mi, expr in enumerate(maps):
        for gname, (grid, size) in RENDER_GRIDS.items():
            for cname, cargs in configs.items():
                stem = outdir / f"render-map{mi}-{gname}-{cname}"
                run(stem.name, [*cargs, "render", f"--function={expr}", f"--grid={grid}",
                                f"--size={size}", "--ppm", f"{stem}.ppm",
                                "--boundary", f"{stem}.pbm", "--json", f"{stem}.json"],
                    capture=False)

    for name, grid in RENDER_REFUSALS.items():
        run(f"render-refusal-{name}", ["render", "--function=z*z", f"--grid={grid}",
                                        "--size=2,2", "--ppm", str(outdir / f"refusal-{name}.ppm")],
            capture=False)
    for flag, (argv, values) in NUMERIC_REFUSALS.items():
        for kind, value in values.items():
            run(f"numeric-refusal-{flag}-{kind}", [arg.format(value, out=outdir) for arg in argv],
                capture=False)

    for entry in entries:
        g = entry.g if entry.g is not None else entry.f
        a, b = entry.conjugation or (1, 0)
        phi = f"--phi={_pair(complex(a))},{_pair(complex(b))}"
        for rel in RelationId:
            for pname, spec in PLANS.items():
                for cname, cargs in configs.items():
                    for mode in ("inclusion", "equality"):
                        argv = [*cargs, "verify", f"--relation={rel.value}",
                                f"--f={entry.f}", f"--g={g}", phi, f"--samples={spec}"]
                        if mode == "equality":
                            argv.append("--equality")
                        run(f"verify-{entry.id}-{rel.value}-{pname}-{cname}-{mode}.json", argv)

    for name, argv in REFUSALS.items():
        run(f"refusal-{name}.json", ["verify", *argv])
    for tol in TOL_REFUSALS:
        run(f"refusal-tol-{tol}", ["verify", *REFUSALS["affine-not-permutable"], f"--tol={tol}"],
            capture=False)
        run(f"refusal-kswap-tol-{tol}", ["verify", "--relation=KSwap", "--f=z+sin(z)",
                                         "--g=z+sin(z)+2*pi", "--samples=grid:-1,1,-1,1:3x3",
                                         f"--tol={tol}"], capture=False)

    run("examples-list.txt", ["examples", "list"])
    run("examples-list.json", ["--format", "json", "examples", "list"])
    for entry in entries:
        for fmt, ext in (("json", "json"), ("text", "txt")):
            run(f"examples-{entry.id}.{ext}", ["--format", fmt, "examples", "run",
                                               entry.id, "--scale", "1.0"])
    for scale in SCALE_REFUSALS:
        run(f"examples-scale-refusal-{scale}", ["examples", "run", "ex_rational_bungee",
                                                f"--scale={scale}"], capture=False)
    (outdir / "registry.json").write_text(export_registry_json())
    (outdir / "records.tsv").write_text(_records(maps))
    (outdir / "exits.tsv").write_text("\n".join(exits) + "\n")
    print(f"wrote {len(exits) + 2} outputs to {outdir}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tools/parity.py OUTDIR")
    sys.exit(write_outputs(Path(sys.argv[1])))
