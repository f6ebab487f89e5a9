"""Command-line interface.

Global flags come before the subcommand::

    bungee [--config PATH] [--workers N] [--out PATH] [--format json|text] CMD ...

Subcommands: ``classify`` (one seed's verdict and orbit summary),
``orbit`` (CSV dump of one orbit), ``render`` (PPM image of a grid,
optional boundary bitmap and JSON), ``verify`` (one relation over a
sample plan, JSON report), ``examples`` (catalog listing and runs).

Exit codes: 0 success, 1 usage or expression parse error (including
inputs ``verify`` and ``examples run`` refuse), 2 runtime error, 3 verify
ran cleanly but found violations. All file contents are built before any
output file is opened, and a failed write removes the files the call
already wrote, so failed invocations leave no partial files behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Optional

from .expr import ExprSyntaxError, parse
from .grid import (
    GridSpec,
    classify_grid,
    extract_boundary,
    raster_to_json,
    render_pbm,
    render_ppm,
)
from .orbit import (
    ClassifierConfig,
    DEFAULT_CONFIG,
    OrbitRecord,
    classify,
    iterate_orbit,
)
from .relations import PERMUTABILITY_TOL, RelationId, SamplePlan, verify_relation

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _parse_complex(text: str, what: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"{what} must be RE,IM")
    try:
        re, im = float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"{what} must be RE,IM with numeric parts") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise _UsageError(f"{what} parts must be finite")
    return complex(re, im)


def _parse_phi(text: str) -> tuple[complex, complex]:
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError("--phi must be A_RE,A_IM,B_RE,B_IM")
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise _UsageError("--phi parts must be numeric") from None
    if not all(math.isfinite(x) for x in nums):
        raise _UsageError("--phi parts must be finite")
    return complex(nums[0], nums[1]), complex(nums[2], nums[3])


def _parse_grid_arg(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError("--grid must be REMIN,REMAX,IMMIN,IMMAX")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError:
        raise _UsageError("--grid parts must be numeric") from None
    return vals


def _parse_size(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError("--size must be NX,NY")
    try:
        nx, ny = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError("--size parts must be integers") from None
    if nx < 1 or ny < 1:
        raise _UsageError("--size parts must be positive")
    return nx, ny


def _parse_samples(text: str) -> SamplePlan:
    if text.startswith("grid:"):
        body = text[len("grid:") :]
        pieces = body.split(":")
        if len(pieces) != 2:
            raise _UsageError("--samples grid form is grid:REMIN,REMAX,IMMIN,IMMAX:NXxNY")
        bounds = pieces[0].split(",")
        dims = pieces[1].lower().split("x")
        if len(bounds) != 4 or len(dims) != 2:
            raise _UsageError("--samples grid form is grid:REMIN,REMAX,IMMIN,IMMAX:NXxNY")
        try:
            re_min, re_max, im_min, im_max = (float(p) for p in bounds)
            nx, ny = int(dims[0]), int(dims[1])
        except ValueError:
            raise _UsageError("--samples grid parts must be numeric") from None
        try:
            return SamplePlan.grid(re_min, re_max, im_min, im_max, nx, ny)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    if text.startswith("list:"):
        body = text[len("list:") :]
        points = []
        for item in body.split(";"):
            if item:
                points.append(_parse_complex(item, "sample point"))
        if not points:
            raise _UsageError("--samples list form needs at least one RE,IM point")
        return SamplePlan.explicit(points)
    raise _UsageError("--samples must start with grid: or list:")


def _load_config(path: Optional[str]) -> ClassifierConfig:
    if path is None:
        return DEFAULT_CONFIG
    text = Path(path).read_text()
    try:
        return ClassifierConfig.from_dict(json.loads(text))
    except ValueError as exc:  # also malformed JSON
        raise _UsageError(f"config {path}: {exc}") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _orbit_summary(rec: OrbitRecord, verdict) -> dict:
    return {
        "verdict": str(verdict),
        "seed": [rec.seed.real, rec.seed.imag],
        "termination": repr(rec.termination),
        "steps": len(rec.values) - 1,
        "returns": rec.returns,
        "peaks": len(rec.peaks),
        "global_max": rec.global_max,
    }


def _cmd_classify(ns) -> int:
    cfg = _load_config(ns.config)
    f = parse(ns.function)
    seed = _parse_complex(ns.point, "--point")
    rec = iterate_orbit(f, seed, cfg)
    verdict = classify(rec, cfg)
    doc = _orbit_summary(rec, verdict)
    if ns.format == "json":
        _emit(json.dumps(doc), ns.out)
    else:
        stats = " ".join(f"{k}={doc[k]}" for k in ("termination", "steps", "returns", "peaks", "global_max"))
        _emit(f"{doc['verdict']}\n{stats}", ns.out)
    return 0


def _cmd_orbit(ns) -> int:
    cfg = _load_config(ns.config)
    f = parse(ns.function)
    seed = _parse_complex(ns.point, "--point")
    rec = iterate_orbit(f, seed, cfg)
    lines = ["n,re,im,modulus"]
    for n, (v, m) in enumerate(zip(rec.values, rec.moduli)):
        lines.append(f"{n},{float(v.real)!r},{float(v.imag)!r},{float(m)!r}")
    lines.append(f"# termination={rec.termination!r}")
    Path(ns.csv).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_render(ns) -> int:
    cfg = _load_config(ns.config)
    f = parse(ns.function)
    re_min, re_max, im_min, im_max = _parse_grid_arg(ns.grid)
    nx, ny = _parse_size(ns.size)
    try:
        spec = GridSpec(re_min, re_max, im_min, im_max, nx, ny)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    raster = classify_grid(f, spec, cfg, workers=ns.workers)
    outputs: list[tuple[str, bytes]] = [(ns.ppm, render_ppm(raster))]
    if ns.boundary:
        outputs.append((ns.boundary, render_pbm(extract_boundary(raster))))
    if ns.json_path:
        outputs.append((ns.json_path, raster_to_json(raster).encode("ascii")))
    written: list[str] = []
    try:
        for path, blob in outputs:
            with open(path, "wb") as fh:
                written.append(path)
                fh.write(blob)
    except OSError:  # remove every file this call opened
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise
    return 0


def _cmd_verify(ns) -> int:
    cfg = _load_config(ns.config)
    f = parse(ns.f)
    g = parse(ns.g) if ns.g else None
    a = b = None
    if ns.phi:
        a, b = _parse_phi(ns.phi)
    plan = _parse_samples(ns.samples)
    try:
        report = verify_relation(
            RelationId(ns.relation),
            f,
            plan,
            g=g,
            a=a,
            b=b,
            cfg=cfg,
            tol=ns.tol,
            equality=ns.equality,
            workers=ns.workers,
        )
    except ValueError as exc:  # a missing argument or a refused pair
        raise _UsageError(str(exc)) from None
    _emit(report.to_json(), ns.out)
    return 3 if report.violation_rate > 0 else 0


def _cmd_examples(ns) -> int:
    from . import registry  # the catalog is imported only by the command that reads it

    if ns.action == "list":
        entries = registry.list_examples()
        if ns.format == "json":
            _emit(json.dumps([{"id": i, "summary": s} for i, s in entries]), ns.out)
        else:
            _emit("\n".join(f"{i}: {s}" for i, s in entries), ns.out)
        return 0
    registry.get_example(ns.id)  # unknown ids fail before any work
    try:
        registry._check_scale(ns.scale)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    report = registry.run_example(ns.id, cfg=_load_config(ns.config), scale=ns.scale)
    if ns.format == "json":
        _emit(report.to_json(), ns.out)
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.description} {json.dumps(r.measured)}"
            for r in report.results
        ]
        lines.append(
            f"passed {sum(r.passed for r in report.results)}/{len(report.results)}"
        )
        _emit("\n".join(lines), ns.out)
    return 0


def _add_globals(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # On subparsers the defaults are suppressed so a flag given before
    # the subcommand is not clobbered by a subparser default.
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--config", metavar="PATH", default=dflt(None),
        help="JSON classifier configuration",
    )
    parser.add_argument(
        "--workers", type=int, metavar="N", default=dflt(1),
        help="accepted for compatibility; changes neither speed nor output",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=dflt(None),
        help="write primary output here instead of stdout",
    )
    parser.add_argument("--format", choices=("json", "text"), default=dflt("text"))


@functools.cache  # built once per process: parsing leaves the parser unchanged
def _build_parser() -> _ArgumentParser:
    p = _ArgumentParser(
        prog="bungee",
        description="Classify orbits of entire maps and verify set relations.",
        epilog="Values starting with '-' need the --flag=value form, "
        "e.g. --grid=-2,2,-2,2.",
    )
    _add_globals(p, suppress=False)
    common = _ArgumentParser(add_help=False)
    _add_globals(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify one seed", parents=[common])
    c.add_argument("--function", required=True, metavar="EXPR")
    c.add_argument("--point", required=True, metavar="RE,IM")

    o = sub.add_parser("orbit", help="dump one orbit as CSV", parents=[common])
    o.add_argument("--function", required=True, metavar="EXPR")
    o.add_argument("--point", required=True, metavar="RE,IM")
    o.add_argument("--csv", required=True, metavar="PATH")

    r = sub.add_parser(
        "render", help="classify a grid and write images", parents=[common]
    )
    r.add_argument("--function", required=True, metavar="EXPR")
    r.add_argument("--grid", required=True, metavar="REMIN,REMAX,IMMIN,IMMAX")
    r.add_argument("--size", required=True, metavar="NX,NY")
    r.add_argument("--ppm", required=True, metavar="PATH")
    r.add_argument("--boundary", metavar="PATH")
    r.add_argument("--json", dest="json_path", metavar="PATH")

    v = sub.add_parser(
        "verify", help="verify one relation over samples", parents=[common]
    )
    v.add_argument(
        "--relation", required=True, choices=[rel.value for rel in RelationId]
    )
    v.add_argument("--f", required=True, metavar="EXPR")
    v.add_argument("--g", metavar="EXPR")
    v.add_argument("--phi", metavar="A_RE,A_IM,B_RE,B_IM")
    v.add_argument("--samples", required=True, metavar="SPEC")
    v.add_argument("--tol", type=float, default=PERMUTABILITY_TOL)
    v.add_argument("--equality", action="store_true")

    e = sub.add_parser("examples", help="list or run catalog entries", parents=[common])
    esub = e.add_subparsers(dest="action", required=True)
    esub.add_parser("list", parents=[common])
    run_p = esub.add_parser("run", parents=[common])
    run_p.add_argument("id")
    run_p.add_argument("--scale", type=float, default=1.0)
    return p


_DISPATCH = {
    "classify": _cmd_classify,
    "orbit": _cmd_orbit,
    "render": _cmd_render,
    "verify": _cmd_verify,
    "examples": _cmd_examples,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        if ns.workers < 1:
            raise _UsageError("--workers must be at least 1")
        if ns.config == "":  # Path("") would read the directory "."
            raise _UsageError("--config needs a file path")
        return _DISPATCH[ns.command](ns)
    except (_UsageError, ExprSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
