"""Command-line interface.

Global flags come before the subcommand::

    bungee [--config PATH] [--workers N] [--out PATH] [--format json|text] CMD ...

Subcommands: ``classify`` (one seed's verdict and orbit summary),
``orbit`` (CSV dump of one orbit), ``render`` (PPM image of a grid,
optional boundary bitmap and JSON), ``verify`` (one relation over a
sample plan, JSON report), ``examples`` (catalog listing and runs).

Numeric arguments are comma-separated finite numbers: ``--point RE,IM``,
``--phi A_RE,A_IM,B_RE,B_IM``, ``--grid REMIN,REMAX,IMMIN,IMMAX``,
``--size NX,NY`` (integers), ``--samples grid:REMIN,REMAX,IMMIN,IMMAX:NXxNY``
or ``--samples list:RE,IM;RE,IM;...``. One reader, `_numbers`, reads them
all and refuses with ``FLAG must be FORM``, then ``FLAG parts must be
numeric``, ``integers`` or ``finite``; a grid `GridSpec` refuses reads
``FLAG: REASON``.

Exit codes: 0 success, 1 usage or expression parse error (including
inputs ``verify`` and ``examples run`` refuse, and an empty file path),
2 runtime error, 3 verify ran cleanly but found violations.

Every file a call writes (``render``'s ``--ppm``, ``--boundary`` and
``--json``, ``orbit --csv`` and the global ``--out``) goes through one
writer, `_write_files`. All contents are built before the first file is
opened. An existing file is overwritten in place and cut to the new
length, never truncated first: on ext4 mounted with ``discard`` (a
two-core Xeon), opening a 3.5 KB file with ``O_TRUNC`` and writing it
again took about 100 us, rewriting it in place about 10 us. A failed
write removes the regular files the call opened, so a failed invocation
leaves no partial file behind; devices and FIFOs are written like files
but never removed or truncated, so ``--ppm /dev/null`` works.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .expr import ExprSyntaxError, parse

if TYPE_CHECKING:
    from .grid import GridSpec
    from .orbit import ClassifierConfig, OrbitRecord
    from .relations import SamplePlan

__all__ = ["main"]

# The engine's names, each imported from its module on the first read of the
# name (PEP 562): a CLI start loads `expr` alone, `classify` and `orbit` add
# `orbit` (which imports `certify`), `render` adds `grid`, and `verify` adds
# `relations`. Commands read them as ``_cli.NAME`` at call time, so a wrapper
# set on ``bungee.cli.NAME``, such as perfbench's tracer, is the one called.
_LAZY = {
    **dict.fromkeys(("ClassifierConfig", "DEFAULT_CONFIG", "classify", "iterate_orbit"), "orbit"),
    **dict.fromkeys(
        ("GridSpec", "classify_grid", "extract_boundary", "raster_to_json", "render_pbm", "render_ppm"), "grid"
    ),
    **dict.fromkeys(("PERMUTABILITY_TOL", "RelationId", "SamplePlan", "verify_relation"), "relations"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __package__), name)
    return value


_cli = sys.modules[__name__]


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _numbers(text: str, flag: str, form: str, sep: str = ",", kind: type = float) -> list:
    """The parts of ``text``, split at ``sep``: as many as ``form`` has, each
    a finite ``kind``. Any failure is a usage error that names ``flag``."""
    parts = text.split(sep)
    if len(parts) != len(form.split(sep)):
        raise _UsageError(f"{flag} must be {form}")
    try:
        nums = [kind(p) for p in parts]
    except ValueError:
        raise _UsageError(f"{flag} parts must be {'integers' if kind is int else 'numeric'}") from None
    if kind is float and not all(map(math.isfinite, nums)):
        raise _UsageError(f"{flag} parts must be finite")
    return nums


def _grid(flag: str, bounds: list[float], size: list[int]) -> GridSpec:
    try:
        return _cli.GridSpec(*bounds, *size)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from None


def _parse_samples(text: str) -> SamplePlan:
    if text.startswith("grid:"):
        pieces = text[len("grid:") :].split(":")
        if len(pieces) != 2:
            raise _UsageError("--samples must be grid:REMIN,REMAX,IMMIN,IMMAX:NXxNY")
        bounds = _numbers(pieces[0], "--samples grid bounds", "REMIN,REMAX,IMMIN,IMMAX")
        size = _numbers(pieces[1].lower(), "--samples grid size", "NXxNY", "x", int)
        return _cli.SamplePlan(kind="grid", spec=_grid("--samples", bounds, size))
    if text.startswith("list:"):
        items = text[len("list:") :].split(";")
        points = [complex(*_numbers(item, "--samples sample point", "RE,IM")) for item in items if item]
        if not points:
            raise _UsageError("--samples list form needs at least one RE,IM point")
        return _cli.SamplePlan.explicit(points)
    raise _UsageError("--samples must start with grid: or list:")


def _load_config(path: Optional[str]) -> ClassifierConfig:
    if path is None:
        return _cli.DEFAULT_CONFIG
    try:
        return _cli.ClassifierConfig.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:  # also malformed JSON, and bytes that are not UTF-8, which JSON requires
        raise _UsageError(f"config {path}: {exc}") from None


def _write_files(outputs: list[tuple[str, bytes]]) -> None:
    """Write each ``(path, blob)`` of ``outputs``, in order, in place:
    opened without ``O_TRUNC``, written whole, then, if a regular file,
    cut to the blob's length. On `OSError` the regular files opened so far
    are removed before it propagates, named with the path it failed on;
    other targets, such as devices, are left alone."""
    regular: list[str] = []
    try:
        for path, blob in outputs:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                is_file = stat.S_ISREG(os.fstat(fd).st_mode)
                if is_file:
                    regular.append(path)
                view = memoryview(blob)
                while view:  # os.write may write less than it is given
                    view = view[os.write(fd, view):]
                if is_file:
                    os.ftruncate(fd, len(blob))
            finally:
                os.close(fd)
    except OSError as exc:
        for done in regular:
            Path(done).unlink(missing_ok=True)
        if exc.filename is None:  # os.write, os.fstat and os.ftruncate name no file
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        _write_files([(out, (text if text.endswith("\n") else text + "\n").encode())])


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
    seed = complex(*_numbers(ns.point, "--point", "RE,IM"))
    rec = _cli.iterate_orbit(f, seed, cfg)
    verdict = _cli.classify(rec, cfg)
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
    seed = complex(*_numbers(ns.point, "--point", "RE,IM"))
    rec = _cli.iterate_orbit(f, seed, cfg)
    lines = ["n,re,im,modulus"]
    for n, (v, m) in enumerate(zip(rec.values, rec.moduli)):
        lines.append(f"{n},{float(v.real)!r},{float(v.imag)!r},{float(m)!r}")
    lines.append(f"# termination={rec.termination!r}")
    _write_files([(ns.csv, ("\n".join(lines) + "\n").encode())])
    return 0


def _cmd_render(ns) -> int:
    cfg = _load_config(ns.config)
    f = parse(ns.function)
    bounds = _numbers(ns.grid, "--grid", "REMIN,REMAX,IMMIN,IMMAX")
    spec = _grid("--grid/--size", bounds, _numbers(ns.size, "--size", "NX,NY", kind=int))
    raster = _cli.classify_grid(f, spec, cfg)
    outputs: list[tuple[str, bytes]] = [(ns.ppm, _cli.render_ppm(raster))]
    if ns.boundary:
        outputs.append((ns.boundary, _cli.render_pbm(_cli.extract_boundary(raster))))
    if ns.json_path:
        outputs.append((ns.json_path, _cli.raster_to_json(raster).encode("ascii")))
    _write_files(outputs)
    return 0


def _cmd_verify(ns) -> int:
    try:  # the parser does not know the relations: it would import them at every start
        relation = _cli.RelationId(ns.relation)
    except ValueError:
        names = ", ".join(repr(rel.value) for rel in _cli.RelationId)
        raise _UsageError(f"argument --relation: invalid choice: {ns.relation!r} (choose from {names})") from None
    cfg = _load_config(ns.config)
    f = parse(ns.f)
    g = parse(ns.g) if ns.g else None
    a = b = None
    if ns.phi:
        nums = _numbers(ns.phi, "--phi", "A_RE,A_IM,B_RE,B_IM")
        a, b = complex(*nums[:2]), complex(*nums[2:])
    plan = _parse_samples(ns.samples)
    try:
        report = _cli.verify_relation(
            relation,
            f,
            plan,
            g=g,
            a=a,
            b=b,
            cfg=cfg,
            tol=_cli.PERMUTABILITY_TOL if ns.tol is None else ns.tol,
            equality=ns.equality,
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
    try:  # an unknown id or a bad scale fails before any work
        registry.get_example(ns.id)
        registry._check_scale(ns.scale)
    except (KeyError, ValueError) as exc:
        raise _UsageError(exc.args[0]) from None
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
        "--relation", required=True, metavar="NAME", help="the relation to check; an unknown name lists them all"
    )
    v.add_argument("--f", required=True, metavar="EXPR")
    v.add_argument("--g", metavar="EXPR")
    v.add_argument("--phi", metavar="A_RE,A_IM,B_RE,B_IM")
    v.add_argument("--samples", required=True, metavar="SPEC")
    v.add_argument("--tol", type=float)
    v.add_argument("--equality", action="store_true")

    e = sub.add_parser("examples", help="list or run catalog entries", parents=[common])
    esub = e.add_subparsers(dest="action", required=True)
    esub.add_parser("list", parents=[common])
    run_p = esub.add_parser("run", parents=[common])
    run_p.add_argument("id")
    run_p.add_argument("--scale", type=float, default=1.0)
    return p


# The flags that take a file path, with their attribute on the namespace.
_PATH_FLAGS = (
    ("--config", "config"),
    ("--out", "out"),
    ("--csv", "csv"),
    ("--ppm", "ppm"),
    ("--boundary", "boundary"),
    ("--json", "json_path"),
)

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
        for flag, dest in _PATH_FLAGS:
            if getattr(ns, dest, None) == "":  # Path("") would name the directory "."
                raise _UsageError(f"{flag} needs a file path")
        return _DISPATCH[ns.command](ns)
    except (_UsageError, ExprSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
