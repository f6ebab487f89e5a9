"""End-to-end command-line behavior, exercised in process."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bungee.registry
from bungee import ClassifierConfig, RelationId, cli
from bungee.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def drift_config(tmp_path):
    path = tmp_path / "drift.json"
    path.write_text(json.dumps({"max_iter": 2000, "r_bound": 100.0, "r_esc": 1e3}))
    return str(path)


# --- classify ------------------------------------------------------------


def test_classify_bounded_seed():
    code, out, err = run(["classify", "--function", "z+sin(z)", "--point", "0,0"])
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "Bounded"


def test_classify_drift_with_config_file(drift_config):
    code, out, _ = run(
        [
            "--config",
            drift_config,
            "classify",
            "--function",
            "z+sin(z)+2*pi",
            "--point",
            "0,0",
        ]
    )
    assert code == 0
    assert out.splitlines()[0] == "Escaping"


def test_classify_json_document():
    code, out, _ = run(
        ["classify", "--function", "1/pow(z,2)", "--point", "0.5,0", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["verdict", "seed", "termination", "steps", "returns", "peaks", "global_max"]
    assert doc["verdict"] == "Bungee"
    assert doc["seed"] == [0.5, 0.0]
    # 0.5 lies inside 0 < |z| <= r: Bungee by proof at the seed, before one step.
    assert doc["termination"] == "CertifiedBungee(step=0, region='|z| >= 1.0009765625 or 0 < |z| <= 0.9990243902439023')"
    assert doc["steps"] == 0 and doc["returns"] == 0 and doc["peaks"] == 0
    assert doc["global_max"] == 0.5


def test_global_flags_accepted_on_either_side_of_the_subcommand():
    before = run(["--format", "json", "classify", "--function", "z", "--point", "1,0"])
    after = run(["classify", "--function", "z", "--point", "1,0", "--format", "json"])
    assert before == after
    assert before[0] == 0


def test_classify_out_file(tmp_path):
    target = tmp_path / "verdict.txt"
    code, out, _ = run(
        ["classify", "--function", "z", "--point", "1,0", "--out", str(target)]
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0] == "Bounded"


# --- orbit ---------------------------------------------------------------


def test_orbit_csv_dump(tmp_path):
    target = tmp_path / "orbit.csv"
    code, _, _ = run(
        ["orbit", "--function", "1/pow(z,2)", "--point", "0.5,0", "--csv", str(target)]
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "n,re,im,modulus"
    assert lines[1] == "0,0.5,0.0,0.5"
    assert len(lines) == 3  # header + iterate 0, inside the Bungee region + termination comment
    assert lines[-1] == "# termination=CertifiedBungee(step=0, region='|z| >= 1.0009765625 or 0 < |z| <= 0.9990243902439023')"


@pytest.mark.parametrize("point", ["nan,0", "inf,0", "1e400,0", "0,-inf"])
@pytest.mark.parametrize("command", ["classify", "orbit"])
def test_non_finite_point_is_usage_error(tmp_path, command, point):
    target = tmp_path / "orbit.csv"
    extra = ["--csv", str(target)] if command == "orbit" else []
    code, out, err = run([command, "--function", "z", f"--point={point}", *extra])
    assert (code, out) == (1, "")
    assert "--point parts must be finite" in err
    assert not target.exists()


def test_orbit_rejects_malformed_point(tmp_path):
    target = tmp_path / "orbit.csv"
    code, _, err = run(
        ["orbit", "--function", "z", "--point", "1;2", "--csv", str(target)]
    )
    assert code == 1
    assert "error:" in err
    assert not target.exists()


# --- render --------------------------------------------------------------


def test_render_writes_expected_ppm(tmp_path):
    ppm = tmp_path / "flat.ppm"
    code, _, _ = run(
        [
            "render",
            "--function",
            "z",
            "--grid=-1,1,-1,1",
            "--size",
            "2,2",
            "--ppm",
            str(ppm),
        ]
    )
    assert code == 0
    assert ppm.read_bytes() == b"P6\n2 2\n255\n" + bytes([230] * 12)


def test_render_side_outputs(tmp_path):
    ppm = tmp_path / "r.ppm"
    pbm = tmp_path / "r.pbm"
    doc = tmp_path / "r.json"
    code, _, _ = run(
        [
            "render",
            "--function",
            "z",
            "--grid=-1,1,-1,1",
            "--size",
            "2,2",
            "--ppm",
            str(ppm),
            "--boundary",
            str(pbm),
            "--json",
            str(doc),
        ]
    )
    assert code == 0
    assert pbm.read_bytes() == b"P1\n2 2\n0 0\n0 0\n"
    raster = json.loads(doc.read_text())
    assert raster["codes"] == [1, 1, 1, 1]
    assert raster["spec"]["nx"] == 2 and raster["spec"]["ny"] == 2


def test_render_is_worker_invariant(tmp_path):
    outputs = []
    for workers in ("1", "4"):
        path = tmp_path / f"w{workers}.ppm"
        code, _, _ = run(
            [
                "render",
                "--function",
                "1/pow(z,2)",
                "--grid=-1.5,1.5,-1.5,1.5",
                "--size",
                "16,12",
                "--ppm",
                str(path),
                "--workers",
                workers,
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_render_usage_error_leaves_no_files(tmp_path):
    ppm = tmp_path / "never.ppm"
    code, _, err = run(
        [
            "render",
            "--function",
            "z",
            "--grid=-1,1,-1,1",
            "--size",
            "2x2",
            "--ppm",
            str(ppm),
        ]
    )
    assert code == 1
    assert "error:" in err
    assert not ppm.exists()


def test_render_failed_write_removes_the_files_already_written(tmp_path):
    ppm, pbm = tmp_path / "a.ppm", tmp_path / "missing_dir" / "b.pbm"
    code, _, err = run(
        ["render", "--function", "z*z", "--grid=-1,1,-1,1", "--size", "4,4", "--ppm", str(ppm), "--boundary", str(pbm)]
    )
    assert code == 2 and "b.pbm" in err
    assert list(tmp_path.iterdir()) == []


RENDER_ARGV = ["render", "--function", "1/pow(z,2)", "--grid=-1.5,1.5,-1.5,1.5", "--size", "16,12"]
RENDER_NAMES = ("r.ppm", "r.pbm", "r.json")


def render_into(directory: Path) -> list[bytes]:
    """The bytes of `RENDER_ARGV`'s PPM, boundary and JSON outputs, written to `RENDER_NAMES` in ``directory``."""
    ppm, pbm, doc = (directory / name for name in RENDER_NAMES)
    assert run([*RENDER_ARGV, "--ppm", str(ppm), "--boundary", str(pbm), "--json", str(doc)]) == (0, "", "")
    return [path.read_bytes() for path in (ppm, pbm, doc)]


@pytest.mark.parametrize("stale", ["longer", "shorter"])
def test_render_over_an_existing_file_writes_the_bytes_of_a_fresh_one(tmp_path, stale):
    """Outputs are overwritten in place, then cut to length: over a file
    longer or shorter than the new output, the bytes are those written to
    a fresh path."""
    (tmp_path / "fresh").mkdir()
    fresh = render_into(tmp_path / "fresh")
    (tmp_path / "stale").mkdir()
    for name, blob in zip(RENDER_NAMES, fresh):
        size = len(blob) + 1000 if stale == "longer" else len(blob) // 3
        (tmp_path / "stale" / name).write_bytes(b"\xff" * size)
    assert render_into(tmp_path / "stale") == fresh


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize(
    "argv",
    [
        [*RENDER_ARGV, "--ppm", "/dev/null"],
        ["--out", "/dev/null", "classify", "--function", "z", "--point", "1,0"],
    ],
    ids=["render", "out"],
)
def test_writing_to_dev_null_leaves_the_device(argv):
    """A device is written like a file, but neither cut to length nor removed."""
    assert run(argv) == (0, "", "")
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)


@pytest.mark.skipif(os.name != "posix", reason="needs resource.RLIMIT_FSIZE and preexec_fn")
@pytest.mark.parametrize(
    "argv",
    [
        ["render", "--function", "z*z", "--grid=-1,1,-1,1", "--size", "8,8", "--ppm", "{dir}/a.ppm",
         "--boundary", "{dir}/a.pbm"],
        ["orbit", "--function", "exp(1*i)*z", "--point", "0.9,0", "--csv", "{dir}/o.csv"],
        ["--out", "{dir}/v.txt", "classify", "--function", "z", "--point", "1,0"],
    ],
    ids=["render", "orbit-csv", "out"],
)
def test_failed_write_leaves_no_file(tmp_path, argv):
    """A write that fails part way, here on a file-size limit of 16 bytes
    set in the child process alone (CPython ignores SIGXFSZ, so the write
    raises EFBIG), exits 2, names the file and removes it. The first file
    each call writes, the one named after ``{dir}/``, is the one that fails."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_FSIZE, (16, 16))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "bungee.cli", *(arg.format(dir=tmp_path) for arg in argv)],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120,
    )
    assert (done.returncode, done.stdout) == (2, "")
    failed = next(arg for arg in argv if arg.startswith("{dir}/")).format(dir=tmp_path)
    assert done.stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {failed!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_render_keeps_a_link_to_a_device(tmp_path):
    """A write to ``/dev/full`` fails with ENOSPC: the call removes the
    regular file it wrote before, but not the link that named the device,
    nor the device, and names the link."""
    ppm, link = tmp_path / "a.ppm", tmp_path / "full"
    link.symlink_to("/dev/full")
    code, _, err = run(
        ["render", "--function", "z*z", "--grid=-1,1,-1,1", "--size", "4,4", "--ppm", str(ppm), "--boundary", str(link)]
    )
    assert code == 2 and err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: {str(link)!r}\n"
    assert list(tmp_path.iterdir()) == [link] and link.is_symlink()
    assert stat.S_ISCHR(os.stat("/dev/full").st_mode)


# --- verify --------------------------------------------------------------


def test_verify_kswap_grid_samples():
    code, out, _ = run(
        [
            "verify",
            "--relation",
            "KSwap",
            "--f",
            "z+sin(z)",
            "--g",
            "z+sin(z)+2*pi",
            "--samples",
            "grid:-1,1,-1,1:10x10",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "KSwap"
    assert doc["sample_count"] == 100
    assert doc["violation_rate"] == 0.0


def test_verify_exit_three_on_violations(tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = run(
        [
            "verify",
            "--relation",
            "DisjointKandBU",
            "--f",
            "z+sin(z)",
            "--g",
            "z+sin(z)",
            "--samples",
            "grid:-1,1,-1,1:3x3",
            "--out",
            str(target),
        ]
    )
    assert code == 3
    doc = json.loads(target.read_text())
    assert doc["violation_rate"] > 0
    assert doc["violations"]


def test_verify_conjugacy_with_phi():
    code, out, _ = run(
        [
            "verify",
            "--relation",
            "ConjugacyTransport",
            "--f",
            "0.3*exp(z)",
            "--phi",
            "2,0,1,0",
            "--samples",
            "grid:-2,2,-2,2:4x4",
        ]
    )
    assert code == 0
    assert json.loads(out)["violation_rate"] == 0.0


def test_verify_conjugacy_leaves_an_overflowing_image_unresolved():
    argv = ["verify", "--relation", "ConjugacyTransport", "--f", "0.3*exp(z)", "--phi=2,0,1,0",
            "--samples", "list:1e308,0;0.5,0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["sample_count"] == 2 and doc["evaluated_count"] == 1


def test_verify_writes_an_overflowing_deviation_as_strict_json():
    """The constant 1e308 and -z give f(g(z)) = 1e308 and g(f(z)) = -1e308,
    whose difference overflows: the report gives the deviation as the
    largest double, a JSON number, and writes nothing to stderr."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    argv = ["verify", "--relation", "EscapingInvariance", "--f=1e308", "--g=-z", "--samples=grid:-1,1,-1,1:3x3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(argv)
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_constant=refuse)
    assert doc["permutability"] == {"checked": 9, "max_dev": sys.float_info.max}


def test_verify_list_samples():
    code, out, _ = run(
        [
            "verify",
            "--relation",
            "StripContainment",
            "--f",
            "exp(-z-1)+1",
            "--samples",
            "list:1,0;-0.5,0.25",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sample_count"] == 2
    assert doc["plan"]["kind"] == "list"


def test_verify_rejects_unknown_relation():
    """The parser takes any name; `verify` refuses one that is no relation
    and names all ten, in argparse's words."""
    code, out, err = run(
        ["verify", "--relation", "Nope", "--f", "z", "--samples", "list:0,0"]
    )
    assert code == 1 and out == ""
    names = ", ".join(repr(rel.value) for rel in RelationId)
    assert err == f"error: argument --relation: invalid choice: 'Nope' (choose from {names})\n"
    assert len(RelationId) == 10


@pytest.mark.parametrize(
    "grid, message",
    [("--grid=-inf,0,0,1", "finite"), ("--grid=0,1,nan,1", "finite"), ("--grid=-1e308,1e308,0,1", "overflows")],
    ids=["infinite-bound", "nan-bound", "overflowing-extent"],
)
def test_render_bad_grid_is_usage_error(tmp_path, grid, message):
    ppm = tmp_path / "never.ppm"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["render", "--function", "z*z", grid, "--size", "2,2", "--ppm", str(ppm)])
    assert code == 1
    assert message in err and out == ""
    assert not ppm.exists()


@pytest.mark.parametrize(
    "spec, message",
    [("grid:-inf,0,0,1:2x2", "finite"), ("grid:0,1,-1e308,1e308:2x2", "overflows")],
    ids=["infinite-bound", "overflowing-extent"],
)
def test_verify_bad_sample_grid_is_usage_error(spec, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["verify", "--relation", "StripContainment", "--f", "z", f"--samples={spec}"])
    assert code == 1
    assert message in err and out == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--f", "z", "--samples", "list:nan,0"], "sample point parts must be finite"),
        (["--f", "z", "--samples", "list:1,0;1e400,0"], "sample point parts must be finite"),
        (["--f", "z*z", "--phi=nan,0,0,0", "--samples", "list:1,0"], "--phi parts must be finite"),
        (["--f", "z*z", "--phi=1,0,inf,0", "--samples", "list:1,0"], "--phi parts must be finite"),
    ],
    ids=["nan-sample", "overflowing-sample", "nan-phi", "infinite-phi"],
)
def test_verify_non_finite_input_is_usage_error(flags, message):
    code, out, err = run(["verify", "--relation", "ConjugacyTransport", *flags])
    assert (code, out) == (1, "")
    assert message in err


# Every numeric argument, with one malformed value per failure kind: a
# wrong part count, a non-numeric part, a non-finite part and, for cell
# counts, a non-integer one, and the exact message each gives. Every call
# names a file under {dir} that it must not write.
_CLASSIFY = ["--out", "{dir}/out.txt", "classify", "--function=z", "--point={}"]
_ORBIT = ["orbit", "--function=z", "--point={}", "--csv={dir}/o.csv"]
_PHI = ["--out", "{dir}/out.txt", "verify", "--relation=ConjugacyTransport", "--f=z", "--phi={}",
        "--samples=list:1,0"]
_GRID = ["render", "--function=z", "--grid={}", "--size=2,2", "--ppm={dir}/a.ppm"]
_SIZE = ["render", "--function=z", "--grid=0,1,0,1", "--size={}", "--ppm={dir}/a.ppm"]
_SAMPLES = ["--out", "{dir}/out.txt", "verify", "--relation=StripContainment", "--f=z", "--samples={}"]
_NUMERIC_REFUSALS = [
    *(
        pytest.param(argv, value, "--point", message, id=f"{name}-point-{kind}")
        for name, argv in (("classify", _CLASSIFY), ("orbit", _ORBIT))
        for kind, value, message in (
            ("count", "1,2,3", "--point must be RE,IM"),
            ("numeric", "1,x", "--point parts must be numeric"),
            ("finite", "nan,0", "--point parts must be finite"),
        )
    ),
    pytest.param(_PHI, "1,2", "--phi", "--phi must be A_RE,A_IM,B_RE,B_IM", id="phi-count"),
    pytest.param(_PHI, "1,0,x,0", "--phi", "--phi parts must be numeric", id="phi-numeric"),
    pytest.param(_PHI, "1,0,inf,0", "--phi", "--phi parts must be finite", id="phi-finite"),
    pytest.param(_GRID, "1,2,3", "--grid", "--grid must be REMIN,REMAX,IMMIN,IMMAX", id="grid-count"),
    pytest.param(_GRID, "0,1,a,1", "--grid", "--grid parts must be numeric", id="grid-numeric"),
    pytest.param(_GRID, "0,1,nan,1", "--grid", "--grid parts must be finite", id="grid-finite"),
    pytest.param(_GRID, "1,0,0,1", "--grid", "--grid/--size: grid rectangle must have positive extent",
                 id="grid-extent"),
    pytest.param(_SIZE, "2", "--size", "--size must be NX,NY", id="size-count"),
    pytest.param(_SIZE, "2,x", "--size", "--size parts must be integers", id="size-numeric"),
    pytest.param(_SIZE, "2,inf", "--size", "--size parts must be integers", id="size-finite"),
    pytest.param(_SIZE, "2,1.5", "--size", "--size parts must be integers", id="size-integer"),
    pytest.param(_SIZE, "0,2", "--size", "--grid/--size: grid must have at least one cell per axis",
                 id="size-cells"),
    pytest.param(_SAMPLES, "grid:0,1,0,1", "--samples", "--samples must be grid:REMIN,REMAX,IMMIN,IMMAX:NXxNY",
                 id="samples-grid-form"),
    pytest.param(_SAMPLES, "grid:0,1,0:2x2", "--samples",
                 "--samples grid bounds must be REMIN,REMAX,IMMIN,IMMAX", id="samples-bounds-count"),
    pytest.param(_SAMPLES, "grid:0,1,a,1:2x2", "--samples", "--samples grid bounds parts must be numeric",
                 id="samples-bounds-numeric"),
    pytest.param(_SAMPLES, "grid:-inf,0,0,1:2x2", "--samples", "--samples grid bounds parts must be finite",
                 id="samples-bounds-finite"),
    pytest.param(_SAMPLES, "grid:0,1,0,1:2x2x2", "--samples", "--samples grid size must be NXxNY",
                 id="samples-size-count"),
    pytest.param(_SAMPLES, "grid:0,1,0,1:2x", "--samples", "--samples grid size parts must be integers",
                 id="samples-size-numeric"),
    pytest.param(_SAMPLES, "grid:0,1,0,1:2xinf", "--samples", "--samples grid size parts must be integers",
                 id="samples-size-finite"),
    pytest.param(_SAMPLES, "grid:0,1,0,1:2x1.5", "--samples", "--samples grid size parts must be integers",
                 id="samples-size-integer"),
    pytest.param(_SAMPLES, "grid:0,1,0,1:0x2", "--samples", "--samples: grid must have at least one cell per axis",
                 id="samples-size-cells"),
    pytest.param(_SAMPLES, "list:1,0;1,2,3", "--samples", "--samples sample point must be RE,IM",
                 id="samples-point-count"),
    pytest.param(_SAMPLES, "list:1,x", "--samples", "--samples sample point parts must be numeric",
                 id="samples-point-numeric"),
    pytest.param(_SAMPLES, "list:1,0;nan,0", "--samples", "--samples sample point parts must be finite",
                 id="samples-point-finite"),
]


@pytest.mark.parametrize("argv, value, flag, message", _NUMERIC_REFUSALS)
def test_malformed_numeric_argument_is_usage_error(tmp_path, argv, value, flag, message):
    code, out, err = run([arg.format(value, dir=tmp_path) for arg in argv])
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert flag in err
    assert list(tmp_path.iterdir()) == []


def test_verify_runtime_error_is_exit_two():
    # AffineBungeeEqual refuses non-commuting pairs after parsing fine;
    # the pair is the user's input, so the refusal is a usage error.
    code, _, err = run(
        [
            "verify",
            "--relation",
            "AffineBungeeEqual",
            "--f",
            "1/pow(z,2)",
            "--phi",
            "0.5,0,1,0",
            "--samples",
            "grid:0.2,0.8,0.2,0.8:3x3",
        ]
    )
    assert code == 1
    assert "permutable" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            [
                "--relation=AffineBungeeEqual",
                "--f=z+1+exp(-z)",
                "--g=z+1+exp(-z)+2*pi*i",
                "--phi=2,0,1,0",
                "--samples=grid:-2,2,-2,2:7x5",
            ],
            "requires a permutable pair",
        ),
        (
            ["--relation=DisjointKandBU", "--f=z+sin(z)", "--samples=grid:-1,1,-1,1:3x3"],
            "requires g",
        ),
        (
            ["--relation=ConjugacyTransport", "--f=0.3*exp(z)", "--samples=list:0,0"],
            "requires a and b",
        ),
        # The pair above does not commute (max_dev 0.888): no tol may wave it through.
        *[
            (
                ["--relation=AffineBungeeEqual", "--f=z+1+exp(-z)", "--g=z+1+exp(-z)+2*pi*i",
                 "--phi=2,0,1,0", "--samples=grid:-2,2,-2,2:7x5", f"--tol={tol}"],
                "error: tol must be finite and positive\n",
            )
            for tol in ("inf", "nan", "0", "-1")
        ],
        # KSwap never uses the tol, yet a malformed one is still refused.
        *[
            (
                ["--relation=KSwap", "--f=z+sin(z)", "--g=z+sin(z)+2*pi",
                 "--samples=grid:-1,1,-1,1:3x3", f"--tol={tol}"],
                "error: tol must be finite and positive\n",
            )
            for tol in ("inf", "nan", "0")
        ],
    ],
    ids=["non-permutable-pair", "missing-g", "missing-phi", "tol-inf", "tol-nan", "tol-0", "tol-negative",
         "kswap-tol-inf", "kswap-tol-nan", "kswap-tol-0"],
)
def test_verify_input_refusals_exit_one(tmp_path, argv, message):
    target = tmp_path / "report.json"
    code, out, err = run(["verify", *argv, "--out", str(target)])
    assert code == 1
    assert message in err and out == ""
    assert not target.exists()


def test_verify_is_worker_invariant(tmp_path):
    reports = []
    for workers in ("1", "3"):
        path = tmp_path / f"r{workers}.json"
        code, _, _ = run(
            [
                "verify",
                "--relation",
                "EscapingInvariance",
                "--f",
                "z+1+exp(-z)",
                "--g",
                "z+1+exp(-z)+2*pi*i",
                "--samples",
                "grid:-2,2,-1,1:6x4",
                "--workers",
                workers,
                "--out",
                str(path),
            ]
        )
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


# --- examples ------------------------------------------------------------


def test_examples_list_text():
    code, out, _ = run(["examples", "list"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("ex_sine_pair: ")


def test_examples_list_json():
    code, out, _ = run(["examples", "list", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert [e["id"] for e in doc] == [
        "ex_sine_pair",
        "ex_rational_bungee",
        "ex_exponential_family",
        "ex_exp_translate",
        "ex_halfplane_pair",
        "ex_periodic_translate",
    ]


def test_examples_run_reports_passes():
    code, out, _ = run(["examples", "run", "ex_rational_bungee", "--scale", "0.25"])
    assert code == 0
    assert "PASS" in out
    assert "passed 4/4" in out


def test_examples_run_json_is_the_report():
    """``examples run --format json`` prints the report's own JSON, byte
    for byte."""
    code, out, _ = run(["examples", "run", "ex_rational_bungee", "--scale", "0.25", "--format", "json"])
    assert code == 0
    assert out == bungee.registry.run_example("ex_rational_bungee", scale=0.25).to_json() + "\n"


def test_module_runs_the_cli():
    """``python -m bungee.cli`` is the ``bungee`` command: the same output
    and exit code as `main`, for a call that succeeds and a usage error."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for argv in (["classify", "--function", "z*z", "--point", "0.5,0"], ["classify", "--point", "0,0"]):
        done = subprocess.run([sys.executable, "-B", "-m", "bungee.cli", *argv], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == run(argv)


def test_examples_run_unknown_id_is_usage_error():
    code, out, err = run(["examples", "run", "nope"])
    assert code == 1 and out == ""
    assert err == "error: unknown example id: 'nope'\n"


@pytest.mark.parametrize("scale", ["0", "2", "nan", "inf", "-1"])
def test_examples_run_scale_out_of_range_is_usage_error(scale):
    code, out, err = run(["examples", "run", "ex_rational_bungee", f"--scale={scale}"])
    assert code == 1 and out == ""
    assert err == "error: scale must be in (0, 1]\n"


def test_examples_run_failure_inside_an_expectation_is_runtime_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken expectation")

    monkeypatch.setattr(bungee.registry, "classify_batch", broken)
    code, out, err = run(["examples", "run", "ex_rational_bungee", "--scale", "0.25"])
    assert code == 2 and out == ""
    assert err == "error: broken expectation\n"


# --- error taxonomy ------------------------------------------------------


def test_unknown_subcommand_is_usage_error():
    code, _, err = run(["transmogrify"])
    assert code == 1
    assert "error:" in err


def test_missing_required_flag_is_usage_error():
    code, _, err = run(["classify", "--point", "0,0"])
    assert code == 1
    assert "error:" in err


def test_bad_expression_is_usage_error():
    code, _, err = run(["classify", "--function", "exp(z", "--point", "0,0"])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "body",
    ['{"bogus": 1}', '{"max_iter": 10.5}', "[1]", "{", '{"r_bound": "x"}', '{"cycle_tol": Infinity}',
     '{"overflow_guard": Infinity}', '{"peak_growth": NaN}', '{"r_bound": Infinity}', '{"r_esc": -Infinity}',
     '{"r_esc": NaN}', b"\xff\xfe{"],
)
def test_bad_config_file_is_usage_error(tmp_path, body):
    """A config that is not a valid one, or not UTF-8 text at all, is a
    usage error that names the file."""
    path = tmp_path / "bad.json"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    code, _, err = run(
        ["--config", str(path), "classify", "--function", "z", "--point", "0,0"]
    )
    assert code == 1
    assert f"error: config {path}: " in err


# Former fields of `ClassifierConfig`, each with its old default: the
# completed-tail window, and the four proxies now fixed in `bungee.orbit`.
RETIRED_KEYS = {"tail_window": 50, "min_alternations": 2, "peak_growth": 2.0, "cycle_tol": 1e-12, "overflow_guard": 1e150}


@pytest.mark.parametrize("key", RETIRED_KEYS)
def test_retired_config_key_is_refused(tmp_path, key):
    with pytest.raises(ValueError, match=f"unknown config keys: {key}$"):
        ClassifierConfig.from_dict({key: RETIRED_KEYS[key]})
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"max_iter": 2000, key: RETIRED_KEYS[key]}))
    code, out, err = run(["--config", str(path), "classify", "--function", "z", "--point", "0,0"])
    assert (code, out) == (1, "")
    assert f"unknown config keys: {key}" in err


@pytest.mark.parametrize("text", ["(" * 3000 + "z" + ")" * 3000, "-" * 3000 + "z"], ids=["parens", "minus"])
def test_deep_nesting_is_usage_error(text):
    code, _, err = run(["classify", f"--function={text}", "--point", "0,0"])
    assert code == 1
    assert "error:" in err and "nesting" in err


def test_non_finite_literal_is_usage_error():
    code, _, err = run(["classify", "--function", "z+1e999", "--point", "0,0"])
    assert code == 1
    assert "offset 3" in err


def test_superscript_digit_is_usage_error():
    code, _, err = run(["classify", "--function", "z*²", "--point", "1,0"])
    assert code == 1
    assert "error:" in err and "offset 3" in err


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["render", "--function", "z", "--grid=-1,1,-1,1", "--size", "2,2"],
        ["verify", "--relation", "StripContainment", "--f", "z", "--samples", "list:0,0"],
        ["classify", "--function", "z", "--point", "0,0"],
        ["examples", "list"],
    ],
    ids=["render", "verify", "classify", "examples"],
)
def test_non_positive_workers_is_usage_error(tmp_path, argv, workers):
    ppm = tmp_path / "never.ppm"
    extra = ["--ppm", str(ppm)] if argv[0] == "render" else []
    for args in (["--workers", workers, *argv, *extra], [*argv, *extra, f"--workers={workers}"]):
        code, out, err = run(args)
        assert code == 1
        assert "--workers" in err and out == ""
    assert not ppm.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--function", "z", "--point", "0,0"],
        ["orbit", "--function", "z", "--point", "0,0"],
        ["render", "--function", "z", "--grid=-1,1,-1,1", "--size", "2,2"],
        ["verify", "--relation", "StripContainment", "--f", "z", "--samples", "list:0,0"],
        ["examples", "list"],
        ["examples", "run", "ex_exponential_family"],
    ],
    ids=["classify", "orbit", "render", "verify", "examples-list", "examples-run"],
)
def test_empty_config_path_is_usage_error(tmp_path, argv):
    """An empty path is a usage error, and no file is written, for every
    flag that takes a path: ``--config`` and ``--out`` before or after the
    subcommand, and the subcommand's own output paths."""
    extra = {"orbit": ["--csv", str(tmp_path / "never.csv")], "render": ["--ppm", str(tmp_path / "never.ppm")]}
    outputs = {"orbit": ["--csv"], "render": ["--ppm", "--boundary", "--json"]}
    tail = extra.get(argv[0], [])
    cases = [(flag, [flag, "", *argv, *tail]) for flag in ("--config", "--out")]
    cases += [(flag, [*argv, *tail, f"{flag}="]) for flag in ("--config", "--out", *outputs.get(argv[0], []))]
    for flag, args in cases:
        code, out, err = run(args)
        assert (code, out) == (1, "")
        assert err == f"error: {flag} needs a file path\n"
        assert list(tmp_path.iterdir()) == []


def test_missing_config_file_is_runtime_error(tmp_path):
    code, _, err = run(
        [
            "--config",
            str(tmp_path / "absent.json"),
            "classify",
            "--function",
            "z",
            "--point",
            "0,0",
        ]
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "spec",
    ["grid:-1,1,-1,1", "grid:-1,1,-1,1:0x3", "grid:1,-1,-1,1:3x3", "ring:0,1", "list:"],
)
def test_malformed_sample_specs_are_usage_errors(spec):
    code, _, err = run(
        ["verify", "--relation", "StripContainment", "--f", "z", "--samples", spec]
    )
    assert code == 1
    assert "error:" in err


def test_perfbench_tracer_sees_the_engine_calls_of_each_command(tmp_path):
    """In a fresh interpreter, where the CLI has loaded no engine module:
    perfbench's tracer wraps the engine names the CLI reads, and a traced
    `render` and `classify` record a span for each of them, so the per-layer
    metrics of those layers stay nonzero. After every command has run once,
    each of the tracer's ``bungee.cli`` bindings is its module's function."""
    root = Path(__file__).resolve().parents[1]
    render = ["render", "--function=1/pow(z,2)", "--grid=-2,2,-2,2", "--size=8,8", f"--ppm={tmp_path / 'a.ppm'}",
              f"--boundary={tmp_path / 'a.pbm'}", f"--json={tmp_path / 'a.json'}"]
    others = [["orbit", "--function=z*z", "--point=0.5,0", f"--csv={tmp_path / 'a.csv'}"],
              ["verify", "--relation=StripContainment", "--f=z", "--samples=list:0,0"]]
    code = f"""
import contextlib, importlib, io, json, sys
sys.path[:0] = [{str(root / "src")!r}, {str(root / "perfbench")!r}]
import bungee.cli
from spans import BINDINGS, Tracer, trace_bungee
tracer = Tracer()
trace_bungee(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [bungee.cli.main({render!r}), bungee.cli.main(["classify", "--function=z*z", "--point=0.5,0"])]
    tracer.restore()
    codes += [bungee.cli.main(argv) for argv in {others!r}]
unbound = [attr for module, attr, name, _ in BINDINGS if module == "bungee.cli"
           and getattr(bungee.cli, attr) is not getattr(importlib.import_module("bungee." + name.split(".")[0]), attr)]
print(json.dumps([codes, unbound, sorted({{span.name for span in tracer.spans}})]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, unbound, names = json.loads(proc.stdout)
    assert codes == [0, 0, 0, 0] and unbound == []
    assert {"grid.classify_grid", "grid.render_ppm", "grid.extract_boundary", "grid.render_pbm",
            "grid.raster_to_json", "orbit.iterate_orbit", "orbit.classify"} <= set(names)


def test_help_exits_zero():
    code, out, _ = run(["--help"])
    assert code == 0
    assert "classify" in out and "verify" in out


def test_parser_built_once_answers_like_a_fresh_one(tmp_path):
    ppm = str(tmp_path / "out.ppm")
    calls = [
        ["classify", "--function", "z"],
        ["--help"],
        ["classify", "--function", "z+sin(z)", "--point", "1,0"],
        ["render", "--function", "z+sin(z)", "--grid=-2,2,-2,2", "--size", "4,3", "--ppm", ppm],
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    cli._build_parser.cache_clear()
    reused = [run(argv) for argv in calls]
    assert [code for code, _, _ in fresh] == [1, 0, 0, 0]
    assert reused == fresh
