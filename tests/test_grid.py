"""Grid classification, boundary extraction, and raster encoding."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bungee import (
    Classification,
    GridSpec,
    Raster,
    classify_grid,
    classify_point,
    extract_boundary,
    parse,
    raster_to_json,
    render_ppm,
)
from bungee.grid import PALETTE, render_pbm

E, B, BU, U = 0, 1, 2, 3


def raster(codes: list[list[int]]) -> Raster:
    arr = np.array(codes, dtype=np.int8)
    ny, nx = arr.shape
    return Raster(GridSpec(0, float(nx), 0, float(ny), nx, ny), arr)


# --- GridSpec ------------------------------------------------------------


def test_grid_spec_samples_cell_centers():
    spec = GridSpec(0, 1, 0, 1, 2, 2)
    pts = spec.points()
    assert pts.shape == (2, 2)
    assert pts[0, 0] == 0.25 + 0.25j  # row 0 sits at im_min
    assert pts[0, 1] == 0.75 + 0.25j
    assert pts[1, 0] == 0.25 + 0.75j
    assert spec.dx == 0.5 and spec.dy == 0.5


@pytest.mark.parametrize(
    "args",
    [
        (1, 0, 0, 1, 2, 2),
        (0, 1, 1, 1, 2, 2),
        (0, 1, 0, 1, 0, 2),
        (0, 1, 0, 1, 2, -1),
        (-np.inf, 0, 0, 1, 2, 2),
        (0, np.inf, 0, 1, 2, 2),
        (0, 1, np.nan, 1, 2, 2),
        (0, 1, 0, np.inf, 2, 2),
        (-1e308, 1e308, 0, 1, 2, 2),
        (0, 1, -1.7e308, 1.7e308, 2, 2),
        (0, 1, 0, 1, 2.5, 2),
        (0, 1, 0, 1, 2, 2.0),
        (0, 1, 0, 1, 2.5, True),
        (0, 1, 0, 1, True, 1),
        (0, 1, 0, 1, "2", 2),
        ("0", 1, 0, 1, 2, 2),
    ],
)
def test_grid_spec_validation(args):
    with pytest.raises(ValueError):
        GridSpec(*args)


@pytest.mark.parametrize("workers", [0, -1])
def test_classify_grid_rejects_non_positive_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        classify_grid(parse("z"), GridSpec(0, 1, 0, 1, 2, 2), workers=workers)


def test_grid_spec_accepts_numpy_scalars():
    spec = GridSpec(np.float64(-1), np.float32(1), 0, 1, np.int64(3), np.int32(2))
    assert spec.points().shape == (2, 3)
    # `to_dict` turns numpy scalars into Python numbers, so the raster JSON
    # serializes, and leaves Python numbers alone: an int bound stays an int.
    assert [type(v) for v in spec.to_dict().values()] == [float, float, int, int, int, int]
    assert GridSpec.from_dict(spec.to_dict()) == spec
    text = raster_to_json(classify_grid(parse("z"), spec))
    assert text.startswith('{"spec": {"re_min": -1.0, "re_max": 1.0, "im_min": 0, "im_max": 1, "nx": 3, "ny": 2}')


def test_grid_spec_dict_round_trip():
    spec = GridSpec(-2, 2, -1.5, 1.5, 32, 24)
    assert GridSpec.from_dict(spec.to_dict()) == spec


# --- Raster ------------------------------------------------------------


@pytest.mark.parametrize(
    "codes",
    [
        np.array([[0, -1]], dtype=np.int8),
        np.array([[0, 7]], dtype=np.int64),
        np.array([[0, 1, 2]], dtype=np.int8),
        np.array([[0], [1]], dtype=np.int8),
        np.array([0, 1], dtype=np.int8),
        np.array([[0.5, 1.0]]),
        np.array([[True, False]]),
        [[0, 1]],
    ],
    ids=["negative", "above-three", "wide", "transposed", "flat", "float", "bool", "list"],
)
def test_raster_rejects_bad_codes(codes):
    with pytest.raises(ValueError, match="raster codes"):
        Raster(GridSpec(0, 2, 0, 1, 2, 1), codes)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64, np.int64])
def test_raster_accepts_every_integer_dtype(dtype):
    r = Raster(GridSpec(0, 4, 0, 1, 4, 1), np.array([[0, 1, 2, 3]], dtype=dtype))
    assert raster_to_json(r) == _reference_json(r)
    assert render_ppm(r) == render_ppm(raster([[E, B, BU, U]]))


# --- classify_grid -------------------------------------------------------


def test_unit_square_interior_is_all_bungee():
    r = classify_grid(parse("1/pow(z,2)"), GridSpec(0.1, 0.9, 0.1, 0.9, 8, 8))
    assert r.codes.shape == (8, 8)
    assert np.all(r.codes == BU)


def test_identity_map_is_all_bounded():
    r = classify_grid(parse("z"), GridSpec(-2, 2, -2, 2, 6, 6))
    assert np.all(r.codes == B)


def test_attracting_interval_is_all_bounded():
    r = classify_grid(parse("0.3*exp(z)"), GridSpec(-2, 0, -0.1, 0.1, 16, 2))
    assert np.all(r.codes == B)


def test_grid_cells_match_pointwise_classification():
    spec = GridSpec(0.5, 1.5, -0.5, 0.5, 4, 3)
    f = parse("1/pow(z,2)")
    r = classify_grid(f, spec)
    pts = spec.points()
    for j in range(spec.ny):
        for i in range(spec.nx):
            assert Classification(int(r.codes[j, i])) == classify_point(f, complex(pts[j, i]))


def test_every_cell_holds_a_verdict():
    r = classify_grid(parse("exp(z)"), GridSpec(-2, 2, -2, 2, 5, 5))
    assert np.all((r.codes >= 0) & (r.codes <= 3))


def test_worker_count_does_not_change_output():
    spec = GridSpec(-1.5, 1.5, -1.5, 1.5, 12, 10)
    f = parse("1/pow(z,2)")
    serial = classify_grid(f, spec, workers=1)
    threaded = classify_grid(f, spec, workers=4)
    assert np.array_equal(serial.codes, threaded.codes)
    assert render_ppm(serial) == render_ppm(threaded)


# --- extract_boundary ----------------------------------------------------


def test_uniform_raster_has_no_boundary():
    assert not extract_boundary(raster([[B, B, B], [B, B, B]])).any()


def test_adjacent_distinct_classes_are_both_boundary():
    mask = extract_boundary(raster([[E, B]]))
    assert mask.tolist() == [[True, True]]


def test_unresolved_neighbors_are_ignored():
    assert not extract_boundary(raster([[E, U]])).any()
    # An unresolved cell between two classes still sees both of them.
    assert extract_boundary(raster([[E, U, B]])).tolist() == [[False, True, False]]


def test_boundary_tracks_the_unit_circle():
    # Odd pixel counts put one cell center exactly on the fixed point 1,
    # the only bounded cell in this window; its neighborhood marks the
    # circle crossing.
    spec = GridSpec(0.5, 1.5, -0.5, 0.5, 15, 15)
    r = classify_grid(parse("1/pow(z,2)"), spec)
    mask = extract_boundary(r)
    assert int(mask.sum()) == 5
    centers = spec.points()[mask]
    diagonal = np.hypot(spec.dx, spec.dy)
    assert np.all(np.abs(np.abs(centers) - 1.0) <= diagonal)


@pytest.mark.parametrize("flip", [np.flipud, np.fliplr])
def test_boundary_commutes_with_mirroring(flip):
    rng = np.random.default_rng(11)
    codes = rng.integers(0, 4, size=(9, 7)).astype(np.int8)
    spec = GridSpec(0, 7, 0, 9, 7, 9)
    direct = extract_boundary(Raster(spec, flip(codes).copy()))
    mirrored = flip(extract_boundary(Raster(spec, codes)))
    assert np.array_equal(direct, mirrored)


# --- rasters -------------------------------------------------------------


def test_ppm_single_bounded_pixel():
    data = render_ppm(raster([[B]]))
    assert data == b"P6\n1 1\n255\n" + bytes((230, 230, 230))


def test_ppm_all_escaping_is_zero_filled():
    data = render_ppm(raster([[E, E], [E, E]]))
    assert data == b"P6\n2 2\n255\n" + bytes(12)


def test_ppm_length_is_header_plus_three_bytes_per_cell():
    for nx, ny in [(1, 1), (3, 2), (16, 5)]:
        r = raster([[B] * nx] * ny)
        data = render_ppm(r)
        header = f"P6\n{nx} {ny}\n255\n".encode()
        assert data.startswith(header)
        assert len(data) == len(header) + 3 * nx * ny


def test_ppm_palette():
    data = render_ppm(raster([[E, B, BU, U]]))
    body = data[len(b"P6\n4 1\n255\n") :]
    assert body == bytes((0, 0, 0, 230, 230, 230, 220, 50, 50, 60, 60, 200))
    assert PALETTE.tolist() == [[0, 0, 0], [230, 230, 230], [220, 50, 50], [60, 60, 200]]


def test_ppm_top_row_is_im_max():
    # Row 0 of the codes array sits at im_min and must be emitted last.
    r = raster([[E, E], [B, B]])
    body = render_ppm(r)[len(b"P6\n2 2\n255\n") :]
    assert body[:6] == bytes((230, 230, 230, 230, 230, 230))
    assert body[6:] == bytes(6)


def test_pbm_mask_encoding():
    mask = extract_boundary(raster([[E, U, B]]))
    assert render_pbm(mask) == b"P1\n3 1\n0 1 0\n"


def _reference_pbm(mask) -> bytes:
    """The per-cell PBM encoder that `render_pbm` replaced, kept as its oracle."""
    ny, nx = mask.shape
    lines = [f"P1\n{nx} {ny}"]
    for row in mask[::-1]:
        lines.append(" ".join("1" if v else "0" for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def _reference_ppm(r: Raster) -> bytes:
    """A per-cell PPM encoder, the oracle of `render_ppm`."""
    cells = bytearray()
    for row in r.codes[::-1]:
        for code in row:
            cells.extend(PALETTE[int(code)].tolist())
    return f"P6\n{r.spec.nx} {r.spec.ny}\n255\n".encode("ascii") + bytes(cells)


def _reference_json(r: Raster) -> str:
    """The per-cell JSON encoder that `raster_to_json` replaced, kept as its oracle."""
    return json.dumps({"spec": r.spec.to_dict(), "codes": [int(c) for c in r.codes.ravel()]})


_SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(1)),
    st.tuples(st.integers(1, 30), st.integers(1, 30)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(
        hnp.arrays(np.bool_, _SHAPES),
        hnp.arrays(np.int8, _SHAPES, elements=st.integers(-2, 2)),
        hnp.arrays(np.float64, _SHAPES, elements=st.sampled_from([0.0, -0.0, 0.5, -3.0, np.nan, np.inf])),
        hnp.arrays(np.bool_, st.tuples(st.just(0), st.integers(0, 5))),
        hnp.arrays(np.bool_, st.tuples(st.integers(0, 5), st.just(0))),
    )
)
def test_pbm_matches_reference_encoder(mask):
    assert render_pbm(mask) == _reference_pbm(mask)


# Every integer dtype a raster's codes may have (a bool array is refused).
_CODE_DTYPES = [np.dtype(t) for t in ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64")]


@pytest.mark.parametrize("dtype", _CODE_DTYPES, ids=str)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_ppm_matches_reference_encoder(dtype, data):
    """The PPM's bytes are those of a per-cell encoder, for every shape kind
    and every integer dtype of the codes."""
    codes = data.draw(hnp.arrays(dtype, _SHAPES, elements=st.integers(0, 3)))
    ny, nx = codes.shape
    r = Raster(GridSpec(0, float(nx), 0, float(ny), nx, ny), codes)
    assert render_ppm(r) == _reference_ppm(r)


def test_pbm_reads_a_non_contiguous_view():
    mask = np.arange(35).reshape(5, 7) % 3 == 0
    view = mask[::2, 1::3].T
    assert render_pbm(view) == _reference_pbm(view)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    _SHAPES.flatmap(
        lambda shape: hnp.arrays(
            st.sampled_from([np.int8, np.uint8, np.int64]), shape, elements=st.integers(0, 3)
        )
    ),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(1e-6, 1e6),
)
def test_json_matches_reference_encoder(codes, lo, extent):
    ny, nx = codes.shape
    spec = GridSpec(lo, lo + extent, lo, lo + extent, nx, ny)
    r = Raster(spec, codes)
    assert raster_to_json(r) == _reference_json(r)
    fortran = Raster(spec, np.asfortranarray(codes))  # ravel still reads row-major
    assert raster_to_json(fortran) == _reference_json(r)


def test_raster_json_round_trip():
    r = raster([[E, B], [BU, U]])
    doc = json.loads(raster_to_json(r))
    assert doc["spec"] == r.spec.to_dict()
    assert doc["codes"] == [E, B, BU, U]
    assert GridSpec.from_dict(doc["spec"]) == r.spec
