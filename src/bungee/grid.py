"""Grid classification, raster export and class-boundary extraction.

A grid covers a rectangle with cell-center sample points. Codes are
stored as an (ny, nx) array with row 0 at the bottom (smallest
imaginary part); PPM and PBM output flip rows so the top of the image is
the top of the plane.

All cells go to one `classify_batch` call, which ends the cells that a
certified region holds at step 0 and runs the engine on the others, in
chunks that depend on the cells alone.

The encoders build each output as one ``uint8`` buffer with whole-array
operations, with no per-cell Python: the PBM's digits and the JSON's
codes are written into strided slots between their separators. A
`Raster` holds only the codes 0-3, so every JSON code is one digit.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .expr import FunctionExpr, _finite_real, _Record
from .orbit import Classification, ClassifierConfig, DEFAULT_CONFIG, classify_batch

__all__ = [
    "GridSpec",
    "Raster",
    "classify_grid",
    "render_ppm",
    "extract_boundary",
    "render_pbm",
    "raster_to_json",
    "PALETTE",
]


class GridSpec(_Record):
    """A rectangle [re_min, re_max] x [im_min, im_max] split into nx*ny cells.

    The bounds must be finite real numbers with ``re_min < re_max`` and
    ``im_min < im_max``, and the cell sizes `dx` and `dy` finite; ``nx``
    and ``ny`` must be positive integers (not bool).
    """

    __slots__ = ("re_min", "re_max", "im_min", "im_max", "nx", "ny")

    def __post_init__(self) -> None:
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(map(_finite_real, bounds)):
            raise ValueError("grid bounds must be finite real numbers")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("grid rectangle must have positive extent")
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in (self.nx, self.ny)):
            raise ValueError("grid cell counts must be integers")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one cell per axis")
        if not (math.isfinite(self.dx) and math.isfinite(self.dy)):
            raise ValueError("grid extent overflows: cell size is not finite")

    @property
    def dx(self) -> float:
        return (self.re_max - self.re_min) / self.nx

    @property
    def dy(self) -> float:
        return (self.im_max - self.im_min) / self.ny

    def points(self) -> np.ndarray:
        """Cell-center sample points as an (ny, nx) complex array."""
        xs = self.re_min + (np.arange(self.nx) + 0.5) * self.dx
        ys = self.im_min + (np.arange(self.ny) + 0.5) * self.dy
        return xs[None, :] + 1j * ys[:, None]

    def to_dict(self) -> dict:
        """The fields as JSON-ready values: numpy scalars become Python numbers."""
        return self._plain_fields()

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        return cls(**data)


class Raster(_Record):
    """Classification codes over a grid; ``codes[j, i]`` is cell (i, j).

    ``codes`` must be an integer array (not bool) of shape
    ``(spec.ny, spec.nx)`` holding only `Classification` values 0-3.
    """

    __slots__ = ("spec", "codes")

    def __post_init__(self) -> None:
        codes = self.codes
        if not (isinstance(codes, np.ndarray) and np.issubdtype(codes.dtype, np.integer)):
            raise ValueError("raster codes must be an integer array")
        if codes.shape != (self.spec.ny, self.spec.nx):
            raise ValueError(f"raster codes have shape {codes.shape}, grid is {(self.spec.ny, self.spec.nx)}")
        if codes.min() < 0 or codes.max() > 3:
            raise ValueError("raster codes must lie in 0-3")


# RGB per Classification code, indexed by code value.
PALETTE = np.array(
    [
        (0, 0, 0),  # Escaping
        (230, 230, 230),  # Bounded
        (220, 50, 50),  # Bungee
        (60, 60, 200),  # Unresolved
    ],
    dtype=np.uint8,
)


def classify_grid(
    f: FunctionExpr,
    spec: GridSpec,
    cfg: ClassifierConfig = DEFAULT_CONFIG,
) -> Raster:
    """Classify every cell center of ``spec`` under ``f``.

    All cells go to one batch, which tests them against the map's regions
    once and runs the engine on the rest in chunks of up to 4,096 cells;
    that measured faster than worker threads on a two-core machine.
    """
    return Raster(spec=spec, codes=classify_batch(f, spec.points(), cfg))


def render_ppm(raster: Raster) -> bytes:
    """Encode a raster as a binary PPM (P6) image, top row at im_max."""
    spec = raster.spec
    rgb = PALETTE.take(raster.codes[::-1], axis=0)
    header = f"P6\n{spec.nx} {spec.ny}\n255\n".encode("ascii")
    return header + rgb.tobytes()


def extract_boundary(raster: Raster) -> np.ndarray:
    """Mark cells adjacent to a class change.

    A cell is a boundary cell when at least two distinct resolved
    classes (Escaping, Bounded, Bungee) appear among the cell itself
    and its 4-neighborhood. Unresolved cells are ignored: they neither
    form boundaries nor block them.
    """
    codes = raster.codes
    present_count = np.zeros(codes.shape, dtype=np.int8)
    for cls in (Classification.ESCAPING, Classification.BOUNDED, Classification.BUNGEE):
        here = codes == int(cls)
        near = here.copy()
        near[1:, :] |= here[:-1, :]
        near[:-1, :] |= here[1:, :]
        near[:, 1:] |= here[:, :-1]
        near[:, :-1] |= here[:, 1:]
        present_count += near
    return present_count >= 2


def render_pbm(mask: np.ndarray) -> bytes:
    """Encode a 2-D mask as an ASCII PBM (P1) image, top row first.

    A cell is 1 where the mask is truthy. Each row is its digits joined
    by single spaces, then a newline.
    """
    ny, nx = mask.shape
    header = f"P1\n{nx} {ny}\n".encode("ascii")
    if nx == 0:
        return header + b"\n" * ny
    body = np.full((ny, 2 * nx), ord(" "), dtype=np.uint8)
    body[:, 0::2] = mask[::-1].astype(bool)
    body[:, 0::2] += ord("0")
    body[:, -1] = ord("\n")
    return header + body.tobytes()


def raster_to_json(raster: Raster) -> str:
    """Serialize a raster as JSON: grid spec plus flat row-major codes.

    The text is ``json.dumps`` of ``{"spec": ..., "codes": [...]}``; the
    codes list is written as one buffer of digit, comma, space triples.
    """
    prefix = json.dumps({"spec": raster.spec.to_dict(), "codes": None})[: -len("null}")]
    cells = np.empty((raster.codes.size, 3), dtype=np.uint8)
    np.add(raster.codes.ravel(), ord("0"), out=cells[:, 0], casting="unsafe")
    cells[:, 1] = ord(",")
    cells[:, 2] = ord(" ")
    return prefix + "[" + cells.tobytes()[:-2].decode("ascii") + "]}"
