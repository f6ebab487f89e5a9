"""
Rendering classifications over a grid
=====================================

Classify cell centers over a rectangle, write the result as a PPM
image, and extract the boundary between the classified sets.
"""

import collections
import os
import tempfile

from bungee import Classification, GridSpec, classify_grid, extract_boundary, parse
from bungee.grid import render_pbm, render_ppm

def tally(raster):
    counts = collections.Counter(
        Classification(int(c)).name for c in raster.codes.ravel()
    )
    for name, n in sorted(counts.items()):
        print(f"  {name:<10} {n:5d}")


# The scaled exponential splits the plane into an attracting basin and
# an escaping region; a coarse grid keeps this demo fast.
lam = parse("0.3*exp(z)")
spec = GridSpec(re_min=-3.0, re_max=3.0, im_min=-3.0, im_max=3.0, nx=96, ny=96)
raster = classify_grid(lam, spec)
print("0.3*exp(z) over [-3,3]^2,", spec.nx, "x", spec.ny, "cells")
tally(raster)

# The PPM encoder maps each code to a fixed color, top row at im_max.
ppm = render_ppm(raster)
ppm_path = os.path.join(tempfile.gettempdir(), "scaled_exp.ppm")
with open(ppm_path, "wb") as fh:
    fh.write(ppm)
print("wrote", ppm_path + ",", len(ppm), "bytes")

# For 1/z^2 every cell center off the unit circle lands in the bungee
# set, so the whole tally collapses to one class.
f = parse("1/pow(z,2)")
print("\n1/pow(z,2) over [-2,2]^2, 64 x 64 cells")
tally(classify_grid(f, GridSpec(-2.0, 2.0, -2.0, 2.0, 64, 64)))

# Boundary cells touch at least two distinct resolved classes in their
# closed 4-neighborhood. An odd cell count puts a center exactly on the
# fixed point 1, where the bungee set meets the circle.
odd = GridSpec(re_min=0.5, re_max=1.5, im_min=-0.5, im_max=0.5, nx=15, ny=15)
mask = extract_boundary(classify_grid(f, odd))
print("boundary cells near the fixed point 1:", int(mask.sum()))
pbm_path = os.path.join(tempfile.gettempdir(), "boundary.pbm")
with open(pbm_path, "wb") as fh:
    fh.write(render_pbm(mask))
print("wrote", pbm_path)
