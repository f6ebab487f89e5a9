"""
Orbit records and the four-way verdict
======================================

Iterate seeds, inspect the recorded peaks and returns, and classify
orbits as Escaping, Bounded, Bungee, or Unresolved.
"""

from bungee import (
    ClassifierConfig,
    classify,
    classify_point,
    iterate_orbit,
    parse,
)

# The reciprocal square is the classic bungee oracle: off the unit
# circle, orbits alternate between huge and tiny moduli. Its dominant-term
# forms prove it: f swaps |z| >= R with 0 < |z| <= r, and f(f(z)) = z**4
# moves |z| >= R outward. The seed 0.5 lies in the disk already, so its
# orbit is certified Bungee at step 0, before the map is evaluated once.
f = parse("1/pow(z,2)")
rec = iterate_orbit(f, 0.5)
print("orbit of 0.5 under", "1/z^2")
for n, m in enumerate(rec.moduli):
    print(f"  n={n:2d}  |z_n| = {m:.6g}")
print("termination:", rec.termination)
print("peaks:", [(i, f"{v:.3g}") for i, v in rec.peaks])
print("returns below r_bound:", rec.returns)
print("verdict:", classify(rec))

# Fixed points end orbits early through cycle detection.
print("\nfixed point at 1:", iterate_orbit(f, 1).termination)
cycle = iterate_orbit(f, 1j).termination
print("transient into the 1-cycle from i:", cycle)
print(f"  i -> -1 -> 1: period {cycle.period}, entered at iterate {cycle.entry}")

# A slow escaper: z + sin(z) + 2*pi drifts outward by 2*pi per step, far
# too slowly to reach the default escape radius of 1e6 within the budget.
# But interval evaluation proves that the map moves every point of the
# real ray [1/16, inf) right by at least 2*pi - 1, so the orbit of 0 is a
# certified escape as soon as a Brent checkpoint finds it on that ray:
# at step 1, under any config.
drift = parse("z+sin(z)+2*pi")
print("\ndrift at default config:", classify_point(drift, 0))
print("  termination:", iterate_orbit(drift, 0).termination)
drift_cfg = ClassifierConfig(max_iter=2000, r_bound=100.0, r_esc=1e3)
print("drift at drift config:  ", classify_point(drift, 0, drift_cfg))

# The scaled exponential 0.3*exp(z) has an attracting fixed point near
# 0.4894; real seeds left of the repelling point stay bounded, seeds to
# its right blow up.
lam = parse("0.3*exp(z)")
print("\n0.3*exp(z) at 0:", classify_point(lam, 0))
print("0.3*exp(z) at 3:", classify_point(lam, 3))
print("settled value:", iterate_orbit(lam, 0).values[-1])
