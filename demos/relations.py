"""
Checking set relations between commuting maps
=============================================

Test permutability numerically, then verify set-level relations over
sampled seeds and read the violation reports.
"""

from bungee import (
    ClassifierConfig,
    RelationId,
    SamplePlan,
    check_permutable,
    parse,
    verify_relation,
)

plan = SamplePlan.grid(-2.0, 2.0, -2.0, 2.0, 10, 10)

# A map commutes with its own translate by a period: the sine pair
# agrees to machine precision everywhere it evaluates.
f = parse("z+sin(z)")
g = parse("z+sin(z)+2*pi")
perm = check_permutable(f, g, plan)
print("sine pair: checked", perm.checked, "skipped", perm.skipped)
print("  max deviation", perm.max_dev, "-> permutable:", perm.permutable)

# The exponential and its 2*pi*i translate do not commute; the
# deviation at 0 alone is 2*pi/(1+e), far above tolerance.
perm = check_permutable(parse("exp(z)"), parse("exp(z)+2*pi*i"), plan)
print("exp pair:  max deviation", perm.max_dev, "-> permutable:", perm.permutable)

# KSwap: a seed whose f-orbit stays bounded under the composite g(f)
# must map under f into the bounded set of f(g). The sine pair drifts
# too slowly for the default escape radius, so its catalog config
# lowers the thresholds. Every seed resolves: orbits that never reach
# the radius settle onto the real axis, on a ray that interval
# evaluation proves both composites move right, a certified escape.
drift_cfg = ClassifierConfig(max_iter=2000, r_bound=100.0, r_esc=1e3)
rep = verify_relation(RelationId.K_SWAP, f, plan, g=g, cfg=drift_cfg)
print("\nKSwap over", rep.sample_count, "seeds:")
print("  evaluated", rep.evaluated_count, "violations", len(rep.violations))
print("  violation rate", rep.violation_rate)

# DisjointKandBU: the slow-exponential pair and its 2*pi*i translate
# have disjoint bounded cores and disjoint bungee sets, so no seed may
# come out bounded under both maps, or bungee under both.
fat = parse("z+1+exp(-z)")
fat_up = parse("z+1+exp(-z)+2*pi*i")
wide = SamplePlan.grid(-3.0, 3.0, -3.0, 3.0, 40, 40)
rep = verify_relation(RelationId.DISJOINT_K_AND_BU, fat, wide, g=fat_up, workers=4)
print("\nDisjointKandBU for the commuting exponential pair:")
print("  resolved", rep.evaluated_count, "of", rep.sample_count,
      "violations", len(rep.violations))

# Pairing a map with itself trips the same check on every resolved
# seed; the report carries the conflicting verdicts per seed.
sq = parse("1/pow(z,2)")
rep = verify_relation(RelationId.DISJOINT_K_AND_BU, sq, plan, g=sq)
first = rep.violations[0]
print("self-pair violations:", len(rep.violations))
print("  first:", first.seed, {k: v.name for k, v in first.verdicts.items()})

# StripContainment: escaping seeds of the halfplane map exp(-z-1)+1
# stay in left-half-plane strips around the odd multiples of pi.
rep = verify_relation(
    RelationId.STRIP_CONTAINMENT,
    parse("exp(-z-1)+1"),
    SamplePlan.grid(-4.0, 4.0, -4.0, 4.0, 30, 30),
)
print("\nStripContainment over", rep.sample_count, "seeds:")
print("  evaluated", rep.evaluated_count, "violations", len(rep.violations))

# Reports serialize for archiving; every field lands in the dict.
doc = rep.to_dict()
print("\nreport keys:", sorted(doc))
