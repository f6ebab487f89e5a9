"""
The curated example catalog
===========================

Browse the built-in map catalog, rerun one entry's expectations from
scratch, and export the whole catalog as JSON.
"""

import json

from bungee import (
    export_registry_json,
    format_expr,
    get_example,
    list_examples,
    run_example,
)

print("catalog entries:")
for eid, summary in list_examples():
    print(f"  {eid:<24} {summary}")

# Each entry holds its map f, an optional second map g and conjugation,
# two hypothesis flags with their notes, whether the map is an oracle
# that is not entire, and rerunnable expectations.
entry = get_example("ex_exponential_family")
print("\nex_exponential_family")
print("  f =", format_expr(entry.f))
print("  conjugation =", entry.conjugation)
print("  expectations:", len(entry.expectations))

# run_example recomputes every expectation; scale shrinks the sampled
# grids proportionally so a smoke run stays quick.
report = run_example("ex_exponential_family", scale=0.5)
print("\nrerun at half scale, passed:", report.passed)
for r in report.results:
    print(f"  [{'ok' if r.passed else 'FAIL'}] {r.description}")

# The JSON export round-trips every entry, expressions included.
doc = json.loads(export_registry_json())
print("\nexported", len(doc), "entries;",
      "first id:", doc[0]["id"], "keys:", sorted(doc[0])[:4], "...")
