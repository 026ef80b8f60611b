#!/usr/bin/env python3
"""Exhaustively verify the catalog over every small connected graph.

Labeled connected graphs are enumerated in ascending adjacency-bitmask order
(1 + 4 + 38 + 728 graphs for 2..5 vertices), every relation is evaluated
exactly on each, and the outcomes are tallied. The proved relations must come
back violation-free; the audited ones surface their counterexamples, and the
even-cycle-free/geodetic implication is checked in both directions.
"""

import time

from centaudit import equality_census, mine_exhaustive, serialize_edge_list

N_MAX = 5

print(f"mining every labeled connected graph with 2..{N_MAX} vertices")
started = time.perf_counter()
report = mine_exhaustive(N_MAX)
print(f"evaluated {report.graphs_evaluated} graphs in {time.perf_counter() - started:.2f}s\n")

print(f"{'relation':<9}{'holds':>8}{'equality':>10}{'violated':>10}{'skipped':>9}")
for rid in report.relation_ids:
    t = report.tallies[rid]
    print(f"{rid:<9}{t.holds:>8}{t.equality:>10}{t.violated:>10}{t.skipped:>9}")

print(f"\nnon-audit violations: {report.non_audit_violations} (must be zero)")
print(f"audit violations:     {report.audit_violations}")

print("\nfirst R12 witnesses (graph, exact sides):")
for w in report.tallies["R12"].witnesses[:4]:
    edges = " ".join(f"{u}-{v}" for u, v in w.edges)
    print(f"  n={w.n}  {edges:<24} lhs={w.lhs} rhs={w.rhs}")

audit = report.geodetic_audit
print("\neven-cycle-free vs geodetic over the same population:")
print(f"  both={audit.ecf_and_geodetic}  geodetic-only={audit.geodetic_not_ecf}  "
      f"ecf-only={audit.ecf_not_geodetic}  neither={audit.neither}")
print("  smallest geodetic graph with an even cycle:")
print("    " + serialize_edge_list(audit.geodetic_not_ecf_witnesses[0].graph()).replace("\n", "  "))

# the predicate audit alone, with no relation evaluated
fresh = mine_exhaustive(4, relation_ids=())
assert fresh.geodetic_audit.ecf_not_geodetic == 0

print("\nwhere is the stress identity tight? (R10 equality census, n<=4)")
census = list(equality_census("R10", 4))
print(f"  {len(census)} equality cases; the identity is exact on precisely the geodetic graphs")

print("\nwhere is the clustering-stress bound tight? (R11 equality census, n<=4)")
for g, _subject in list(equality_census("R11", 4))[:5]:
    print("  " + serialize_edge_list(g).replace("\n", "  "))
