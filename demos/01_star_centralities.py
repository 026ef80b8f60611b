#!/usr/bin/env python3
"""Exact centralities of star graphs.

The star with n leaves is the cleanest worked example in the catalog: its
average shortest path length has the closed form 2n/(n+1), its clustering is
identically zero, and the whole stress load n(n-1) sits on the center. This
script recomputes everything exactly and checks the closed forms.
"""

from fractions import Fraction

from centaudit import profile, star_graph

print("star graphs: exact centrality profile")
print("=" * 64)

for leaves in range(3, 9):
    g = star_graph(leaves)
    prof = profile(g)

    expected_L = Fraction(2 * leaves, leaves + 1)
    assert prof.avg_path_length == expected_L
    assert prof.average_clustering == 0
    assert prof.stress[0] == leaves * (leaves - 1)
    assert prof.geodetic and prof.even_cycle_free

    print(f"\nstar with {leaves} leaves ({g.n} vertices, {g.m} edges)")
    print(f"  L            = {prof.avg_path_length}  (= 2n/(n+1), ~{float(prof.avg_path_length):.4f})")
    print(f"  C_WS         = {prof.average_clustering}")
    print(f"  diameter     = {prof.diameter}")
    print(f"  center: stress={prof.stress[0]} (= n(n-1))  closeness={prof.closeness[0]}  radiality={prof.radiality[0]}")
    print(f"  leaf:   stress={prof.stress[1]}  closeness={prof.closeness[1]}  radiality={prof.radiality[1]}")
    print(f"  geodetic={prof.geodetic}  even_cycle_free={prof.even_cycle_free}")

print("\nall closed forms verified exactly (no tolerances involved)")
