#!/usr/bin/env python3
"""Small-world sweep: clustering stays high while path length collapses.

Watts-Strogatz graphs interpolate between a ring lattice (p=0) and a random
graph (p=1). Sweeping the rewiring probability shows the classic small-world
window; here both quantities are computed exactly and only rendered as
decimals. The same random population then feeds the relation miner: the
identities and proved bounds hold on every sample, rewired or not.
"""

from centaudit import mine_random, profile, watts_strogatz_graph

N, K = 24, 4

print(f"Watts-Strogatz sweep, n={N}, k={K} (exact values shown to 4 decimals)")
print(f"{'p':>6}  {'C_WS':>8}  {'L':>8}")

base = watts_strogatz_graph(N, K, 0.0)
base_prof = profile(base)
c0 = base_prof.average_clustering
l0 = base_prof.avg_path_length

for p in (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0):
    # average a few seeds per p; connectivity is the norm at these parameters
    samples = []
    seed = 0
    while len(samples) < 5:
        g = watts_strogatz_graph(N, K, p, seed=seed)
        seed += 1
        if g.is_connected():
            samples.append(g)
    profs = [profile(g) for g in samples]
    c = sum(prof.average_clustering for prof in profs) / len(profs)
    l = sum(prof.avg_path_length for prof in profs) / len(profs)
    print(f"{p:>6}  {float(c):>8.4f}  {float(l):>8.4f}"
          f"   (C/C0={float(c / c0):.3f}, L/L0={float(l / l0):.3f})")

print("\nring lattice reference: C0 = %s, L0 = %s" % (c0, l0))
print("the small-world window is where C/C0 stays near 1 while L/L0 drops")

print("\nmining the rewired population (trials are seeded, runs reproducible):")
report = mine_random(
    "watts_strogatz",
    {"n": 20, "k": 4, "p": 0.1},
    trials=40,
    seed=2024,
    relation_ids=("R1", "R8", "R10b", "R11b"),
)
for rid in report.relation_ids:
    t = report.tallies[rid]
    print(f"  {rid:<5} holds={t.holds} equality={t.equality} violated={t.violated} skipped={t.skipped}")
print(f"non-audit violations: {report.non_audit_violations} over {report.graphs_evaluated} samples")
