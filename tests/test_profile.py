"""The integer centrality profile against independent oracles.

``profile`` keeps every quantity as integers: per-vertex counts and sums, and
each graph-level rational as an integer pair. Every field and pair, read as a
Fraction, must equal the brute-force oracles of ``oracles.py`` (Floyd-Warshall
distances, stress by its pair definition, clustering from edge and triangle
counts, path enumeration for geodesy, cycle enumeration for parity). The
Fraction views must read the same values.
"""

import tracemalloc
from fractions import Fraction as F
from itertools import combinations, islice
from math import lcm

import networkx as nx
import pytest

from centaudit import (
    DistanceMatrix,
    Graph,
    apsp,
    enumerate_connected,
    gnp_graph,
    path_graph,
    profile,
    star_graph,
    watts_strogatz_graph,
)
from oracles import (
    brute_force_clustering,
    brute_force_geodetic,
    brute_force_global_clustering,
    floyd_warshall,
    has_even_cycle,
    neighbor_sets,
    pair_stress,
)

# path enumeration for geodesy and cycle enumeration for parity grow too fast
# beyond this many vertices
PREDICATE_ORACLE_MAX_N = 6


def assert_profile_matches_oracles(g):
    n = g.n
    p = profile(g)
    dist = [[int(x) for x in row] for row in floyd_warshall(g)]
    nbrs = neighbor_sets(g)
    deg = [len(nb) for nb in nbrs]
    stress = pair_stress(g)
    diam = max(map(max, dist))
    total = sum(map(sum, dist))

    assert p.degrees == tuple(deg)
    assert p.links == tuple(
        sum(1 for u, v in g.edges if u in nb and v in nb) for nb in nbrs
    )
    assert p.row_sums == tuple(map(sum, dist))
    assert p.stress == tuple(stress)
    assert p.open_pair_sums == tuple(
        sum(dist[u][v] for u, v in combinations(sorted(nb), 2)) for nb in nbrs
    )
    assert p.closed_pair_sums == tuple(
        sum(dist[u][v] for u, v in combinations(sorted(nb | {i}), 2))
        for i, nb in enumerate(nbrs)
    )
    assert p.pendant == tuple(k == 1 for k in deg)
    assert p.diameter == diam
    assert p.distance_total == total

    clustering = tuple(brute_force_clustering(g))
    c_avg = sum(clustering, F(0)) / n
    assert p.complete_neighborhood == tuple(
        k <= 1 or c == 1 for k, c in zip(deg, clustering)
    )
    assert F(*p.average_clustering_pair) == c_avg
    c_global = brute_force_global_clustering(g)
    pair = p.global_clustering_pair
    assert (None if pair is None else F(*pair)) == c_global
    assert F(*p.stress_pair_sum) == sum(
        (F(s, k * (k - 1)) for s, k in zip(stress, deg) if k >= 2), F(0)
    )

    assert p.local_clustering == clustering
    assert p.closeness == tuple(F(n - 1, sum(row)) for row in dist)
    assert p.radiality == tuple(
        F(sum(diam + 1 - dist[v][t] for t in range(n) if t != v), n - 1)
        for v in range(n)
    )
    assert p.avg_path_length == F(total, n * (n - 1))
    assert p.average_clustering == c_avg
    assert p.global_clustering == c_global

    if n <= PREDICATE_ORACLE_MAX_N:
        assert p.geodetic == brute_force_geodetic(g)
        assert p.even_cycle_free == (not has_even_cycle(g))
    return p


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_connected_graph(n):
    for g in enumerate_connected(n):
        assert_profile_matches_oracles(g)


def test_sample_of_six_vertex_graphs():
    sample = list(islice(enumerate_connected(6), 0, None, 97))
    assert len(sample) == 276
    for g in sample:
        assert_profile_matches_oracles(g)


def test_single_edge_has_no_global_clustering():
    p = assert_profile_matches_oracles(path_graph(2))
    assert p.global_clustering_pair is None
    assert p.average_clustering_pair[0] == 0


def test_star():
    p = assert_profile_matches_oracles(star_graph(6))
    assert p.global_clustering == 0
    # the center lies on 6 * 5 shortest paths and has 6 * 5 ordered neighbor pairs
    assert F(*p.stress_pair_sum) == 1


def test_many_distinct_degrees():
    g = gnp_graph(24, 0.3, seed=4)
    p = assert_profile_matches_oracles(g)
    assert sorted(set(p.degrees)) == list(range(2, 13))
    # the pairs share one denominator, the lcm of the distinct d(d-1)
    den = lcm(*(k * (k - 1) for k in range(2, 13)))
    assert p.average_clustering_pair[1] == g.n * den
    assert p.stress_pair_sum[1] == den


@pytest.mark.parametrize("n,k,seed", [(64, 4, 0), (96, 6, 1), (150, 4, 0)])
def test_lane_hosts(n, k, seed):
    assert_profile_matches_oracles(watts_strogatz_graph(n, k, 0.1, seed=seed))


def test_diameter_follows_the_matrix_it_is_given():
    g = path_graph(4)
    d = apsp(g)
    assert d.diameter == 3
    dist = [list(row) for row in d.dist]
    dist[0][1] = dist[1][0] = 7
    altered = DistanceMatrix(d.n, tuple(map(tuple, dist)), d.sigma, d.stress)
    assert altered.diameter == 7
    assert profile(g, altered).diameter == 7


def test_pass_matches_matrix_on_the_graph_atlas():
    """``profile(g)`` folds one pass over the sources; ``profile(g, d)``
    reads the matrix. They agree on every connected graph of 2 to 7
    vertices in networkx's atlas."""
    graphs = [
        Graph.from_edges(a.number_of_nodes(), a.edges())
        for a in nx.graph_atlas_g() if a.number_of_nodes() >= 2 and nx.is_connected(a)
    ]
    assert len(graphs) == 995
    for g in graphs:
        assert profile(g) == profile(g, apsp(g))


def test_pass_memory_on_a_long_path():
    """P300 goes to per-source search, whose pass holds a few rows of n
    entries at a time; the 300 x 300 distance and path-count tables would
    take over 1.4 MiB."""
    g = path_graph(300)
    tracemalloc.start()
    try:
        profile(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19
