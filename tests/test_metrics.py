from fractions import Fraction as F
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from centaudit import (
    DisconnectedGraphError,
    Graph,
    apsp,
    complete_graph,
    cycle_graph,
    global_clustering,
    gnp_graph,
    is_even_cycle_free,
    local_clustering,
    path_graph,
    profile,
    star_graph,
    stress,
    watts_strogatz_graph,
)
from oracles import (
    brute_force_geodetic,
    brute_force_stress,
    closed_neighborhood_distances,
    has_even_cycle,
    pair_distance_sum,
    pair_stress,
)

# triangle 0-1-2 with a tail 2-3
PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
# two triangles sharing vertex 2
BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
# two vertices joined by three disjoint length-2 paths
THETA = Graph.from_edges(5, [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)])


@st.composite
def connected_graphs(draw, min_n=2, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph.from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
    if not g.is_connected():  # densify until connected, deterministically
        g = Graph.from_edges(n, set(g.edges) | set(path_graph(n).edges))
    return g


class TestApsp:
    def test_path3(self):
        d = apsp(path_graph(3))
        assert d.dist[0][2] == 2 and d.geodetic and d.stress == (0, 2, 0)

    def test_c4_opposite_pair(self):
        # two shortest paths join 0 and 2, one through each of 1 and 3
        d = apsp(cycle_graph(4))
        assert d.dist[0][2] == 2 and not d.geodetic and d.stress == (2, 2, 2, 2)

    def test_complete(self):
        d = apsp(complete_graph(3))
        assert all(d.dist[s][t] == 1 for s in range(3) for t in range(3) if s != t)
        assert d.geodetic and d.stress == (0, 0, 0)

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            apsp(Graph.from_edges(3, [(0, 1)]))

    @given(connected_graphs())
    @settings(max_examples=80)
    def test_matrix_invariants(self, g):
        d = apsp(g)
        n = g.n
        assert d.row_sums == tuple(map(sum, d.dist))
        assert d.diameter == max(map(max, d.dist))
        for s in range(n):
            assert d.dist[s][s] == 0
            for t in range(n):
                assert d.dist[s][t] == d.dist[t][s]
                assert (d.dist[s][t] == 1) == (t in g.adj[s]) if s != t else True
                for u in range(n):
                    assert d.dist[s][t] <= d.dist[s][u] + d.dist[u][t]

    @given(connected_graphs())
    @settings(max_examples=80)
    def test_sigma_recurrence(self, g):
        """Path counts from apsp's rows by the counting recurrence,
        sigma(s, t) = sum of sigma(s, u) over the neighbors u of t one step
        nearer to s, give the stress and geodetic flag apsp folds."""
        d = apsp(g)
        n = g.n
        sigma = [[1 if s == t else 0 for t in range(n)] for s in range(n)]
        for s in range(n):
            for t in sorted(range(n), key=d.dist[s].__getitem__)[1:]:
                sigma[s][t] = sum(sigma[s][u] for u in g.adj[t]
                                  if d.dist[s][u] == d.dist[s][t] - 1)
        assert d.geodetic == all(x == 1 for row in sigma for x in row)
        assert list(d.stress) == [
            sum(sigma[s][v] * sigma[v][t] for s in range(n) for t in range(n)
                if len({s, v, t}) == 3 and d.dist[s][v] + d.dist[v][t] == d.dist[s][t])
            for v in range(n)
        ]

    @given(connected_graphs(max_n=6))
    @settings(max_examples=40)
    def test_distances_match_networkx(self, g):
        d = apsp(g)
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(range(g.n))
        lengths = dict(nx.all_pairs_shortest_path_length(nxg))
        for s in range(g.n):
            for t in range(g.n):
                assert d.dist[s][t] == lengths[s][t]


class TestGraphLevelMetrics:
    @pytest.mark.parametrize("g,expected", [
        (complete_graph(4), 1),
        (path_graph(3), 2),
        (cycle_graph(5), 2),
    ])
    def test_diameter(self, g, expected):
        assert apsp(g).diameter == expected

    @pytest.mark.parametrize("g,expected", [
        (complete_graph(3), F(1)),
        (star_graph(3), F(3, 2)),
        (cycle_graph(5), F(3, 2)),
    ])
    def test_avg_path_length(self, g, expected):
        assert profile(g).avg_path_length == expected

    @pytest.mark.parametrize("leaves", [3, 4, 5, 6])
    def test_star_formula(self, leaves):
        # closed form for the star: L = 2 * leaves / (leaves + 1)
        g = star_graph(leaves)
        assert profile(g).avg_path_length == F(2 * leaves, leaves + 1)


class TestRestrictedLength:
    """The oracle's ambient distance summed over the unordered pairs of a
    member set, as the tests of R1-R6 use it, on apsp's rows."""

    def test_star_center_neighborhood(self):
        g = star_graph(3)
        assert pair_distance_sum(apsp(g).dist, (1, 2, 3)) == 6

    def test_triangle_neighborhood(self):
        g = complete_graph(3)
        assert pair_distance_sum(apsp(g).dist, (1, 2)) == 1

    def test_single_member_is_zero(self):
        g = path_graph(3)
        assert pair_distance_sum(apsp(g).dist, (1,)) == 0
        assert pair_distance_sum(apsp(g).dist, ()) == 0

    def test_member_order_is_irrelevant(self):
        d = apsp(path_graph(5)).dist
        assert pair_distance_sum(d, (4, 0, 2)) == pair_distance_sum(d, (0, 2, 4)) == 8


class TestClustering:
    def test_triangle(self):
        assert local_clustering(complete_graph(3), 0) == F(1)

    def test_star_center(self):
        assert local_clustering(star_graph(3), 0) == F(0)

    def test_paw_degree3_vertex(self):
        # neighborhood {0, 1, 3} of vertex 2 has the single edge (0, 1)
        assert local_clustering(PAW, 2) == F(1, 3)

    def test_pendant_convention(self):
        assert local_clustering(PAW, 3) == F(0)

    @pytest.mark.parametrize("g,c_ws,c_glob", [
        (complete_graph(3), F(1), F(1)),
        (star_graph(3), F(0), F(0)),
        (path_graph(3), F(0), F(0)),
        # paw: c = (1, 1, 1/3, 0); closed triplets 6 over sum d(d-1) = 10
        (PAW, F(7, 12), F(3, 5)),
    ])
    def test_averages(self, g, c_ws, c_glob):
        assert profile(g).average_clustering == c_ws
        assert global_clustering(g) == c_glob

    def test_global_undefined_on_single_edge(self):
        with pytest.raises(ValueError):
            global_clustering(path_graph(2))


class TestVertexMetrics:
    def test_closeness(self):
        p = profile(path_graph(3))
        assert p.closeness[1] == F(1)
        assert p.closeness[0] == F(2, 3)
        assert profile(complete_graph(4)).closeness[2] == F(1)
        assert profile(cycle_graph(5)).closeness[0] == F(2, 3)

    def test_radiality(self):
        # diameters 2, 1 and 2
        p = profile(path_graph(3))
        assert p.radiality[1] == F(2)
        assert p.radiality[0] == F(3, 2)
        assert profile(complete_graph(3)).radiality[0] == F(1)
        assert profile(cycle_graph(5)).radiality[3] == F(3, 2)

    @pytest.mark.parametrize("leaves", [3, 4, 5, 6])
    def test_star_center_stress(self, leaves):
        g = star_graph(leaves)
        values = stress(g, apsp(g))
        assert values[0] == leaves * (leaves - 1)
        assert all(values[v] == 0 for v in range(1, leaves + 1))

    def test_path_end_stress_zero(self):
        g = path_graph(3)
        values = stress(g, apsp(g))
        assert values[0] == 0 and values[2] == 0

    def test_c4_stress(self):
        g = cycle_graph(4)
        assert list(stress(g, apsp(g))) == [2, 2, 2, 2]

    @given(connected_graphs(max_n=6))
    @settings(max_examples=60)
    def test_stress_matches_path_enumeration(self, g):
        d = apsp(g)
        assert list(stress(g, d)) == brute_force_stress(g)

    @given(connected_graphs(max_n=12))
    @settings(max_examples=60)
    def test_stress_matches_pair_definition(self, g):
        assert list(stress(g, apsp(g))) == pair_stress(g)

    @pytest.mark.parametrize("g", [
        *(watts_strogatz_graph(40, 4, 0.2, seed) for seed in range(3)),
        *(gnp_graph(30, 0.15, seed) for seed in range(2)),
    ])
    def test_stress_on_sampled_graphs(self, g):
        assert list(stress(g, apsp(g))) == pair_stress(g)

    def test_stress_rejects_foreign_distances(self):
        with pytest.raises(ValueError):
            stress(path_graph(4), apsp(path_graph(3)))


class TestPredicates:
    @pytest.mark.parametrize("g,expected", [
        (path_graph(4), True),
        (star_graph(5), True),
        (cycle_graph(4), False),
        (cycle_graph(5), True),
        (complete_graph(4), True),
        (THETA, False),
    ])
    def test_geodetic(self, g, expected):
        assert apsp(g).geodetic is expected

    @pytest.mark.parametrize("g,expected", [
        (path_graph(4), True),
        (cycle_graph(5), True),
        (cycle_graph(4), False),
        (complete_graph(4), False),
        (PAW, True),
        (BOWTIE, True),
        (THETA, False),
        # disconnected: C5 beside C4; a triangle beside a bowtie; P3 beside a
        # diamond rooted at a degree-3 vertex, whose two triangles share the
        # tree edge 3-4 (within the edge bound, and off root 0)
        (Graph.from_edges(9, cycle_graph(5).edges + ((5, 6), (6, 7), (7, 8), (5, 8))), False),
        (Graph.from_edges(8, ((0, 1), (0, 2), (1, 2)) + tuple(
            (u + 3, v + 3) for u, v in BOWTIE.edges)), True),
        (Graph.from_edges(7, ((0, 1), (1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6))), False),
    ])
    def test_even_cycle_free(self, g, expected):
        assert is_even_cycle_free(g) is expected

    @given(connected_graphs(max_n=7))
    @settings(max_examples=60)
    def test_even_cycle_free_matches_cycle_enumeration(self, g):
        assert is_even_cycle_free(g) == (not has_even_cycle(g))

    @given(connected_graphs(max_n=7))
    @settings(max_examples=60)
    def test_geodetic_matches_path_enumeration(self, g):
        assert apsp(g).geodetic == brute_force_geodetic(g)

    @given(connected_graphs(max_n=7))
    @settings(max_examples=60)
    def test_even_cycle_free_implies_geodetic(self, g):
        if is_even_cycle_free(g):
            assert apsp(g).geodetic

    def test_converse_fails_at_k4(self):
        k4 = complete_graph(4)
        assert apsp(k4).geodetic and not is_even_cycle_free(k4)


class TestProfile:
    def test_triangle(self):
        p = profile(complete_graph(3))
        assert p.avg_path_length == F(1)
        assert p.average_clustering == F(1)
        assert p.diameter == 1
        assert p.stress == (0, 0, 0)
        assert p.geodetic

    def test_star(self):
        p = profile(star_graph(3))
        assert p.avg_path_length == F(3, 2)
        assert p.average_clustering == F(0)
        assert p.stress[0] == 6
        assert p.geodetic and p.even_cycle_free
        assert p.pendant == (False, True, True, True)
        assert p.complete_neighborhood == (False, True, True, True)

    def test_c4(self):
        p = profile(cycle_graph(4))
        assert p.avg_path_length == F(4, 3)
        assert p.average_clustering == F(0)
        assert p.stress == (2, 2, 2, 2)
        assert not p.geodetic and not p.even_cycle_free

    def test_single_edge_has_undefined_global_clustering(self):
        p = profile(path_graph(2))
        assert p.global_clustering is None

    def test_requires_connected(self):
        with pytest.raises(DisconnectedGraphError):
            profile(Graph.from_edges(3, [(0, 1)]))

    def test_requires_two_vertices(self):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            profile(Graph.from_edges(1, []))

    @given(connected_graphs())
    @settings(max_examples=60)
    def test_value_ranges(self, g):
        p = profile(g)
        assert all(0 <= c <= 1 for c in p.local_clustering)
        assert all(0 < clo <= 1 for clo in p.closeness)
        assert all(s >= 0 for s in p.stress)
        assert p.average_clustering == sum(p.local_clustering) / F(g.n)

    @given(connected_graphs(max_n=6))
    @settings(max_examples=40)
    def test_clustering_matches_networkx(self, g):
        p = profile(g)
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(range(g.n))
        theirs = nx.clustering(nxg)
        for v in range(g.n):
            assert abs(float(p.local_clustering[v]) - theirs[v]) < 1e-12

    @given(connected_graphs(max_n=6))
    @settings(max_examples=60)
    def test_closed_neighborhood_diameter(self, g):
        p = profile(g)
        for v in range(g.n):
            _, dist = closed_neighborhood_distances(g, v)
            diam = max(max(row) for row in dist)
            assert diam <= 2
            assert (diam == 1) == p.complete_neighborhood[v]


class TestEvenCycleFreeExhaustive:
    @pytest.mark.parametrize("n", range(8))
    def test_small_exhaustive(self, n):
        # every graph of the atlas on n vertices, disconnected ones included
        for atlas in nx.graph_atlas_g():
            if atlas.number_of_nodes() != n:
                continue
            g = Graph.from_edges(n, atlas.edges())
            assert is_even_cycle_free(g) == (not has_even_cycle(g))


def friendship_graph(k):
    """k triangles sharing vertex 0: n = 2k + 1 and m = 3k = 3(n - 1)/2."""
    return Graph.from_edges(2 * k + 1, [e for i in range(1, 2 * k, 2)
                                        for e in ((0, i), (0, i + 1), (i, i + 1))])


class TestEvenCycleFreeEdgeBound:
    """An even-cycle-free graph has at most (n - 1) + (n - 1) // 2 edges;
    ``is_even_cycle_free`` answers False above that without a search."""

    def test_graphs_on_the_bound_still_pass(self):
        tight = []
        for atlas in nx.graph_atlas_g():
            n = atlas.number_of_nodes()
            if n and nx.is_connected(atlas):
                g = Graph.from_edges(n, atlas.edges())
                if g.m == (n - 1) + (n - 1) // 2 and not has_even_cycle(g):
                    tight.append(g)
        assert len(tight) == 10
        assert all(is_even_cycle_free(g) for g in tight)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    def test_friendship_graphs(self, k):
        g = friendship_graph(k)
        assert g.m == 3 * (g.n - 1) // 2
        assert is_even_cycle_free(g)
        # one chord between two triangles closes a 4-cycle and crosses the bound
        if k > 1:
            assert not is_even_cycle_free(Graph.from_edges(g.n, g.edges + ((1, 3),)))

    def test_empty_graph(self):
        # the bound is -2 at n = 0; the guard keeps the empty graph even-cycle-free
        assert is_even_cycle_free(Graph.from_edges(0, []))
