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
    enumerate_connected,
    global_clustering,
    gnp_graph,
    is_even_cycle_free,
    is_geodetic,
    local_clustering,
    path_graph,
    profile,
    star_graph,
    stress,
    watts_strogatz_graph,
)
from centaudit.metrics import pair_distance_sum
from oracles import (
    brute_force_geodetic,
    brute_force_stress,
    closed_neighborhood_distances,
    has_even_cycle,
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
        assert d.dist[0][2] == 2 and d.sigma[0][2] == 1

    def test_c4_opposite_pair(self):
        d = apsp(cycle_graph(4))
        assert d.dist[0][2] == 2 and d.sigma[0][2] == 2

    def test_complete(self):
        d = apsp(complete_graph(3))
        assert all(d.dist[s][t] == 1 and d.sigma[s][t] == 1
                   for s in range(3) for t in range(3) if s != t)

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            apsp(Graph.from_edges(3, [(0, 1)]))

    @given(connected_graphs())
    @settings(max_examples=80)
    def test_matrix_invariants(self, g):
        d = apsp(g)
        n = g.n
        for s in range(n):
            assert d.dist[s][s] == 0 and d.sigma[s][s] == 1
            for t in range(n):
                assert d.dist[s][t] == d.dist[t][s]
                assert (d.dist[s][t] == 1) == (t in g.adj[s]) if s != t else True
                if s != t:
                    assert d.sigma[s][t] >= 1
                for u in range(n):
                    assert d.dist[s][t] <= d.dist[s][u] + d.dist[u][t]

    @given(connected_graphs())
    @settings(max_examples=80)
    def test_sigma_recurrence(self, g):
        d = apsp(g)
        for s in range(g.n):
            for t in range(g.n):
                if s == t:
                    continue
                if d.dist[s][t] == 1:
                    assert d.sigma[s][t] == 1
                expected = sum(
                    d.sigma[s][u]
                    for u in g.adj[t]
                    if d.dist[s][u] == d.dist[s][t] - 1
                )
                assert d.sigma[s][t] == expected

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

    def test_avg_path_length_needs_two_vertices(self):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            profile(Graph.from_edges(1, []))

    @pytest.mark.parametrize("leaves", [3, 4, 5, 6])
    def test_star_formula(self, leaves):
        # closed form for the star: L = 2 * leaves / (leaves + 1)
        g = star_graph(leaves)
        assert profile(g).avg_path_length == F(2 * leaves, leaves + 1)


class TestRestrictedLength:
    """Ambient distance summed over the unordered pairs of a member set, as
    R1-R6 use it."""

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
        assert is_geodetic(apsp(g)) is expected

    @pytest.mark.parametrize("g,expected", [
        (path_graph(4), True),
        (cycle_graph(5), True),
        (cycle_graph(4), False),
        (complete_graph(4), False),
        (PAW, True),
        (BOWTIE, True),
        (THETA, False),
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
        assert is_geodetic(apsp(g)) == brute_force_geodetic(g)

    @given(connected_graphs(max_n=7))
    @settings(max_examples=60)
    def test_even_cycle_free_implies_geodetic(self, g):
        if is_even_cycle_free(g):
            assert is_geodetic(apsp(g))

    def test_converse_fails_at_k4(self):
        k4 = complete_graph(4)
        assert is_geodetic(apsp(k4)) and not is_even_cycle_free(k4)


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
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_exhaustive(self, n):
        for g in enumerate_connected(n):
            assert is_even_cycle_free(g) == (not has_even_cycle(g))
