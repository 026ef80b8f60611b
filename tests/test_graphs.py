import io
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from centaudit import (
    EdgeListError,
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_connected,
    generate,
    gnp_graph,
    local_clustering,
    parse_edge_list,
    path_graph,
    profile,
    serialize_edge_list,
    star_graph,
    watts_strogatz_graph,
)
from centaudit.cli import EXIT_DISCONNECTED, main
from centaudit.graphs import SUBSET_SAMPLE_COUNT, enumerate_connected_range, subset_stream
from oracles import count_connected_graphs, union_find_connected


@st.composite
def arbitrary_graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

class TestGraph:
    def test_basic_fields(self):
        g = Graph.from_edges(3, [(1, 2), (0, 1)])
        assert g.n == 3
        assert g.m == 2
        assert g.edges == ((0, 1), (1, 2))
        assert g.degrees() == (1, 2, 1)
        assert g.adj == ({1}, {0, 2}, {1})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])

    def test_equality_ignores_edge_order(self):
        a = Graph.from_edges(3, [(1, 2), (0, 1)])
        b = Graph.from_edges(3, [(0, 1), (2, 1)])
        assert a == b and hash(a) == hash(b)

    def test_connectivity(self):
        assert path_graph(5).is_connected()
        assert not Graph.from_edges(4, [(0, 1), (2, 3)]).is_connected()
        assert Graph.from_edges(1, []).is_connected()

    @pytest.mark.parametrize("n", range(6))
    def test_connectivity_matches_union_find(self, n):
        # every edge set on n vertices, disconnected ones included
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            g = Graph.from_edges(n, edges)
            assert g.is_connected() == union_find_connected(n, edges)


# ---------------------------------------------------------------------------
# Edge-list parsing and serialization
# ---------------------------------------------------------------------------

class TestEdgeList:
    def test_parse_path(self):
        g = parse_edge_list("0 1\n1 2")
        assert (g.n, g.m) == (3, 2)

    def test_parse_star(self):
        g = parse_edge_list("0 1\n0 2\n0 3")
        assert g == star_graph(3)

    def test_parse_header_and_comments(self):
        g = parse_edge_list("# a star\nn 5\n\n0 1  # inline comment\n0 2\n0 3\n")
        assert g.n == 5 and g.m == 3

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("0 0", "self-loop"),
            ("0 1\n1 0", "duplicate"),
            ("0 1 2", "expected"),
            ("a b", "non-integer"),
            ("n 3\n0 5", ">= declared"),
            ("n x", "bad vertex count"),
            ("", "empty"),
            ("-1 2", "negative"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(EdgeListError, match=fragment):
            parse_edge_list(text)

    def test_parse_error_reports_line_number(self):
        with pytest.raises(EdgeListError) as excinfo:
            parse_edge_list("0 1\n# fine\n2 2\n")
        assert excinfo.value.line == 3

    def test_serialize_connected_graph_has_no_header(self):
        assert serialize_edge_list(star_graph(3)) == "0 1\n0 2\n0 3\n"

    def test_serialize_isolated_vertices_keeps_count(self):
        g = Graph.from_edges(4, [(0, 1)])
        assert serialize_edge_list(g) == "n 4\n0 1\n"

    @given(arbitrary_graphs())
    def test_round_trip(self, g):
        assert parse_edge_list(serialize_edge_list(g)) == g


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

class TestGenerators:
    def test_star_shape(self):
        g = generate("star", {"leaves": 3})
        assert (g.n, g.m, g.degrees()[0]) == (4, 3, 3)

    def test_cycle_shape(self):
        g = generate("cycle", {"n": 5})
        assert (g.n, g.m) == (5, 5)
        assert set(g.degrees()) == {2}

    def test_path_and_complete(self):
        assert path_graph(4).m == 3
        assert complete_graph(5).m == 10

    def test_ws_p0_is_exact_ring_lattice(self):
        g = generate("watts_strogatz", {"n": 10, "k": 4, "p": 0}, seed=99)
        expected = set()
        for i in range(10):
            for s in (1, 2):
                expected.add(tuple(sorted((i, (i + s) % 10))))
        assert set(g.edges) == expected
        assert set(g.degrees()) == {4}

    @pytest.mark.parametrize("model,params", [
        ("gnp", {"n": 8, "p": 0.4}),
        ("watts_strogatz", {"n": 10, "k": 4, "p": 0.3}),
        ("path", {"n": 4}),
    ])
    def test_negative_seed_rejected(self, model, params):
        # Random(-s) would repeat the stream of Random(s)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            generate(model, params, seed=-3)

    @pytest.mark.parametrize("n,k", [(8, 2), (10, 4), (13, 6)])
    def test_ws_p0_is_k_regular(self, n, k):
        g = watts_strogatz_graph(n, k, 0.0)
        assert set(g.degrees()) == {k}

    def test_ws_rewired_stays_simple_same_size(self):
        g = watts_strogatz_graph(20, 4, 0.5, seed=3)
        assert g.n == 20 and g.m == 40  # rewiring preserves the edge count

    def test_ws_deterministic_per_seed(self):
        a = watts_strogatz_graph(16, 4, 0.3, seed=7)
        b = watts_strogatz_graph(16, 4, 0.3, seed=7)
        c = watts_strogatz_graph(16, 4, 0.3, seed=8)
        assert a == b
        assert a != c  # overwhelmingly likely for these parameters

    def test_gnp_extremes(self):
        assert gnp_graph(6, 0.0, seed=1).m == 0
        assert gnp_graph(6, 1.0, seed=1) == complete_graph(6)

    def test_gnp_deterministic(self):
        assert gnp_graph(12, 0.4, seed=5) == gnp_graph(12, 0.4, seed=5)

    @pytest.mark.parametrize(
        "model,params",
        [
            ("path", {"n": 0}),
            ("cycle", {"n": 2}),
            ("star", {"leaves": -1}),
            ("gnp", {"n": 5, "p": 1.5}),
            ("watts_strogatz", {"n": 10, "k": 3, "p": 0.1}),
            ("watts_strogatz", {"n": 4, "k": 4, "p": 0.1}),
            ("watts_strogatz", {"n": 10, "k": 4, "p": -0.1}),
            ("nosuch", {"n": 3}),
        ],
    )
    def test_invalid_parameters(self, model, params):
        with pytest.raises(ValueError):
            generate(model, params)

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="requires"):
            generate("gnp", {"n": 5})


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728)])
    def test_known_counts(self, n, count):
        assert sum(1 for _ in enumerate_connected(n)) == count

    def test_count_of_26704_at_n6(self):
        assert sum(1 for _ in enumerate_connected(6)) == 26704

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_union_find_oracle(self, n):
        assert sum(1 for _ in enumerate_connected(n)) == count_connected_graphs(n)

    def test_ascending_bitmask_order_n3(self):
        # masks 3, 5, 6, 7 over pair bits (0,1), (0,2), (1,2)
        graphs = list(enumerate_connected(3))
        assert [g.edges for g in graphs] == [
            ((0, 1), (0, 2)),
            ((0, 1), (1, 2)),
            ((0, 2), (1, 2)),
            ((0, 1), (0, 2), (1, 2)),
        ]

    def test_all_yields_are_connected_and_unique(self):
        seen = set()
        for g in enumerate_connected(4):
            assert union_find_connected(g.n, g.edges)
            assert g.edges not in seen
            seen.add(g.edges)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            list(enumerate_connected(9))
        with pytest.raises(ValueError):
            list(enumerate_connected(0))

    def test_graph_from_mask(self):
        # bits 0, 1, 2 are the pairs (0,1), (0,2), (1,2)
        assert list(enumerate_connected_range(3, 7, 8)) == [complete_graph(3)]
        assert list(enumerate_connected_range(3, 3, 4)) == [star_graph(2)]
        assert list(enumerate_connected_range(3, 8, 9)) == []


# ---------------------------------------------------------------------------
# Neighborhoods (as the profile sees them), subsets, pendants
# ---------------------------------------------------------------------------

class TestViews:
    def test_open_neighborhood_in_triangle(self):
        p = profile(complete_graph(3))
        assert complete_graph(3).adj[0] == {1, 2}
        assert p.local_clustering[0] == 1 and p.complete_neighborhood[0]

    def test_star_center_open_neighborhood(self):
        p = profile(star_graph(3))
        assert p.degrees[0] == 3
        assert p.local_clustering[0] == 0 and not p.complete_neighborhood[0]

    def test_path_end_closed_neighborhood(self):
        p = profile(path_graph(3))
        assert p.degrees[0] == 1 and p.complete_neighborhood[0]

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            local_clustering(path_graph(3), 3)

    @given(arbitrary_graphs(min_n=2, max_n=6))
    @settings(max_examples=60)
    def test_induced_edges_match_double_loop(self, g):
        # the edges induced by an open neighborhood, counted by a double loop,
        # are the links that local clustering normalizes
        for v in range(g.n):
            members = sorted(g.adj[v])
            links = sum(
                1 for a in members for b in members if a < b and b in g.adj[a]
            )
            d = len(members)
            expected = Fraction(2 * links, d * (d - 1)) if d >= 2 else 0
            assert local_clustering(g, v) == expected


class TestInducedSubsets:
    """R6's subjects: ``subset_stream`` yields (members, mask) pairs."""

    def test_path3_has_four_subsets(self):
        assert list(subset_stream(3)) == [
            ((0, 1), 0b011), ((0, 2), 0b101), ((1, 2), 0b110), ((0, 1, 2), 0b111),
        ]

    def test_c4_has_eleven_subsets(self):
        assert sum(1 for _ in subset_stream(4)) == 11

    def test_min_size_validation(self):
        # size-1 subsets never appear, enumerated or sampled
        small = list(subset_stream(4))
        sampled = list(subset_stream(12))
        assert min(len(members) for members, _ in small + sampled) == 2

    def test_requires_connected_host(self, monkeypatch):
        # the stream takes no graph: a disconnected host is refused by the
        # distance pass, so check exits 3 before any subset is drawn
        two_triangles = "0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(two_triangles))
        out, err = io.StringIO(), io.StringIO()
        assert main(["check", "-", "--relations", "R6"], out=out, err=err) == EXIT_DISCONNECTED
        assert out.getvalue() == "" and "disconnected" in err.getvalue()

    def test_large_host_sampling_is_deterministic(self):
        first = list(subset_stream(14, seed=4))
        second = list(subset_stream(14, seed=4))
        assert first == second
        assert len(first) == len({mask for _, mask in first}) == SUBSET_SAMPLE_COUNT
        assert first != list(subset_stream(14, seed=5))

    @pytest.mark.parametrize("n", [11, 16, 17, 24, 150])
    def test_sampled_members_match_bitwise_decode(self, n):
        # byte boundaries (16, 17), several bytes (24) and the top bit (150)
        stream = list(subset_stream(n))
        for members, mask in stream:
            assert 0 < mask < 1 << n
            assert members == tuple(v for v in range(n) if mask >> v & 1)
        assert any(members[-1] == n - 1 for members, _ in stream)


class TestPendants:
    def test_star_leaves(self):
        assert profile(star_graph(3)).pendant == (False, True, True, True)

    def test_cycle_has_none(self):
        assert not any(profile(cycle_graph(5)).pendant)

    def test_path_ends(self):
        assert profile(path_graph(3)).pendant == (True, False, True)
