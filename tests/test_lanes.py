"""The packed-lane kernels behind ``apsp``, ``stress`` and ``profile``.

Graphs with at least ``LANE_MIN_N`` vertices and few breadth-first levels run
every source at once on packed integer lanes; the rest run the per-source
search. Both are folded by one pass over the sources, which ``apsp`` runs
with the distance rows kept and ``profile`` without them. These tests hold
the lane blocks to the same pass forced onto per-source search and to the
independent oracles, on hosts on both sides of that choice, and pin which
path each kind of host takes.
"""

import dataclasses
import io

import pytest
from hypothesis import given, settings, strategies as st

from centaudit import (
    DisconnectedGraphError,
    Graph,
    apsp,
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    profile,
    star_graph,
    stress,
    watts_strogatz_graph,
)
from centaudit import metrics
from centaudit.cli import main
from oracles import brute_force_geodetic, floyd_warshall, pair_distance_sum, pair_stress


def layered_chain(layers: int, size: int, zero_layer: int) -> tuple[Graph, list[int]]:
    """Consecutive layers of ``size`` vertices, each joined to the next by a
    complete bipartite graph, and the layer of every vertex. Vertex 0 sits in
    ``zero_layer``, so the path counts from vertex 0, which pick the starting
    lane width, stay below those between the end layers."""
    order = [zero_layer] + [i for i in range(layers) if i != zero_layer]
    layer_of = [layer for layer in order for _ in range(size)]
    members = [[v for v, i in enumerate(layer_of) if i == layer] for layer in range(layers)]
    edges = [(u, w) for a, b in zip(members, members[1:]) for u in a for w in b]
    return Graph.from_edges(layers * size, edges), layer_of


def chain_dist(layer_of, s, t):
    """Distance between s and t in a layered chain, in closed form."""
    p, q = layer_of[s], layer_of[t]
    return abs(p - q) if p != q else 2 * (s != t)


def chain_sigma(layer_of, layers, size, s, t):
    """Shortest-path count between s and t in a layered chain, in closed form."""
    p, q = layer_of[s], layer_of[t]
    if s == t:
        return 1
    if p != q:
        return size ** (abs(p - q) - 1)
    return size * ((p >= 1) + (p <= layers - 2))


def chain_stress(layer_of, layers, size, v):
    """Stress of v in a layered chain, in closed form: pairs across v's layer
    route through it with sigma(s, v) * sigma(v, t) paths, and pairs inside
    each neighboring layer have v as one of their middle vertices."""
    i = layer_of[v]
    across = sum(
        size ** (q - p) for p in range(i) for q in range(i + 1, layers)
    )  # size * size pairs, each with size**(i-p-1) * size**(q-i-1) paths
    inside = size * (size - 1) * ((i >= 1) + (i <= layers - 2))
    return 2 * across + inside


def spider(legs: int, length: int) -> Graph:
    """``legs`` paths of ``length`` vertices joined at centre 0."""
    edges = []
    for i in range(legs):
        first = 1 + i * length
        edges += [(0, first), *((v, v + 1) for v in range(first, first + length - 1))]
    return Graph.from_edges(1 + legs * length, edges)


def spider_stress(legs, length, v):
    """Stress of v in a spider, in closed form: in a tree, v is interior to
    the one path between every ordered pair of vertices in different
    components of the tree without v."""
    n = 1 + legs * length
    if v == 0:
        return (n - 1) ** 2 - legs * length ** 2
    beyond = length - 1 - (v - 1) % length  # the leg's vertices past v
    return 2 * beyond * (n - 1 - beyond)


@st.composite
def connected_gnp(draw, max_n=14):
    """G(n, p) for 2 <= n <= ``max_n``, joined along the path 0..n-1 when it
    is not connected."""
    n = draw(st.integers(2, max_n))
    g = gnp_graph(n, draw(st.floats(0.1, 0.9)), seed=draw(st.integers(0, 2**32 - 1)))
    if not g.is_connected():
        g = Graph.from_edges(n, set(g.edges) | set(path_graph(n).edges))
    return g


def spy_searches(monkeypatch):
    """The sources of every per-source search, in call order."""
    search = metrics._search
    sources = []
    monkeypatch.setattr(metrics, "_search", lambda adj, s: sources.append(s) or search(adj, s))
    return sources


def reference(g):
    """``apsp(g)`` with the lanes off: the same pass, one search per source."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "LANE_MIN_N", g.n + 1)
        return apsp(g)


def lanes(g):
    """``apsp(g)`` on lane blocks alone: no search but the first one from
    vertex 0, which bounds the levels."""
    with pytest.MonkeyPatch.context() as patch:
        sources = spy_searches(patch)
        d = apsp(g)
    assert sources == [0]
    return d


def assert_matches_oracles(g, d):
    """Every field of ``apsp``'s sums against Floyd-Warshall distances,
    stress by its pair definition and geodesy by path enumeration."""
    dist = [[int(x) for x in row] for row in floyd_warshall(g)]
    assert [list(row) for row in d.dist] == dist
    assert d.row_sums == tuple(map(sum, dist))
    assert d.diameter == max(map(max, dist))
    nbrs = [sorted(a) for a in g.adj]
    assert d.open_pair_sums == tuple(pair_distance_sum(dist, nb) for nb in nbrs)
    assert d.closed_pair_sums == tuple(
        pair_distance_sum(dist, sorted([i, *nb])) for i, nb in enumerate(nbrs)
    )
    assert list(d.stress) == pair_stress(g)
    assert d.geodetic == brute_force_geodetic(g)


class TestLaneRoundTrip:
    @pytest.mark.parametrize("width", metrics.LANE_WIDTHS)
    def test_pack_unpack(self, width):
        row = [0, 1, 255, 1, 0, 255]
        packed = metrics.byte_lanes(bytes(row), width)
        assert packed == sum(v << (i * width) for i, v in enumerate(row))
        assert list(metrics._unpack_lanes(packed, len(row), width)) == row
        values = [0, 1, (1 << (width - 1)) - 1, 1, 0, (1 << width) - 1]
        packed = sum(v << (i * width) for i, v in enumerate(values))
        assert list(metrics._unpack_lanes(packed, len(values), width)) == values
        assert metrics._pack_lanes(values, width) == packed

    @pytest.mark.parametrize("size, width", [
        (size, width) for size in (2, 4) for width in metrics.LANE_WIDTHS if width > 8 * size
    ])
    def test_widen_multibyte_values(self, size, width):
        """byte_lanes spreads values of ``size`` bytes into wider lanes, the
        step that widens R6's pair-count lanes to the pair-sum width."""
        full = (1 << (8 * size)) - 1
        values = [0, 1, full, 255, 256, 1 << (8 * size - 1), full, 0, full - 1]
        row = b"".join(v.to_bytes(size, "little") for v in values)
        packed = metrics.byte_lanes(row, width, size)
        assert packed == sum(v << (i * width) for i, v in enumerate(values))
        assert list(metrics._unpack_lanes(packed, len(values), width)) == values
        ones = metrics.byte_lanes(b"\xff" * (size * 5), width, size)
        assert list(metrics._unpack_lanes(ones, 5, width)) == [full] * 5

    @pytest.mark.parametrize("width", metrics.LANE_WIDTHS)
    def test_unpack_keeps_high_zero_lanes(self, width):
        assert list(metrics._unpack_lanes(1, 3, width)) == [1, 0, 0]


class TestLanesMatchSearchAndOracles:
    @pytest.mark.parametrize("n,k,seed", [(64, 4, 0), (96, 6, 1)])
    def test_small_world_hosts_against_oracles(self, n, k, seed):
        g = watts_strogatz_graph(n, k, 0.1, seed=seed)
        d = lanes(g)
        assert d == reference(g)
        assert_matches_oracles(g, d)

    @pytest.mark.parametrize("n,k,seed", [(100, 4, 2), (150, 4, 3), (150, 6, 4)])
    def test_small_world_hosts_against_search(self, n, k, seed):
        g = watts_strogatz_graph(n, k, 0.1, seed=seed)
        assert lanes(g) == reference(g)

    @given(
        n=st.integers(64, 96),
        p=st.floats(0.06, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_connected_hosts(self, n, p, seed):
        g = gnp_graph(n, p, seed=seed)
        g = Graph.from_edges(n, set(g.edges) | set(path_graph(n).edges))
        d = lanes(g)
        assert d == reference(g)
        assert [list(row) for row in d.dist] == [
            [int(x) for x in row] for row in floyd_warshall(g)
        ]

    def test_complete_graph(self):
        g = complete_graph(80)
        d = lanes(g)
        assert d == reference(g)
        assert_matches_oracles(g, d)
        assert d.stress == (0,) * 80

    def test_star(self):
        g = star_graph(100)
        d = lanes(g)
        assert d == reference(g)
        assert_matches_oracles(g, d)
        assert d.stress[0] == 100 * 99

    @pytest.mark.parametrize("g", [path_graph(100), cycle_graph(101)], ids=["P100", "C101"])
    def test_long_hosts_go_to_search(self, g, monkeypatch):
        sources = spy_searches(monkeypatch)
        d = apsp(g)
        assert sources == [0, *range(g.n)]  # vertex 0's search turns the lanes away
        assert d == reference(g)
        assert_matches_oracles(g, d)


class TestFusedKernelsMatchOracles:
    """One pass per source gives distances, stress and the geodetic flag
    together; both kernels are held to the oracles on small random hosts."""

    @given(connected_gnp())
    @settings(max_examples=40, deadline=None)
    def test_per_source_path(self, g):
        assert_matches_oracles(g, apsp(g))  # n < LANE_MIN_N

    @given(connected_gnp())
    @settings(max_examples=40, deadline=None)
    def test_lane_blocks(self, g):
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            block = metrics._apsp_block
            patch.setattr(metrics, "LANE_MIN_N", 2)
            patch.setattr(metrics, "LANE_BUDGET", 3 * 16 * g.n)  # 3 sources at W = 16
            patch.setattr(metrics, "_lane_levels", lambda n, width: n)
            patch.setattr(metrics, "_apsp_block",
                          lambda *args: calls.append(args) or block(*args))
            d = lanes(g)
        assert len(calls) >= -(-g.n // 3)
        assert_matches_oracles(g, d)


def spy_blocks(monkeypatch):
    """``(width, gave way)`` for every lane block run, in call order."""
    block = metrics._apsp_block
    passes = []

    def spy(*args):
        lanes = block(*args)
        passes.append((args[-1], lanes is None))
        return lanes

    monkeypatch.setattr(metrics, "_apsp_block", spy)
    return passes


class TestLaneWidths:
    """Layered chains whose path counts pass the guard of 16-bit lanes, of
    32-bit lanes, and of every width; the last reaches per-source search
    through the level bound of 64-bit lanes. Vertex 0 sits in a middle
    layer, so the kernels start narrower than the chain needs and the guard
    has to catch the growth."""

    @staticmethod
    def assert_chain(layers, size, zero_layer, monkeypatch):
        """apsp on the chain against the per-source pass and the closed
        forms; returns the chain's path counts in closed form, from vertex
        0 and over all pairs, and the lane blocks run."""
        g, layer_of = layered_chain(layers, size, zero_layer)
        expected = reference(g)
        passes = spy_blocks(monkeypatch)
        d = apsp(g)
        assert d == expected
        assert [list(row) for row in d.dist] == [
            [chain_dist(layer_of, s, t) for t in range(g.n)] for s in range(g.n)
        ]
        assert list(stress(g, d)) == [chain_stress(layer_of, layers, size, v) for v in range(g.n)]
        assert not d.geodetic
        sigma = [[chain_sigma(layer_of, layers, size, s, t) for t in range(g.n)]
                 for s in range(g.n)]
        return max(sigma[0]), max(map(max, sigma)), passes

    def test_chain_needs_32_bits(self, monkeypatch):
        first, widest, passes = self.assert_chain(8, 8, 3, monkeypatch)
        assert first < 1 << 10 <= widest < 1 << 26
        assert passes == [(16, True), (32, False)]

    def test_chain_needs_64_bits(self, monkeypatch):
        first, widest, passes = self.assert_chain(9, 24, 4, monkeypatch)
        assert first < 1 << 25 and 1 << 32 < widest < 1 << 57
        assert passes == [(32, True), (64, False)]

    def test_chain_needs_more_than_64_bits(self, monkeypatch):
        sources = spy_searches(monkeypatch)
        _, widest, passes = self.assert_chain(24, 8, 12, monkeypatch)
        assert widest > 1 << 64
        assert passes == []
        assert sources == [*range(192), 0, *range(192)]  # the reference's, then apsp's

    def test_below_counts_outgrow_what_path_counts_fit(self, monkeypatch):
        """A spider's path counts are all 1, but its below-counts reach
        n - 6 = 315, past the 16-bit guard of 2**(16 - 8) at degree 64. The
        block fits the forward pass and reruns at 32 bits for the backward
        one."""
        g = spider(64, 5)
        expected = reference(g)
        passes = spy_blocks(monkeypatch)
        d = lanes(g)
        assert passes == [(16, True), (32, False)]
        assert d == expected
        assert list(d.stress) == [spider_stress(64, 5, v) for v in range(g.n)]
        assert d.geodetic

    def test_blocks_give_up_past_the_widest_lanes(self):
        blocks = metrics._lane_blocks(100, 1, 2, lambda lo, hi, width: None)
        with pytest.raises(metrics._UseSearch):
            next(blocks)

    def test_blocks_cover_every_source_once(self, monkeypatch):
        monkeypatch.setattr(metrics, "LANE_BUDGET", 70 * 32)  # 2 lanes at W = 16, 1 at 32

        def run(lo, hi, width):
            return None if (lo, width) == (20, 16) else ()

        seen = [(lo, hi, w) for lo, hi, w, _ in metrics._lane_blocks(70, 1, 2, run)]
        assert [x for lo, hi, _ in seen for x in range(lo, hi)] == list(range(70))
        assert all(w == 16 and hi - lo == 2 for lo, hi, w in seen if lo < 20)
        assert all(w == 32 and hi - lo == 1 for lo, hi, w in seen if lo >= 20)


def refuse(*args):
    raise AssertionError("this path must not run")


class TestDispatch:
    def test_large_small_world_host_stays_on_lanes(self, monkeypatch):
        g = watts_strogatz_graph(400, 6, 0.1, seed=0)
        expected = reference(g)
        sources = spy_searches(monkeypatch)
        d = apsp(g)
        assert d == expected
        assert sources == [0]  # the one search that bounds the levels
        sources.clear()
        assert profile(g).stress == expected.stress
        assert sources == [0]

    def test_mining_hosts_stay_on_search(self, monkeypatch):
        monkeypatch.setattr(metrics, "_source_blocks", refuse)
        monkeypatch.setattr(metrics, "_apsp_block", refuse)
        assert main(["mine", "--n-max", "5", "--format", "json"], out=io.StringIO()) == 0
        argv = ["mine", "--model", "watts_strogatz", "--n", "24", "--k", "4", "--p", "0.1",
                "--trials", "5", "--seed", "0", "--format", "json"]
        assert main(argv, out=io.StringIO()) == 0
        profile(watts_strogatz_graph(24, 4, 0.1, seed=0))

    def test_disconnected_host_raises_on_lane_path(self, monkeypatch):
        k40 = complete_graph(40).edges
        g = Graph.from_edges(80, [*k40, *((u + 40, v + 40) for u, v in k40)])
        with pytest.raises(DisconnectedGraphError) as searched:
            reference(g)
        blocks = metrics._source_blocks
        calls = []
        monkeypatch.setattr(metrics, "_source_blocks",
                            lambda nbrs: calls.append(len(nbrs)) or blocks(nbrs))
        with pytest.raises(DisconnectedGraphError) as laned:
            apsp(g)
        assert calls == [80]
        assert str(laned.value) == str(searched.value)
        assert str(laned.value) == "graph is disconnected: vertex 0 reaches only 40 of 80 vertices"


def assert_pass_matches_search(g):
    """``profile(g)``, folded in one pass without rows, equals the profile
    of the same pass forced onto per-source search, field by field but the
    distance rows, and ``apsp(g)``, the pass with rows, folds the same sums
    and the same rows as the search."""
    folded, searched = profile(g), profile(g, reference(g))
    for field in dataclasses.fields(searched):
        if field.name != "dist":
            assert getattr(folded, field.name) == getattr(searched, field.name), field.name
    laned = profile(g, apsp(g))
    assert laned == folded
    assert folded.dist is None
    assert laned.dist == searched.dist and searched.dist is not None


class TestPassMatchesMatrix:
    """The pass folds every per-source quantity as each lane block or search
    is decoded. With rows or without, it must equal the same pass forced
    onto per-source search on lane hosts, on hosts that go to search,
    across several blocks, after a block reruns one width up, and after the
    lanes give way to search partway, where ``apsp``'s rows must still equal
    the Floyd-Warshall matrix; and raise the same errors."""

    @pytest.mark.parametrize("g", [
        layered_chain(8, 8, 3)[0],
        layered_chain(9, 24, 4)[0],
        layered_chain(24, 8, 12)[0],
        spider(64, 5),
        complete_graph(80),
        star_graph(100),
        watts_strogatz_graph(64, 4, 0.1, seed=0),
        watts_strogatz_graph(150, 6, 0.1, seed=4),
        path_graph(100),
        cycle_graph(101),
    ], ids=["chain32", "chain64", "chain-over-64", "spider", "K80", "S100", "ws64", "ws150",
            "P100", "C101"])
    def test_lane_and_search_hosts(self, g):
        assert_pass_matches_search(g)

    def test_several_blocks(self, monkeypatch):
        g = watts_strogatz_graph(100, 6, 0.1, seed=2)
        expected = reference(g)
        monkeypatch.setattr(metrics, "LANE_BUDGET", 7 * 16 * g.n)  # 7 sources at W = 16
        block = metrics._apsp_block
        calls = []
        monkeypatch.setattr(metrics, "_apsp_block",
                            lambda *args: calls.append(args[-3:]) or block(*args))
        sources = spy_searches(monkeypatch)
        assert profile(g) == profile(g, expected)
        assert sources == [0]
        assert [(lo, hi) for lo, hi, _ in calls] == [(lo, min(lo + 7, 100)) for lo in range(0, 100, 7)]
        assert apsp(g) == expected  # the blocks' rows, in source order

    def test_block_reruns_one_width_up(self, monkeypatch):
        g = spider(64, 5)
        expected = reference(g)
        passes = spy_blocks(monkeypatch)
        sources = spy_searches(monkeypatch)
        assert profile(g) == profile(g, expected)
        assert passes == [(16, True), (32, False)]
        assert sources == [0]
        assert list(expected.stress) == [spider_stress(64, 5, v) for v in range(g.n)]

    def test_long_host_goes_to_search_after_its_first_search(self, monkeypatch):
        g = path_graph(100)
        expected = reference(g)
        sources = spy_searches(monkeypatch)
        folded = profile(g)
        assert sources == [0, *range(100)]
        assert folded == profile(g, expected)

    def test_search_takes_over_partway(self, monkeypatch):
        """With 8 levels allowed, the spider's blocks of sources near the
        centre run on lanes, and the first block holding a source 9 levels
        from a leaf gives way: its sources and all later ones are searched
        one by one, and the blocks already folded stay."""
        g = spider(64, 5)
        expected = reference(g)
        monkeypatch.setattr(metrics, "LANE_BUDGET", 4 * 16 * g.n)  # 4 at W = 16, 2 at 32
        monkeypatch.setattr(metrics, "_lane_levels", lambda n, width: 8)
        sources = spy_searches(monkeypatch)
        assert profile(g) == profile(g, expected)
        assert sources == [0, *range(4, g.n)]
        assert apsp(g) == expected

    def test_rows_when_search_takes_over_partway(self, monkeypatch):
        """The same on a spider small enough for Floyd-Warshall: the block
        of the centre and the first leg vertex (at most 5 levels away) runs
        on lanes, the next block needs 6 levels and gives way, and the rows
        of both paths, in source order, are the distance matrix."""
        g = spider(8, 4)
        expected = reference(g)
        monkeypatch.setattr(metrics, "LANE_MIN_N", 2)
        monkeypatch.setattr(metrics, "LANE_BUDGET", 2 * 16 * g.n)  # 2 sources at W = 16
        monkeypatch.setattr(metrics, "_lane_levels", lambda n, width: 5)
        passes = spy_blocks(monkeypatch)
        sources = spy_searches(monkeypatch)
        d = apsp(g)
        assert passes == [(16, False)]
        assert sources == [0, *range(2, g.n)]
        assert d == expected
        assert [list(row) for row in d.dist] == [
            [int(x) for x in row] for row in floyd_warshall(g)
        ]

    @given(connected_gnp())
    @settings(max_examples=40, deadline=None)
    def test_small_hosts_on_lanes(self, g):
        expected = profile(g, reference(g))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "LANE_MIN_N", 2)
            patch.setattr(metrics, "LANE_BUDGET", 3 * 16 * g.n)  # 3 sources at W = 16
            patch.setattr(metrics, "_lane_levels", lambda n, width: n)
            sources = spy_searches(patch)
            folded = profile(g)
        assert sources == [0]
        assert folded == expected

    @pytest.mark.parametrize("n", [6, 80])
    def test_disconnected_hosts_raise_alike(self, n):
        half = complete_graph(n // 2).edges
        g = Graph.from_edges(n, [*half, *((u + n // 2, v + n // 2) for u, v in half)])
        with pytest.raises(DisconnectedGraphError) as folded:
            profile(g)
        with pytest.raises(DisconnectedGraphError) as searched:
            reference(g)
        assert str(folded.value) == str(searched.value) == (
            f"graph is disconnected: vertex 0 reaches only {n // 2} of {n} vertices"
        )

    def test_one_vertex_raises_alike(self):
        g = Graph.from_edges(1, [])
        with pytest.raises(ValueError, match="at least 2 vertices") as folded:
            profile(g)
        with pytest.raises(ValueError, match="at least 2 vertices") as read:
            profile(g, apsp(g))
        assert str(folded.value) == str(read.value)
