"""The packed-lane kernels behind ``apsp``, ``stress`` and ``profile``'s pass.

Graphs with at least ``LANE_MIN_N`` vertices and few breadth-first levels run
every source at once on packed integer lanes; the rest run the per-source
search. These tests hold the lane kernels to the per-source path, called
directly, and to the independent oracles, on hosts on both sides of that
choice, and pin which path each kind of host takes. ``profile(g)`` folds the
same blocks and searches without a matrix, and is held to the profile read
off ``apsp``'s matrix.
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
from oracles import brute_force_sigma, floyd_warshall, pair_stress


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


def reference(g):
    """The per-source path's matrix and stress."""
    d = metrics._apsp_bfs(g)
    return d, d.stress


def lanes(g):
    """The lane kernel's matrix and stress, with no fallback to search."""
    d = metrics._apsp_lanes(g)
    return d, d.stress


def assert_matches_oracles(g, d, total):
    dist = floyd_warshall(g)
    assert [list(row) for row in d.dist] == [[int(x) for x in row] for row in dist]
    assert [list(row) for row in d.sigma] == brute_force_sigma(g)
    assert list(total) == pair_stress(g)


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
        d, total = lanes(g)
        assert (d, total) == reference(g)
        assert_matches_oracles(g, d, total)

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
        d, total = lanes(g)
        assert (d, total) == reference(g)
        assert [list(row) for row in d.dist] == [
            [int(x) for x in row] for row in floyd_warshall(g)
        ]

    def test_complete_graph(self):
        g = complete_graph(80)
        d, total = lanes(g)
        assert (d, total) == reference(g)
        assert_matches_oracles(g, d, total)
        assert total == (0,) * 80

    def test_star(self):
        g = star_graph(100)
        d, total = lanes(g)
        assert (d, total) == reference(g)
        assert_matches_oracles(g, d, total)
        assert total[0] == 100 * 99

    @pytest.mark.parametrize("g", [path_graph(100), cycle_graph(101)], ids=["P100", "C101"])
    def test_long_hosts_go_to_search(self, g):
        with pytest.raises(metrics._UseSearch):
            metrics._apsp_lanes(g)
        d = apsp(g)
        total = stress(g, d)
        assert (d, total) == reference(g)
        assert_matches_oracles(g, d, total)


class TestFusedKernelsMatchOracles:
    """One pass per source gives dist, sigma and stress together; both
    kernels are held to the oracles on small random hosts."""

    @given(connected_gnp())
    @settings(max_examples=40, deadline=None)
    def test_per_source_path(self, g):
        d = apsp(g)  # n < LANE_MIN_N
        assert_matches_oracles(g, d, d.stress)

    @given(connected_gnp())
    @settings(max_examples=40, deadline=None)
    def test_lane_blocks(self, g):
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            block = metrics._apsp_block
            patch.setattr(metrics, "LANE_MIN_N", 2)
            patch.setattr(metrics, "LANE_BUDGET", 3 * 16 * g.n)  # 3 sources at W = 16
            patch.setattr(metrics, "_lane_levels", lambda n, width: n)
            patch.setattr(metrics, "_apsp_bfs", refuse)
            patch.setattr(metrics, "_apsp_block",
                          lambda *args: calls.append(args) or block(*args))
            d = apsp(g)
        assert len(calls) >= -(-g.n // 3)
        assert_matches_oracles(g, d, d.stress)


class TestLaneWidths:
    """Layered chains whose path counts pass the guard of 16-bit lanes, of
    32-bit lanes, and of every width; the last reaches per-source search
    through the level bound of 64-bit lanes. Vertex 0 sits in a middle
    layer, so the kernels start narrower than the chain needs and the guard
    has to catch the growth."""

    @staticmethod
    def assert_chain(layers, size, zero_layer, sources):
        g, layer_of = layered_chain(layers, size, zero_layer)
        d = apsp(g)
        total = stress(g, d)
        assert (d, total) == reference(g)
        for s in sources(g.n):
            assert list(d.sigma[s]) == [
                chain_sigma(layer_of, layers, size, s, t) for t in range(g.n)
            ]
        assert list(total) == [chain_stress(layer_of, layers, size, v) for v in range(g.n)]
        return g, d

    def test_chain_needs_32_bits(self):
        g, d = self.assert_chain(8, 8, 3, range)
        assert lanes(g) == reference(g)
        assert max(d.sigma[0]) < 1 << 10 <= max(map(max, d.sigma)) < 1 << 26

    def test_chain_needs_64_bits(self):
        g, d = self.assert_chain(9, 24, 4, range)
        assert lanes(g) == reference(g)
        assert max(d.sigma[0]) < 1 << 25 and 1 << 32 < max(map(max, d.sigma)) < 1 << 57

    def test_chain_needs_more_than_64_bits(self):
        g, d = self.assert_chain(24, 8, 12, lambda n: range(0, n, 7))
        assert max(map(max, d.sigma)) > 1 << 64
        with pytest.raises(metrics._UseSearch):
            metrics._apsp_lanes(g)

    def test_below_counts_outgrow_what_path_counts_fit(self, monkeypatch):
        """A spider's path counts are all 1, but its below-counts reach
        n - 6 = 315, past the 16-bit guard of 2**(16 - 8) at degree 64. The
        block fits the forward pass and reruns at 32 bits for the backward
        one."""
        g = spider(64, 5)
        passes = []
        block = metrics._apsp_block

        def spy(*args):
            lanes = block(*args)
            passes.append((args[-1], lanes is None))
            return lanes

        monkeypatch.setattr(metrics, "_apsp_block", spy)
        d, total = lanes(g)
        assert passes == [(16, True), (32, False)]
        assert (d, total) == reference(g)
        assert list(total) == [spider_stress(64, 5, v) for v in range(g.n)]
        assert max(map(max, d.sigma)) == 1

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
        search = metrics._search
        sources = []
        monkeypatch.setattr(metrics, "_apsp_bfs", refuse)
        monkeypatch.setattr(metrics, "_search", lambda adj, s: sources.append(s) or search(adj, s))
        d = apsp(g)
        assert (d, profile(g, d).stress) == expected
        assert sources == [0]  # the one search that bounds the levels
        sources.clear()
        assert profile(g).stress == expected[1]
        assert sources == [0]

    def test_mining_hosts_stay_on_search(self, monkeypatch):
        monkeypatch.setattr(metrics, "_apsp_lanes", refuse)
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
            metrics._apsp_bfs(g)
        monkeypatch.setattr(metrics, "_apsp_bfs", refuse)
        with pytest.raises(DisconnectedGraphError) as laned:
            apsp(g)
        assert str(laned.value) == str(searched.value)
        assert str(laned.value) == "graph is disconnected: vertex 0 reaches only 40 of 80 vertices"


def assert_pass_matches_matrix(g):
    """``profile(g)``, folded in one pass, equals ``profile(g, apsp(g))``,
    read off the matrix, field by field."""
    folded, read = profile(g), profile(g, apsp(g))
    for field in dataclasses.fields(read):
        assert getattr(folded, field.name) == getattr(read, field.name), field.name


def spy_searches(monkeypatch):
    """The sources of every per-source search, in call order."""
    search = metrics._search
    sources = []
    monkeypatch.setattr(metrics, "_search", lambda adj, s: sources.append(s) or search(adj, s))
    return sources


class TestPassMatchesMatrix:
    """``profile(g)`` folds every per-source quantity as each lane block or
    search is decoded and builds no matrix. It must equal the profile read
    off ``apsp``'s matrix on lane hosts, on hosts that go to search, across
    several blocks, after a block reruns one width up, and after the lanes
    give way to search partway, and raise the same errors."""

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
        assert_pass_matches_matrix(g)

    def test_several_blocks(self, monkeypatch):
        g = watts_strogatz_graph(100, 6, 0.1, seed=2)
        expected = profile(g, apsp(g))
        monkeypatch.setattr(metrics, "LANE_BUDGET", 7 * 16 * g.n)  # 7 sources at W = 16
        block = metrics._apsp_block
        calls = []
        monkeypatch.setattr(metrics, "_apsp_block",
                            lambda *args: calls.append(args[-3:]) or block(*args))
        sources = spy_searches(monkeypatch)
        assert profile(g) == expected
        assert sources == [0]
        assert [(lo, hi) for lo, hi, _ in calls] == [(lo, min(lo + 7, 100)) for lo in range(0, 100, 7)]

    def test_block_reruns_one_width_up(self, monkeypatch):
        g = spider(64, 5)
        expected = profile(g, apsp(g))
        block = metrics._apsp_block
        passes = []

        def spy(*args):
            lanes = block(*args)
            passes.append((args[-1], lanes is None))
            return lanes

        monkeypatch.setattr(metrics, "_apsp_block", spy)
        sources = spy_searches(monkeypatch)
        assert profile(g) == expected
        assert passes == [(16, True), (32, False)]
        assert sources == [0]
        assert list(expected.stress) == [spider_stress(64, 5, v) for v in range(g.n)]

    def test_long_host_goes_to_search_after_its_first_search(self, monkeypatch):
        g = path_graph(100)
        sources = spy_searches(monkeypatch)
        folded = profile(g)
        assert sources == [0, *range(100)]
        assert folded == profile(g, metrics._apsp_bfs(g))

    def test_search_takes_over_partway(self, monkeypatch):
        """With 8 levels allowed, the spider's blocks of sources near the
        centre run on lanes, and the first block holding a source 9 levels
        from a leaf gives way: its sources and all later ones are searched
        one by one, and the blocks already folded stay."""
        g = spider(64, 5)
        expected = profile(g, apsp(g))
        monkeypatch.setattr(metrics, "LANE_BUDGET", 4 * 16 * g.n)  # 4 at W = 16, 2 at 32
        monkeypatch.setattr(metrics, "_lane_levels", lambda n, width: 8)
        sources = spy_searches(monkeypatch)
        assert profile(g) == expected
        assert sources == [0, *range(4, g.n)]

    @given(connected_gnp())
    @settings(max_examples=40, deadline=None)
    def test_small_hosts_on_lanes(self, g):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "LANE_MIN_N", 2)
            patch.setattr(metrics, "LANE_BUDGET", 3 * 16 * g.n)  # 3 sources at W = 16
            patch.setattr(metrics, "_lane_levels", lambda n, width: n)
            sources = spy_searches(patch)
            folded = profile(g)
        assert sources == [0]
        assert folded == profile(g, metrics._apsp_bfs(g))

    @pytest.mark.parametrize("n", [6, 80])
    def test_disconnected_hosts_raise_alike(self, n):
        half = complete_graph(n // 2).edges
        g = Graph.from_edges(n, [*half, *((u + n // 2, v + n // 2) for u, v in half)])
        with pytest.raises(DisconnectedGraphError) as folded:
            profile(g)
        with pytest.raises(DisconnectedGraphError) as read:
            profile(g, apsp(g))
        assert str(folded.value) == str(read.value) == (
            f"graph is disconnected: vertex 0 reaches only {n // 2} of {n} vertices"
        )

    def test_one_vertex_raises_alike(self):
        g = Graph.from_edges(1, [])
        with pytest.raises(ValueError, match="at least 2 vertices") as folded:
            profile(g)
        with pytest.raises(ValueError, match="at least 2 vertices") as read:
            profile(g, apsp(g))
        assert str(folded.value) == str(read.value)
