"""Exact distance and centrality computations.

Every quantity is exact, so all identities can be checked with zero tolerance.
:func:`profile` keeps each one as integers: counts and sums per vertex, and
each graph-level rational as an integer pair over a positive denominator. Its
Fraction views build a :class:`fractions.Fraction` only when read. Floating
point never enters; callers that want decimals convert at display time.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, repeat
from math import lcm
from operator import add, mul
from typing import Any, Callable, Iterable, Iterator, Sequence

from .graphs import Graph


class DisconnectedGraphError(ValueError):
    """Raised when an operation that needs a connected graph gets a disconnected one."""


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances, shortest-path counts and stress for a
    connected graph.

    ``dist[s][t]`` is the length of a shortest s-t path; ``sigma[s][t]`` is the
    number of distinct shortest s-t paths (1 on the diagonal by convention);
    ``stress[v]`` is the number of shortest paths, over ordered endpoint
    pairs, on which v lies as an interior vertex (see :func:`apsp`).
    ``diameter`` is the largest entry of ``dist`` (0 for a single vertex),
    found once when the matrix is built.
    """

    n: int
    dist: tuple[tuple[int, ...], ...]
    sigma: tuple[tuple[int, ...], ...]
    stress: tuple[int, ...]
    diameter: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "diameter", max(map(max, self.dist), default=0))


def apsp(g: Graph) -> DistanceMatrix:
    """Hop distances, shortest-path counts and stress, from one pass over the
    sources.

    Each source's search runs forward for distances and path counts, then
    backward for Brandes' accumulation of stress (Brandes, "On variants of
    shortest-path betweenness centrality and their generic computation",
    Social Networks 30(2), 2008), in integers: visiting vertices in
    decreasing dist(s, .),

        below(v) = sum over neighbors w with dist(s,w) = dist(s,v) + 1
                   of (1 + below(w))

    counts the shortest paths from s through v that continue past v, and v
    gains sigma(s,v) * below(v) for every v != s. O(n*m) work in all.

    Graphs with at least LANE_MIN_N vertices run every source at once on
    packed lanes (:func:`_apsp_lanes`) while the breadth-first levels stay
    within :func:`_lane_levels`; the rest run one search per source
    (:func:`_apsp_bfs`). Both return the same matrix, and both raise
    DisconnectedGraphError with the same message. The lanes are exact because
    a path-count or below-count lane is summed only while it is below
    2**(W - bit_length(max degree) - 1), so no sum of up to max degree of
    them, plus 1, carries into the next lane (see :func:`_apsp_block`).

    The matrix takes O(n**2) memory. :func:`profile` without a matrix folds
    the same blocks and searches as they are decoded and keeps none of it;
    the matrix serves ``check``, the miner and the tests.
    """
    if g.n >= LANE_MIN_N:
        try:
            return _apsp_lanes(g)
        except _UseSearch:
            pass
    return _apsp_bfs(g)


def _apsp_bfs(g: Graph) -> DistanceMatrix:
    """:func:`apsp` one source at a time, O(n + m) memory per source."""
    adj = [tuple(a) for a in g.adj]  # tuples iterate faster than frozensets
    dist_rows = []
    sigma_rows = []
    total = [0] * g.n
    for s in range(g.n):
        dist, sigma, below = _search(adj, s)
        dist_rows.append(tuple(dist))
        sigma_rows.append(tuple(sigma))
        total = list(map(add, total, map(mul, sigma, below)))
    return DistanceMatrix(g.n, tuple(dist_rows), tuple(sigma_rows), tuple(total))


def _search(
    adj: Sequence[Iterable[int]], s: int
) -> tuple[list[int], list[int], list[int]]:
    """Distances, shortest-path counts and below-counts (0 at s) from s:
    breadth-first search records the shortest-path DAG's edges in visit
    order, and the below-counts are summed over them backward, so every
    vertex's successors are final before it is. Raises DisconnectedGraphError
    when s does not reach every vertex."""
    n = len(adj)
    dist = [-1] * n
    sigma = [0] * n
    dist[s] = 0
    sigma[s] = 1
    order = [s]  # the queue: a for loop reads the items appended during it
    dag: list[tuple[int, int]] = []
    for v in order:
        dv1 = dist[v] + 1
        sv = sigma[v]
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dv1
                order.append(w)
            if dist[w] == dv1:
                sigma[w] += sv
                dag.append((v, w))
    if len(order) != n:
        raise DisconnectedGraphError(
            f"graph is disconnected: vertex {s} reaches only {len(order)} of {n} vertices"
        )
    below = [0] * n
    for v, w in reversed(dag):
        below[v] += 1 + below[w]
    below[s] = 0
    return dist, sigma, below


# ---------------------------------------------------------------------------
# Packed lanes: all sources at once
#
# Multi-source breadth-first search (Then et al., "The More the Merrier:
# Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014) with integer
# lanes wide enough for path counts. Each vertex holds one Python int with one
# W-bit lane per source of the current block, source lo + i in bits
# [i*W, (i+1)*W). One big-int operation then does a step for every source, so
# a level costs O(m) big-int operations instead of O(n*m) interpreter steps.
# ---------------------------------------------------------------------------

# Below this many vertices the lanes are not used. Per graph, both passes
# fused, lanes over per-source search (2-vCPU Xeon, median of 11 rounds over
# six connected hosts per point): WS(n, 4, 0.1) 1.37 at n = 16, 1.21 at 24,
# 1.05-1.18 at 40, 0.89-0.95 at 48, 0.74 at 96; WS(n, 6, 0.1) 1.20 at 16,
# 1.00 at 24, 0.64-0.74 at 48, 0.49 at 96; G(n, 6 / (n - 1)) 1.01 at 16,
# 0.79 at 24, 0.54 at 48, 0.39 at 96. From 48 vertices every family gains;
# below it the sparsest does not. Exhaustive mining (n <= 7) and random
# mining's WS(24) hosts keep per-source search, which has no per-call setup.
LANE_MIN_N = 48
LANE_WIDTHS = (16, 32, 64)
# Bits per list of lane ints: a block takes LANE_BUDGET // (n * W) sources,
# so lane state stays within a few such lists, plus one list of level masks
# per forward level, whatever n and W are, and a graph of up to 512 vertices
# runs in one block at W = 16. Chosen by measurement on Watts-Strogatz graphs
# (k = 6) while every caller held the n x n matrices: with fixed blocks of
# 512 sources, apsp plus stress peaked 20 % (n = 1000) and 17 % (n = 2000)
# above per-source search in peak RSS, and with this budget 6.5 % and 0.6 %
# above it. A `compute` run, which now holds no matrix, peaks at 28 MB at
# n = 1000 and 31 MB at n = 3000 (README, "Notes on scale").
LANE_BUDGET = 1 << 22

_LANE_CODES = {8 * array(code).itemsize: code for code in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"


def _lane_levels(n: int, width: int) -> int:
    """Most levels a lane pass over n vertices on ``width``-bit lanes may
    take: 512 / W, and 4n / W below 128 vertices.

    Every level is a pass over all n vertices on ints of W bits per source,
    so lanes pay only while the level count is small against n / W. Measured
    per graph on a 2-vCPU Xeon, graphs beyond this bound ran 1.3-2.2x slower
    on lanes than by per-source search (a 64-cycle and grids of 90-256
    vertices, with 18-32 levels and path counts that need 16- to 64-bit
    lanes), and Watts-Strogatz graphs of 64-400 vertices within it ran
    0.2-0.9x.
    """
    return min(512, 4 * n) // width


class _UseSearch(Exception):
    """Raised when the lanes give way to per-source search: the sources need
    more levels than _lane_levels allows, or a lane more than 64 bits."""


def _lane_blocks(
    n: int, widest: int, spread: int, run: Callable[[int, int, int], Any]
) -> Iterator[tuple[int, int, int, Any]]:
    """Call ``run(lo, hi, width)`` on consecutive blocks of sources until all
    n are covered, yielding (lo, hi, width, lanes) for each.

    The first width tried is the narrowest whose guard, 2**(width - spread),
    exceeds ``widest``. ``run`` returns None when a lane outgrew its guard;
    the block then runs again one width up, and later blocks start at that
    width. Raises _UseSearch when no width is left.
    """
    widths = iter([w for w in LANE_WIDTHS if widest.bit_length() <= w - spread])
    width = next(widths, 0)
    lo = 0
    while lo < n:
        if not width:
            raise _UseSearch
        hi = min(n, lo + max(1, LANE_BUDGET // (n * width)))
        lanes = run(lo, hi, width)
        if lanes is None:
            width = next(widths, 0)
            continue
        yield lo, hi, width, lanes
        lo = hi


def byte_lanes(row: bytes, width: int, size: int = 1) -> int:
    """One int holding the i-th value of ``row``, ``size`` little-endian
    bytes each, in bits [i*width, i*width + 8*size), so every lane holds one
    value (``size`` <= width / 8): byte b of each value is written into
    every width/8-th byte of a zeroed buffer from byte b on, read little
    endian."""
    step = width // 8
    spread = bytearray(len(row) // size * step)
    for b in range(size):
        spread[b::step] = row[b::size]
    return int.from_bytes(spread, "little")


def _unpack_lanes(x: int, count: int, width: int) -> array:
    """The ``count`` lanes of ``x``, lowest first, each ``width`` bits."""
    lanes = array(_LANE_CODES[width], x.to_bytes(count * width // 8, "little"))
    if _BIG_ENDIAN:
        lanes.byteswap()
    return lanes


def _lane_constants(count: int, width: int, spread: int) -> tuple[int, int, int]:
    """(ones, top, over) for ``count`` lanes of ``width`` bits: a 1 in every
    lane, every lane's top bit, and every lane's bits from width - spread up,
    which must be clear in each of up to 2**(spread - 1) - 1 summed lanes for
    their sum to stay below the top bit."""
    ones = byte_lanes(b"\1" * count, width)
    return ones, ones << (width - 1), ((1 << width) - (1 << (width - spread))) * ones


def _apsp_lanes(g: Graph) -> DistanceMatrix:
    """:func:`apsp` on packed lanes, one block of sources at a time. Each
    vertex's distance lanes are summed from the block's level masks, and its
    stress gains the dot product of its path-count lanes with its
    below-lanes, as the lanes are decoded."""
    n = g.n
    nbrs = [tuple(a) for a in g.adj]
    dist_rows: list[tuple[int, ...]] = [()] * n
    sigma_rows: list[tuple[int, ...]] = [()] * n
    total = [0] * n
    for lo, hi, width, (masks, sigma, below) in _source_blocks(nbrs):
        dist = [0] * n
        for k, hits in enumerate(masks, 1):
            dist = list(map(add, dist, map(mul, hits, repeat(k))))
        masks.clear()  # emptied in place: _lane_blocks still holds the lanes
        for v in range(n):  # lanes are dropped as they are decoded
            sig = _unpack_lanes(sigma[v], hi - lo, width)
            dist_rows[v] += tuple(_unpack_lanes(dist[v], hi - lo, width))
            sigma_rows[v] += tuple(sig)
            total[v] += sum(map(mul, sig, _unpack_lanes(below[v], hi - lo, width)))
            dist[v] = sigma[v] = below[v] = 0
    return DistanceMatrix(n, tuple(dist_rows), tuple(sigma_rows), tuple(total))


def _source_blocks(
    nbrs: Sequence[Sequence[int]],
) -> Iterator[tuple[int, int, int, tuple[list[list[int]], list[int], list[int]]]]:
    """The lane blocks of a graph, from :func:`_lane_blocks` over
    :func:`_apsp_block`: (lo, hi, width, lanes) per block of sources.

    One search from vertex 0 comes first, when this is called. It raises for
    a disconnected graph, and it bounds the work: the diameter is at least
    vertex 0's eccentricity, so most long graphs go to per-source search
    before any lane work, and its path counts pick the starting width.
    """
    dist0, sigma0, _ = _search(nbrs, 0)
    levels = max(dist0)
    spread = max(map(len, nbrs)).bit_length() + 1
    return _lane_blocks(
        len(nbrs), max(sigma0), spread,
        lambda lo, hi, width: _apsp_block(nbrs, spread, levels, lo, hi, width),
    )


def _apsp_block(
    nbrs: Sequence[Sequence[int]], spread: int, levels: int, lo: int, hi: int, width: int
) -> tuple[list[list[int]], list[int], list[int]] | None:
    """Level masks, path-count lanes and below-lanes of the sources lo..hi-1
    of a connected graph on ``width``-bit lanes, or None when a lane of
    either pass outgrows its guard. Raises _UseSearch when ``levels``, a
    lower bound on the diameter, or the levels these sources need exceed
    what _lane_levels allows.

    ``masks[k - 1][v]`` holds 1 in the lowest bit of every lane whose source
    is at distance k from v, so the block's last forward level is
    ``len(masks)``. Path-count and below-lanes are per vertex; below is 0 on
    a source's own lane.

    Forward, level k is synchronous: every vertex first sums its neighbors'
    path-count lanes, then keeps the sum on the lanes it has not been reached
    on. On such a lane s the neighbors at distance k - 1 from s carry
    sigma(s, .) and every other neighbor carries 0 (it is at distance k or
    more, still unreached), so the sum is sigma(s, v) and is nonzero exactly
    when dist(s, v) = k, which level k's mask records.

    Backward, levels run from the last one down to 1, synchronously, each on
    its forward mask. A path lane holds 1 + below(v) once v's level has run
    and 0 before, so at level k the sum of the neighbors' path lanes is, on
    every lane where dist(s, v) = k, exactly below(v): neighbors at distance
    k + 1 carry 1 + below, the others are at k or k - 1 and still carry 0.

    Exactness: with spread = bit_length(max degree) + 1, every lane is checked
    to be below 2**(W - spread) before it is summed, so a sum of at most
    max degree lanes, plus 1, stays below 2**(W - 1). No sum carries into
    the next lane, and the carry trick that finds its nonzero lanes
    ((x + low) | x, with low = 2**(W-1) - 1 in every lane) cannot carry
    either. The lanes of the last forward level and of backward level 1 are
    never summed and go unchecked.
    """
    n = len(nbrs)
    if levels > _lane_levels(n, width):
        raise _UseSearch
    ones, top, over = _lane_constants(hi - lo, width, spread)
    low = top - ones
    lane = (1 << width) - 1
    sigma = [0] * n
    unreached = [ones * lane] * n
    for s in range(lo, hi):
        sigma[s] = 1 << (s - lo) * width
        unreached[s] ^= lane << (s - lo) * width
    masks = []
    get = sigma.__getitem__
    for _ in range(_lane_levels(n, width)):
        sums = [sum(map(get, nb)) & u if u else 0 for nb, u in zip(nbrs, unreached)]
        hits = [0] * n
        seen = 0
        for v, t in enumerate(sums):
            if t:
                seen |= t
                hit = hits[v] = (((t + low) | t) & top) >> (width - 1)
                unreached[v] ^= (hit << width) - hit
                sigma[v] |= t
        del sums
        masks.append(hits)
        if not any(unreached):
            break
        if seen & over:
            return None
    else:
        raise _UseSearch
    paths = [0] * n
    get = paths.__getitem__
    for k in range(len(masks), 0, -1):
        hits = masks[k - 1]
        sums = [sum(map(get, nb)) if h else 0 for nb, h in zip(nbrs, hits)]
        seen = 0
        for v, (hit, t) in enumerate(zip(hits, sums)):
            if hit:
                t = (t & ((hit << width) - hit)) + hit
                seen |= t
                paths[v] |= t
        del sums
        if k > 1 and seen & over:
            return None
    # below = paths - 1 on every lane but a source's own, where both are 0
    for v in range(n):
        paths[v] -= ones
    for v in range(lo, hi):
        paths[v] += 1 << (v - lo) * width
    return masks, sigma, paths


def pair_distance_sum(dist: Sequence[Sequence[int]], members: Sequence[int]) -> int:
    """Sum of dist over the unordered pairs of distinct members; 0 for <= 1 member."""
    total = 0
    for u, v in combinations(members, 2):
        total += dist[u][v]
    return total


# wrapped by perfbench's metrics.clustering span, pinned by tests/test_bench_hooks.py
def local_clustering(g: Graph, i: int) -> Fraction:
    """Fraction of realized edges among pairs of neighbors of i; 0 when deg <= 1."""
    g.check_vertex(i)
    neighbors = sorted(g.adj[i])
    d = len(neighbors)
    if d <= 1:
        return Fraction(0)
    adj = g.adj
    links = 0
    for a in range(d):
        na = adj[neighbors[a]]
        for b in range(a + 1, d):
            if neighbors[b] in na:
                links += 1
    return Fraction(2 * links, d * (d - 1))


def global_clustering(g: Graph) -> Fraction:
    """Closed triplets over all triplets: 6 * triangles / sum_i d_i (d_i - 1)."""
    open_triplets = sum(d * (d - 1) for d in g.degrees())
    if open_triplets == 0:
        raise ValueError("global clustering undefined: every vertex has degree <= 1")
    per_edge_common = 0
    adj = g.adj
    for u, v in g.edges:
        per_edge_common += len(adj[u] & adj[v])
    # each triangle is seen from its three edges: closed triplets = 2 * the sum
    return Fraction(2 * per_edge_common, open_triplets)


def stress(g: Graph, d: DistanceMatrix | SourceSums) -> tuple[int, ...]:
    """Per vertex, the number of shortest paths, over ordered endpoint pairs,
    on which it lies as an interior vertex: ``d.stress``, which :func:`apsp`,
    or :func:`profile`'s pass over the sources, finds in the same pass as the
    distances of ``g``."""
    if g.n != d.n:
        raise ValueError(f"distance matrix is for {d.n} vertices, graph has {g.n}")
    return d.stress


def is_geodetic(d: DistanceMatrix) -> bool:
    """True iff every vertex pair is joined by a unique shortest path."""
    for s in range(d.n):
        row = d.sigma[s]
        for t in range(s + 1, d.n):
            if row[t] != 1:
                return False
    return True


def biconnected_blocks(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """Partition the edges into biconnected blocks (bridges are 1-edge blocks)."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    edge_stack: list[tuple[int, int]] = []
    blocks: list[tuple[tuple[int, int], ...]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(sorted(g.adj[root])))]
        while stack:
            v, parent, neighbors = stack[-1]
            descended = False
            for w in neighbors:
                if w == parent:
                    continue
                if disc[w] == -1:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(sorted(g.adj[w]))))
                    descended = True
                    break
                if disc[w] < disc[v]:  # back edge, recorded once
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if descended:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    block = []
                    while True:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == (u, v):
                            break
                    blocks.append(tuple(block))
    return blocks


def is_even_cycle_free(g: Graph) -> bool:
    """True iff no cycle of the graph has even length.

    Decided by block decomposition: a graph is even-cycle-free exactly when
    every biconnected block is a single edge or a single odd cycle. A block is
    a single cycle when it has as many edges as vertices, all of degree 2
    within the block.

    Such a graph is a forest of cacti whose cycles are odd: a component on k
    vertices with c cycles has k - 1 + c edges, and each cycle brings at
    least 2 vertices of its own, so c <= (k - 1) // 2. A graph with more
    than (n - 1) + (n - 1) // 2 edges therefore has an even cycle.
    """
    if g.n and g.m > (g.n - 1) + (g.n - 1) // 2:
        return False
    for block in biconnected_blocks(g):
        if len(block) == 1:
            continue
        degree_in_block: dict[int, int] = {}
        for u, v in block:
            degree_in_block[u] = degree_in_block.get(u, 0) + 1
            degree_in_block[v] = degree_in_block.get(v, 0) + 1
        vert_count = len(degree_in_block)
        if vert_count != len(block):
            return False  # block carries more than one cycle, one of them even
        if any(deg != 2 for deg in degree_in_block.values()):
            return False
        if vert_count % 2 == 0:
            return False
    return True


@dataclass(frozen=True)
class CentralityProfile:
    """Per-vertex and graph-level centralities of one connected graph, as
    integers.

    Per vertex: ``degrees``; ``links``, the edges among the vertex's
    neighbors; ``row_sums``, its distance sum; ``stress``; and the pair sums
    below. Per graph: ``diameter``, ``distance_total`` (the sum of
    ``row_sums``, over ordered pairs) and three rationals as integer pairs
    ``(numerator, positive denominator)``, not necessarily in lowest terms:

    - ``average_clustering_pair``, over n times the lcm of the distinct
      d(d-1) of the vertices of degree >= 2;
    - ``global_clustering_pair``, (2 * total links, sum of d(d-1)), or None
      when every vertex has degree <= 1 (only the single-edge graph among
      connected graphs), where the measure is undefined;
    - ``stress_pair_sum``, the sum over vertices of degree >= 2 of
      stress / (d(d-1)), over the same lcm.

    ``open_pair_sums[i]`` is the sum of ambient distances over the unordered
    pairs of i's neighbors, and ``closed_pair_sums[i]`` the same over N(i) plus
    i itself. Both are read off the distance matrix entry by entry, never
    derived from degree or clustering, so the relations that compare them to
    clustering (R1, R3) test the distances rather than hold by construction.

    ``local_clustering``, ``closeness``, ``radiality``, ``avg_path_length``,
    ``average_clustering`` and ``global_clustering`` are read-only views that
    build the Fractions from these integers each time they are read; the
    per-vertex ones read the integer pairs of :meth:`clustering_pairs`,
    :meth:`closeness_pairs` and :meth:`radiality_pairs`.
    """

    degrees: tuple[int, ...]
    links: tuple[int, ...]
    row_sums: tuple[int, ...]
    stress: tuple[int, ...]
    pendant: tuple[bool, ...]
    complete_neighborhood: tuple[bool, ...]
    open_pair_sums: tuple[int, ...]
    closed_pair_sums: tuple[int, ...]
    diameter: int
    distance_total: int
    average_clustering_pair: tuple[int, int]
    global_clustering_pair: tuple[int, int] | None
    stress_pair_sum: tuple[int, int]
    geodetic: bool
    even_cycle_free: bool

    @property
    def n(self) -> int:
        return len(self.degrees)

    def clustering_pairs(self) -> Iterator[tuple[int, int]]:
        """Per vertex, local clustering as (2 links, d(d-1)); (0, 1) below
        degree 2."""
        for deg, links in zip(self.degrees, self.links):
            yield 2 * links, deg * (deg - 1) or 1

    def closeness_pairs(self) -> Iterator[tuple[int, int]]:
        """Per vertex, closeness as (n - 1, row sum)."""
        for total in self.row_sums:
            yield self.n - 1, total

    def radiality_pairs(self) -> Iterator[tuple[int, int]]:
        """Per vertex, radiality as ((n - 1)(diameter + 1) - row sum, n - 1)."""
        others = self.n - 1
        top = others * (self.diameter + 1)
        for total in self.row_sums:
            yield top - total, others

    @property
    def local_clustering(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(*pair) for pair in self.clustering_pairs())

    @property
    def closeness(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(*pair) for pair in self.closeness_pairs())

    @property
    def radiality(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(*pair) for pair in self.radiality_pairs())

    @property
    def avg_path_length(self) -> Fraction:
        return Fraction(self.distance_total, self.n * (self.n - 1))

    @property
    def average_clustering(self) -> Fraction:
        return Fraction(*self.average_clustering_pair)

    @property
    def global_clustering(self) -> Fraction | None:
        pair = self.global_clustering_pair
        return None if pair is None else Fraction(*pair)


@dataclass(frozen=True)
class SourceSums:
    """The per-source quantities of a :class:`CentralityProfile` of a
    connected graph: per vertex its distance sum, stress and neighborhood
    pair sums; the diameter; and whether every vertex pair is joined by a
    unique shortest path. :func:`profile` folds them in one pass over the
    sources, or reads them off a :class:`DistanceMatrix`."""

    n: int
    row_sums: tuple[int, ...]
    stress: tuple[int, ...]
    open_pair_sums: tuple[int, ...]
    closed_pair_sums: tuple[int, ...]
    diameter: int
    geodetic: bool


def _matrix_sums(g: Graph, d: DistanceMatrix) -> SourceSums:
    """:class:`SourceSums` read off ``d``, the neighborhood pair sums entry
    by entry."""
    dist = d.dist
    open_sums = []
    closed_sums = []
    for nbrs, row in zip(g.adj, dist):
        members = tuple(nbrs)
        open_sum = pair_distance_sum(dist, members)
        open_sums.append(open_sum)
        closed_sums.append(open_sum + sum([row[j] for j in members]))
    return SourceSums(
        d.n, tuple(map(sum, dist)), d.stress, tuple(open_sums), tuple(closed_sums),
        d.diameter, is_geodetic(d),
    )


def _pass_sums(g: Graph) -> SourceSums:
    """:class:`SourceSums` from one pass over the sources, with no matrix:
    the lane blocks of :func:`_source_blocks` where :func:`apsp` takes them,
    then per-source search for the sources no block covered. Each block or
    search is folded as it is decoded and then dropped, so memory stays
    O(n * block) at any n.

    Every quantity is a sum over sources, a maximum or a test, so any split
    of the sources into blocks and searches folds to the same result. Each
    source s adds d(s, v) to v's row sum (over all sources, v's own, by
    symmetry) and sigma(s, v) * below(s, v) to v's stress; for each neighbor
    i of s, its distances to i's neighbors to twice i's open pair sum; and
    its distances to its own neighbors to its closed pair sum. On lanes, two
    neighbors of a vertex are at most 2 apart, so those distances are read
    off the level-1 and level-2 masks, and a lane of their sum over a
    vertex's neighbors stays below 2 * max degree < 2**W. Row sums come from
    the masks too, k times the sources at distance k per level; the diameter
    is the largest last level, and a path-count lane above 1 makes the graph
    non-geodetic.
    """
    n = g.n
    nbrs = [tuple(a) for a in g.adj]
    rows = [0] * n
    total = [0] * n
    twice_open = [0] * n  # over ordered pairs of distinct neighbors
    near_sums = [0] * n  # distances from each vertex to its neighbors
    diameter = 0
    geodetic = True
    done = 0
    if n >= LANE_MIN_N:
        try:
            for lo, hi, width, (masks, sigma, below) in _source_blocks(nbrs):
                count = hi - lo
                for k, hits in enumerate(masks, 1):
                    rows = list(map(add, rows, map(mul, map(int.bit_count, hits), repeat(k))))
                diameter = max(diameter, len(masks))
                above_one = byte_lanes(b"\1" * count, width) * ((1 << width) - 2)
                geodetic = geodetic and not any(map(above_one.__and__, sigma))
                for v in range(n):  # lanes are dropped as they are decoded
                    total[v] += sum(map(
                        mul, _unpack_lanes(sigma[v], count, width),
                        _unpack_lanes(below[v], count, width),
                    ))
                    sigma[v] = below[v] = 0
                near = masks[0] if len(masks) == 1 else [
                    one + (two << 1) for one, two in zip(masks[0], masks[1])
                ]
                masks.clear()  # emptied in place: _lane_blocks still holds the lanes
                get = near.__getitem__
                for i, nb in enumerate(nbrs):
                    inside = [u - lo for u in nb if lo <= u < hi]
                    if inside or lo <= i < hi:
                        lanes = _unpack_lanes(sum(map(get, nb)), count, width)
                        twice_open[i] += sum(map(lanes.__getitem__, inside))
                        if lo <= i < hi:
                            near_sums[i] = lanes[i - lo]
                done = hi
        except _UseSearch:
            pass
    for s in range(done, n):
        dist, sigma, below = _search(nbrs, s)
        rows = list(map(add, rows, dist))
        total = list(map(add, total, map(mul, sigma, below)))
        diameter = max(diameter, max(dist))
        geodetic = geodetic and max(sigma) == 1
        get = dist.__getitem__
        for i in nbrs[s]:
            twice_open[i] += sum(map(get, nbrs[i]))
        near_sums[s] = sum(map(get, nbrs[s]))
    open_sums = [t >> 1 for t in twice_open]
    return SourceSums(
        n, tuple(rows), tuple(total), tuple(open_sums), tuple(map(add, open_sums, near_sums)),
        diameter, geodetic,
    )


def profile(g: Graph, d: DistanceMatrix | None = None) -> CentralityProfile:
    """Compute every centrality of a connected graph, each quantity once and
    in integers. With no matrix, the distance sums, stress, neighborhood
    pair sums, diameter and geodetic flag come from one pass over the
    sources that holds no n x n table (:func:`_pass_sums`); given ``d``,
    they are read off it."""
    if g.n < 2:
        raise ValueError("profile needs at least 2 vertices")
    sums = _pass_sums(g) if d is None else _matrix_sums(g, d)
    adj = g.adj
    degrees = []
    links = []
    for nbrs in adj:
        degrees.append(len(nbrs))
        # an edge among the neighbors is seen from both of its ends
        links.append(sum([len(nbrs & adj[j]) for j in nbrs]) >> 1)
    stresses = stress(g, sums)
    # d(d-1) per vertex: 0 below degree 2, where clustering is 0 and the
    # stress term is left out
    triplets = [deg * (deg - 1) for deg in degrees]
    den = lcm(*set(triplets).difference((0,)))
    clustering_num = stress_num = 0
    for t, t_links, t_stress in zip(triplets, links, stresses):
        if t:
            scale = den // t
            clustering_num += t_links * scale
            stress_num += t_stress * scale
    triplet_total = sum(triplets)
    return CentralityProfile(
        degrees=tuple(degrees),
        links=tuple(links),
        row_sums=sums.row_sums,
        stress=stresses,
        pendant=tuple(deg == 1 for deg in degrees),
        complete_neighborhood=tuple(2 * k == t for k, t in zip(links, triplets)),
        open_pair_sums=sums.open_pair_sums,
        closed_pair_sums=sums.closed_pair_sums,
        diameter=sums.diameter,
        distance_total=sum(sums.row_sums),
        average_clustering_pair=(2 * clustering_num, g.n * den),
        global_clustering_pair=(2 * sum(links), triplet_total) if triplet_total else None,
        stress_pair_sum=(stress_num, den),
        geodetic=sums.geodetic,
        even_cycle_free=is_even_cycle_free(g),
    )
