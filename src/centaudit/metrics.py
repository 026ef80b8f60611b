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
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Any, Callable, Iterable, Iterator, Sequence

from .graphs import Graph


class DisconnectedGraphError(ValueError):
    """Raised when an operation that needs a connected graph gets a disconnected one."""


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances plus shortest-path counts for a connected graph.

    ``dist[s][t]`` is the length of a shortest s-t path; ``sigma[s][t]`` is the
    number of distinct shortest s-t paths (1 on the diagonal by convention).
    ``diameter`` is the largest entry of ``dist`` (0 for a single vertex),
    found once when the matrix is built.
    """

    n: int
    dist: tuple[tuple[int, ...], ...]
    sigma: tuple[tuple[int, ...], ...]
    diameter: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "diameter", max(map(max, self.dist), default=0))


def apsp(g: Graph) -> DistanceMatrix:
    """Hop distances and shortest-path counts between all vertex pairs.

    Graphs with at least LANE_MIN_N vertices run every source at once on
    packed lanes (:func:`_apsp_lanes`) while the breadth-first levels stay
    within :func:`_lane_levels`; the rest run one breadth-first search per
    source (:func:`_apsp_bfs`). Both return the same matrix, and both raise
    DisconnectedGraphError with the same message. The lanes are exact because
    a path-count lane is summed only while it is below
    2**(W - bit_length(max degree) - 1), so no sum of up to max degree of
    them carries into the next lane (see :func:`_apsp_block`).
    """
    if g.n >= LANE_MIN_N:
        try:
            return _apsp_lanes(g)
        except _UseSearch:
            pass
    return _apsp_bfs(g)


def _apsp_bfs(g: Graph) -> DistanceMatrix:
    """Breadth-first search from every source, counting shortest paths as it goes."""
    adj = g.adj
    dist_rows = []
    sigma_rows = []
    for s in range(g.n):
        dist, sigma = _search(adj, s)
        dist_rows.append(tuple(dist))
        sigma_rows.append(tuple(sigma))
    return DistanceMatrix(g.n, tuple(dist_rows), tuple(sigma_rows))


def _search(adj: Sequence[Iterable[int]], s: int) -> tuple[list[int], list[int]]:
    """Distances and shortest-path counts from s by breadth-first search;
    raises DisconnectedGraphError when s does not reach every vertex."""
    n = len(adj)
    dist = [-1] * n
    sigma = [0] * n
    dist[s] = 0
    sigma[s] = 1
    queue = deque([s])
    reached = 1
    while queue:
        v = queue.popleft()
        dv1 = dist[v] + 1
        sv = sigma[v]
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dv1
                queue.append(w)
                reached += 1
            if dist[w] == dv1:
                sigma[w] += sv
    if reached != n:
        raise DisconnectedGraphError(
            f"graph is disconnected: vertex {s} reaches only {reached} of {n} vertices"
        )
    return dist, sigma


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

# Below this many vertices the lanes are not used: exhaustive mining (n <= 7)
# and small random mining keep per-source search, which has no per-call setup
# (on the 728 connected labeled graphs with 5 vertices, lanes took 93 us per
# graph against 34 us).
LANE_MIN_N = 64
LANE_WIDTHS = (16, 32, 64)
# Bits per list of lane ints: a block takes LANE_BUDGET // (n * W) sources,
# so lane state stays within a few such lists whatever n and W are, and a
# graph of up to 512 vertices runs in one block at W = 16. Chosen by
# measurement on Watts-Strogatz graphs (k = 6): with fixed blocks of 512
# sources, apsp plus stress peaked 20 % (n = 1000) and 17 % (n = 2000) above
# per-source search in peak RSS; with this budget a whole `compute` run peaks
# 6.5 % and 0.6 % above it, and is still 1.7x faster.
LANE_BUDGET = 1 << 22

_LANE_CODES = {8 * array(code).itemsize: code for code in "HILQ"}
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


def _pack_lanes(values: Sequence[int], width: int) -> int:
    """One int holding ``values[i]`` in bits [i*width, (i+1)*width)."""
    packed = array(_LANE_CODES[width], values)
    if _BIG_ENDIAN:
        packed.byteswap()
    return int.from_bytes(packed, "little")


def _unpack_lanes(x: int, count: int, width: int) -> array:
    """The ``count`` lanes of ``x``, lowest first: the inverse of _pack_lanes."""
    lanes = array(_LANE_CODES[width], x.to_bytes(count * width // 8, "little"))
    if _BIG_ENDIAN:
        lanes.byteswap()
    return lanes


def _lane_constants(count: int, width: int, spread: int) -> tuple[int, int, int]:
    """(ones, top, over) for ``count`` lanes of ``width`` bits: a 1 in every
    lane, every lane's top bit, and every lane's bits from width - spread up,
    which must be clear in each of up to 2**(spread - 1) - 1 summed lanes for
    their sum to stay below the top bit."""
    ones = _pack_lanes([1] * count, width)
    return ones, ones << (width - 1), ((1 << width) - (1 << (width - spread))) * ones


def _apsp_lanes(g: Graph) -> DistanceMatrix:
    """:func:`apsp` on packed lanes, one block of sources at a time.

    One search from vertex 0 comes first. It raises for a disconnected graph,
    and it bounds the work: the diameter is at least vertex 0's eccentricity,
    so most long graphs go to per-source search before any lane work, and
    its path counts pick the starting width.
    """
    n = g.n
    nbrs = [tuple(a) for a in g.adj]
    dist0, sigma0 = _search(nbrs, 0)
    levels = max(dist0)
    spread = max(map(len, nbrs)).bit_length() + 1
    dist_rows: list[tuple[int, ...]] = [()] * n
    sigma_rows: list[tuple[int, ...]] = [()] * n
    blocks = _lane_blocks(
        n, max(sigma0), spread,
        lambda lo, hi, width: _apsp_block(nbrs, spread, levels, lo, hi, width),
    )
    for lo, hi, width, (dist, sigma) in blocks:
        for v in range(n):  # lanes are dropped as they are decoded
            dist_rows[v] += tuple(_unpack_lanes(dist[v], hi - lo, width))
            sigma_rows[v] += tuple(_unpack_lanes(sigma[v], hi - lo, width))
            dist[v] = sigma[v] = 0
    return DistanceMatrix(n, tuple(dist_rows), tuple(sigma_rows))


def _apsp_block(
    nbrs: Sequence[Sequence[int]], spread: int, levels: int, lo: int, hi: int, width: int
) -> tuple[list[int], list[int]] | None:
    """Distance and path-count lanes, per vertex, of the sources lo..hi-1 of
    a connected graph on ``width``-bit lanes, or None when a lane outgrows
    its guard. Raises _UseSearch when ``levels``, a lower bound on the
    diameter, or the levels these sources need exceed what _lane_levels
    allows.

    Level k is synchronous: every vertex first sums its neighbors' path-count
    lanes, then keeps the sum on the lanes it has not been reached on. On such
    a lane s the neighbors at distance k - 1 from s carry sigma(s, .) and
    every other neighbor carries 0 (it is at distance k or more, still
    unreached), so the sum is sigma(s, v) and is nonzero exactly when
    dist(s, v) = k, where the distance lane gets k.

    Exactness: with spread = bit_length(max degree) + 1, every lane is checked
    to be below 2**(W - spread) before it is summed, so a sum of at most
    max degree lanes stays below 2**(W - 1). No sum carries into the next
    lane, and the carry trick that finds its nonzero lanes ((x + low) | x,
    with low = 2**(W-1) - 1 in every lane) cannot carry either.
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
    dist = [0] * n
    get = sigma.__getitem__
    for k in range(1, _lane_levels(n, width) + 1):
        sums = [sum(map(get, nb)) & u if u else 0 for nb, u in zip(nbrs, unreached)]
        seen = 0
        for v, t in enumerate(sums):
            if t:
                seen |= t
                hit = (((t + low) | t) & top) >> (width - 1)
                unreached[v] ^= (hit << width) - hit
                dist[v] += k * hit
                sigma[v] |= t
        del sums
        if not any(unreached):
            return dist, sigma
        if seen & over:
            return None
    raise _UseSearch


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


def stress(g: Graph, d: DistanceMatrix) -> tuple[int, ...]:
    """Per vertex, the number of shortest paths, over ordered endpoint pairs,
    on which it lies as an interior vertex.

    Brandes' accumulation for stress (Brandes, "On variants of shortest-path
    betweenness centrality and their generic computation", Social Networks
    30(2), 2008), in integers: for each source s, visiting vertices in
    decreasing dist(s, .),

        below(v) = sum over neighbors w with dist(s,w) = dist(s,v) + 1
                   of (1 + below(w))

    counts the shortest paths from s through v that continue past v, and v
    gains sigma(s,v) * below(v) for every v != s. O(n*m) work from the
    distances and path counts ``d`` of ``g``, read as the symmetric matrix
    :func:`apsp` returns. Like :func:`apsp`, graphs with at least LANE_MIN_N
    vertices and a diameter within :func:`_lane_levels` run every source at
    once on packed lanes (:func:`_stress_lanes`), the rest source by source
    (:func:`_stress_brandes`); both give the same counts. The lanes are
    exact because a below-count lane is summed only while it is below
    2**(W - bit_length(max degree) - 1), so no sum of up to max degree of
    them, plus 1, carries into the next lane (see :func:`_stress_block`).
    """
    if g.n != d.n:
        raise ValueError(f"distance matrix is for {d.n} vertices, graph has {g.n}")
    if d.n >= LANE_MIN_N:
        try:
            return _stress_lanes(g, d)
        except _UseSearch:
            pass
    return _stress_brandes(g, d)


def _stress_brandes(g: Graph, d: DistanceMatrix) -> tuple[int, ...]:
    """:func:`stress` one source at a time, O(n) memory per source."""
    n = d.n
    adj = g.adj
    total = [0] * n
    for row, sig in zip(d.dist, d.sigma):
        below = [0] * n
        order = sorted(range(n), key=row.__getitem__, reverse=True)
        for v in order[:-1]:  # the source alone is at distance 0, so last
            deeper = row[v] + 1
            b = 0
            for w in adj[v]:
                if row[w] == deeper:
                    b += 1 + below[w]
            below[v] = b
            total[v] += sig[v] * b
    return tuple(total)


def _stress_lanes(g: Graph, d: DistanceMatrix) -> tuple[int, ...]:
    """:func:`stress` on packed lanes, one block of sources at a time. The
    path counts from vertex 0 pick the starting width. Each vertex's total is
    the dot product of its path counts with its decoded below-lanes."""
    n = d.n
    nbrs = [tuple(a) for a in g.adj]
    depth = d.diameter
    spread = max(map(len, nbrs)).bit_length() + 1
    total = [0] * n
    blocks = _lane_blocks(
        n, max(d.sigma[0]), spread,
        lambda lo, hi, width: _stress_block(nbrs, spread, d.dist, depth, lo, hi, width),
    )
    for lo, hi, width, below in blocks:
        for v, sig in enumerate(d.sigma):
            total[v] += sum(map(mul, sig[lo:hi], _unpack_lanes(below[v], hi - lo, width)))
            below[v] = 0
    return tuple(total)


def _stress_block(
    nbrs: Sequence[Sequence[int]],
    spread: int,
    dist: Sequence[Sequence[int]],
    depth: int,
    lo: int,
    hi: int,
    width: int,
) -> list[int] | None:
    """Below-lanes, per vertex, of the sources lo..hi-1 (0 on a source's own
    lane) on ``width``-bit lanes, or None when a lane outgrows its guard.
    Raises _UseSearch when ``depth`` exceeds what _lane_levels allows.

    Distance lanes are packed from ``dist`` itself. Levels run from ``depth``
    down to 1, synchronously. A path lane holds 1 + below(v) once v's level
    has run and 0 before, so at level k the sum of the neighbors' path lanes
    is, on every lane where dist(s, v) = k, exactly below(v): neighbors at
    distance k + 1 carry 1 + below, the others are at k or k - 1 and still
    carry 0. The level-k mask comes from the carry trick on y = dist lanes
    XOR k in every lane: ((y + low) | y) has a lane's top bit clear exactly
    when y is 0 there.

    Exactness is guarded as in :func:`_apsp_block`: a path lane is summed only
    after it was checked to be below 2**(W - spread), so no sum of at most
    max degree lanes, plus 1, reaches 2**(W - 1). The lanes of level 1 are
    never summed and go unchecked.
    """
    n = len(nbrs)
    if depth > _lane_levels(n, width):
        raise _UseSearch
    ones, top, over = _lane_constants(hi - lo, width, spread)
    low = top - ones
    levels = [_pack_lanes(row[lo:hi], width) for row in dist]
    paths = [0] * n
    get = paths.__getitem__
    for k in range(depth, 0, -1):
        mark = k * ones
        sums = [sum(map(get, nb)) for nb in nbrs]
        seen = 0
        for v, (y, t) in enumerate(zip(levels, sums)):
            y ^= mark
            at = top ^ (((y + low) | y) & top)
            if at:
                hit = at >> (width - 1)
                t = (t & ((at << 1) - hit)) + hit
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
    return paths


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
    """
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


def profile(g: Graph, d: DistanceMatrix | None = None) -> CentralityProfile:
    """Compute every centrality of a connected graph from one distance pass,
    each quantity once and in integers."""
    if g.n < 2:
        raise ValueError("profile needs at least 2 vertices")
    if d is None:
        d = apsp(g)
    adj = g.adj
    dist = d.dist
    degrees = []
    links = []
    open_sums = []
    closed_sums = []
    for nbrs, row in zip(adj, dist):
        members = tuple(nbrs)
        degrees.append(len(members))
        # an edge among the neighbors is seen from both of its ends
        links.append(sum([len(nbrs & adj[j]) for j in members]) >> 1)
        open_sum = pair_distance_sum(dist, members)
        open_sums.append(open_sum)
        closed_sums.append(open_sum + sum([row[j] for j in members]))
    row_sums = tuple(map(sum, dist))
    stresses = stress(g, d)
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
        row_sums=row_sums,
        stress=stresses,
        pendant=tuple(deg == 1 for deg in degrees),
        complete_neighborhood=tuple(2 * k == t for k, t in zip(links, triplets)),
        open_pair_sums=tuple(open_sums),
        closed_pair_sums=tuple(closed_sums),
        diameter=d.diameter,
        distance_total=sum(row_sums),
        average_clustering_pair=(2 * clustering_num, g.n * den),
        global_clustering_pair=(2 * sum(links), triplet_total) if triplet_total else None,
        stress_pair_sum=(stress_num, den),
        geodetic=is_geodetic(d),
        even_cycle_free=is_even_cycle_free(g),
    )
