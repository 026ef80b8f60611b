"""Exact distance and centrality computations.

Every quantity that is not an integer is a :class:`fractions.Fraction`, so all
identities can be checked with zero tolerance. Floating point never enters;
callers that want decimals convert at display time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .graphs import Graph


class DisconnectedGraphError(ValueError):
    """Raised when an operation that needs a connected graph gets a disconnected one."""


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances plus shortest-path counts for a connected graph.

    ``dist[s][t]`` is the length of a shortest s-t path; ``sigma[s][t]`` is the
    number of distinct shortest s-t paths (1 on the diagonal by convention).
    """

    n: int
    dist: tuple[tuple[int, ...], ...]
    sigma: tuple[tuple[int, ...], ...]


def apsp(g: Graph) -> DistanceMatrix:
    """Breadth-first search from every source, counting shortest paths as it goes."""
    n = g.n
    adj = g.adj
    dist_rows = []
    sigma_rows = []
    for s in range(n):
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
        dist_rows.append(tuple(dist))
        sigma_rows.append(tuple(sigma))
    return DistanceMatrix(n, tuple(dist_rows), tuple(sigma_rows))


def diameter(d: DistanceMatrix) -> int:
    """Largest entry of the distance matrix (0 for a single vertex)."""
    return max((max(row) for row in d.dist), default=0)


def avg_path_length(d: DistanceMatrix) -> Fraction:
    """Mean distance over ordered pairs of distinct vertices."""
    if d.n < 2:
        raise ValueError("average path length needs at least 2 vertices")
    total = sum(sum(row) for row in d.dist)
    return Fraction(total, d.n * (d.n - 1))


def pair_distance_sum(dist: Sequence[Sequence[int]], members: Sequence[int]) -> int:
    """Sum of dist over the unordered pairs of distinct members; 0 for <= 1 member."""
    total = 0
    for u, v in combinations(members, 2):
        total += dist[u][v]
    return total


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


def average_clustering(g: Graph) -> Fraction:
    """Mean of the local clustering coefficients over all vertices."""
    if g.n < 1:
        raise ValueError("average clustering needs at least one vertex")
    return Fraction(sum(local_clustering(g, i) for i in range(g.n)), g.n)


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


def closeness(d: DistanceMatrix, v: int) -> Fraction:
    """(n-1) divided by the sum of distances from v."""
    if d.n < 2:
        raise ValueError("closeness needs at least 2 vertices")
    if not 0 <= v < d.n:
        raise ValueError(f"invalid vertex id {v}")
    return Fraction(d.n - 1, sum(d.dist[v]))


def radiality(d: DistanceMatrix, diam: int, v: int) -> Fraction:
    """Mean of (diam + 1 - dist(v, t)) over the other vertices t."""
    if d.n < 2:
        raise ValueError("radiality needs at least 2 vertices")
    if not 0 <= v < d.n:
        raise ValueError(f"invalid vertex id {v}")
    total = (d.n - 1) * (diam + 1) - sum(d.dist[v])
    return Fraction(total, d.n - 1)


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
    gains sigma(s,v) * below(v) for every v != s. O(n*m) time, O(n) memory
    per source, from the distances and path counts ``d`` of ``g``.
    """
    if g.n != d.n:
        raise ValueError(f"distance matrix is for {d.n} vertices, graph has {g.n}")
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
    """Per-vertex and graph-level centralities of one connected graph.

    ``global_clustering`` is None when every vertex has degree <= 1 (only the
    single-edge graph among connected graphs), where the measure is undefined.

    ``open_pair_sums[i]`` is the sum of ambient distances over the unordered
    pairs of i's neighbors, and ``closed_pair_sums[i]`` the same over N(i) plus
    i itself. Both are read off the distance matrix entry by entry, never
    derived from degree or clustering, so the relations that compare them to
    clustering (R1, R3) test the distances rather than hold by construction.
    """

    degrees: tuple[int, ...]
    local_clustering: tuple[Fraction, ...]
    closeness: tuple[Fraction, ...]
    radiality: tuple[Fraction, ...]
    stress: tuple[int, ...]
    pendant: tuple[bool, ...]
    complete_neighborhood: tuple[bool, ...]
    open_pair_sums: tuple[int, ...]
    closed_pair_sums: tuple[int, ...]
    diameter: int
    avg_path_length: Fraction
    average_clustering: Fraction
    global_clustering: Fraction | None
    geodetic: bool
    even_cycle_free: bool

    @property
    def n(self) -> int:
        return len(self.degrees)


def _neighborhood_pair_sums(
    g: Graph, d: DistanceMatrix
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per vertex, the pair-distance sums over its open and its closed
    neighborhood; the closed sum adds the matrix's distance from i to each
    neighbor."""
    dist = d.dist
    open_sums = []
    closed_sums = []
    for i, nbrs in enumerate(g.adj):
        members = tuple(nbrs)
        open_sum = pair_distance_sum(dist, members)
        row = dist[i]
        open_sums.append(open_sum)
        closed_sums.append(open_sum + sum([row[j] for j in members]))
    return tuple(open_sums), tuple(closed_sums)


def profile(g: Graph, d: DistanceMatrix | None = None) -> CentralityProfile:
    """Compute every centrality of a connected graph from one distance pass."""
    if g.n < 2:
        raise ValueError("profile needs at least 2 vertices")
    if d is None:
        d = apsp(g)
    diam = diameter(d)
    degrees = g.degrees()
    clustering = tuple(local_clustering(g, i) for i in range(g.n))
    complete_nbhd = tuple(
        c == 1 if degrees[i] >= 2 else True for i, c in enumerate(clustering)
    )
    try:
        c_global = global_clustering(g)
    except ValueError:
        c_global = None
    open_sums, closed_sums = _neighborhood_pair_sums(g, d)
    return CentralityProfile(
        degrees=degrees,
        local_clustering=clustering,
        closeness=tuple(closeness(d, v) for v in range(g.n)),
        radiality=tuple(radiality(d, diam, v) for v in range(g.n)),
        stress=stress(g, d),
        pendant=tuple(deg == 1 for deg in degrees),
        complete_neighborhood=complete_nbhd,
        open_pair_sums=open_sums,
        closed_pair_sums=closed_sums,
        diameter=diam,
        avg_path_length=avg_path_length(d),
        average_clustering=Fraction(sum(clustering), g.n),
        global_clustering=c_global,
        geodetic=is_geodetic(d),
        even_cycle_free=is_even_cycle_free(g),
    )

