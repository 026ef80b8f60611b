"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the library's algorithms: connectivity is
union-find instead of BFS, distances are Floyd-Warshall instead of per-source
BFS, path counts come from explicitly enumerating every shortest path instead
of the counting recurrence, stress is summed pair by pair instead of
accumulated per source, cycle parity is checked by enumerating simple
cycles instead of a breadth-first forest, clustering scans the edge list for
edges among each vertex's neighbors and for triangles among all vertex
triples instead of counting common neighbors on bit rows, closed-neighborhood
radiality is measured on the relabeled induced subgraph instead of read off
the profile, the relation sides are stated in Fractions straight from
the catalog statements instead of as integer pairs over common denominators,
and a graph's isomorphism class is its least bitmask over all n!
relabellings instead of a flood through adjacent transpositions. R6's
largest subset pair sums are maxima over every subset, not bounds from
sorted distance rows. Neighbors are read off the edge list
(:func:`neighbor_sets`), never from the graph's own adjacency.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from centaudit import Graph

INF = float("inf")


def union_find_connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components == 1


def mask_edges(n: int, mask: int) -> list[tuple[int, int]]:
    """The edges of an adjacency bitmask: bit k is the k-th pair of
    ``combinations(range(n), 2)``."""
    pairs = list(combinations(range(n), 2))
    return [pairs[k] for k in range(len(pairs)) if mask >> k & 1]


def labeled_connected_masks(n: int):
    """(mask, edges) of every labeled connected graph on n vertices, in
    ascending bitmask order, by filtering every edge subset."""
    for mask in range(1 << n * (n - 1) // 2):
        edges = mask_edges(n, mask)
        if union_find_connected(n, edges):
            yield mask, edges


def count_connected_graphs(n: int) -> int:
    """Count labeled connected graphs by filtering every edge subset."""
    return sum(1 for _ in labeled_connected_masks(n))


def canonical_mask(n: int, mask: int) -> int:
    """The least bitmask of the graph ``mask`` over all n! relabellings of
    its vertices: equal exactly for isomorphic graphs."""
    index = {pair: k for k, pair in enumerate(combinations(range(n), 2))}
    edges = mask_edges(n, mask)
    return min(
        sum(1 << index[min(p[u], p[v]), max(p[u], p[v])] for u, v in edges)
        for p in permutations(range(n))
    )


def neighbor_sets(g: Graph) -> list[set[int]]:
    """Each vertex's neighbors, read off the edge list."""
    return [{v for e in g.edges if u in e for v in e if v != u} for u in range(g.n)]


def brute_force_clustering(g: Graph) -> list[Fraction]:
    """Local clustering per vertex: the edges among its neighbors over the
    pairs of its neighbors, 0 below degree 2."""
    values = []
    for nb in neighbor_sets(g):
        k = len(nb)
        links = sum(1 for u, v in g.edges if u in nb and v in nb)
        values.append(Fraction(links, k * (k - 1) // 2) if k >= 2 else Fraction(0))
    return values


def brute_force_global_clustering(g: Graph) -> Fraction | None:
    """Three times the triangles, found among all vertex triples, over the
    paths of length 2; None when there is no such path."""
    edges = set(g.edges)
    triangles = sum(
        1 for a, b, c in combinations(range(g.n), 3)
        if (a, b) in edges and (a, c) in edges and (b, c) in edges
    )
    paths = sum(len(nb) * (len(nb) - 1) // 2 for nb in neighbor_sets(g))
    return Fraction(3 * triangles, paths) if paths else None


def floyd_warshall(g: Graph) -> list[list[float]]:
    n = g.n
    dist = [[0.0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def pair_distance_sum(dist, members) -> int:
    """Sum of ``dist`` over the unordered pairs of distinct members, pair by
    pair; 0 for <= 1 member."""
    return sum(dist[u][v] for u, v in combinations(members, 2))


def max_subset_pair_sums(g: Graph) -> dict[int, int]:
    """The largest pair-distance sum T(S) over the vertex subsets S of each
    size k >= 2, by k: every subset of Floyd-Warshall distances summed
    pair by pair. The size n entry is the Wiener index W."""
    dist = floyd_warshall(g)
    return {
        k: int(max(sum(dist[u][v] for u, v in combinations(members, 2))
                   for members in combinations(range(g.n), k)))
        for k in range(2, g.n + 1)
    }


def enumerate_shortest_paths(nbrs, s: int, t: int, dist) -> list[tuple[int, ...]]:
    """Every shortest s-t path, listed explicitly.

    The walk only ever steps to a neighbor (``nbrs``, from
    :func:`neighbor_sets`) strictly closer to t (per Floyd-Warshall
    distances), so exactly the shortest paths are produced.
    """
    if s == t:
        return [(s,)]
    paths = []
    stack = [(s, (s,))]
    while stack:
        v, path = stack.pop()
        for w in sorted(nbrs[v]):
            if dist[w][t] == dist[v][t] - 1:
                if w == t:
                    paths.append(path + (t,))
                else:
                    stack.append((w, path + (w,)))
    return paths


def path_count_capped(nbrs, s: int, t: int, dist, cap: int) -> int:
    """Number of shortest s-t paths, giving up (returning cap) once reached;
    ``nbrs`` from :func:`neighbor_sets`.

    Walks the shortest-path DAG carrying only the head vertex; distance to t
    strictly decreases along every step, so walks and paths coincide.
    """
    found = 0
    frontier = [s]
    while frontier:
        v = frontier.pop()
        for w in nbrs[v]:
            if dist[w][t] == dist[v][t] - 1:
                if w == t:
                    found += 1
                    if found >= cap:
                        return cap
                else:
                    frontier.append(w)
    return found


def brute_force_sigma(g: Graph) -> list[list[int]]:
    """Shortest-path counts for all pairs via explicit enumeration."""
    dist = floyd_warshall(g)
    nbrs = neighbor_sets(g)
    n = g.n
    sigma = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for s in range(n):
        for t in range(n):
            if s != t:
                sigma[s][t] = len(enumerate_shortest_paths(nbrs, s, t, dist))
    return sigma


def brute_force_geodetic(g: Graph) -> bool:
    """True iff no pair has a second shortest path (early-exit enumeration)."""
    dist = floyd_warshall(g)
    nbrs = neighbor_sets(g)
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if path_count_capped(nbrs, s, t, dist, 2) != 1:
                return False
    return True


def brute_force_stress(g: Graph) -> list[int]:
    """Interior-vertex counts over every explicitly enumerated shortest path,
    summed over ordered endpoint pairs."""
    dist = floyd_warshall(g)
    nbrs = neighbor_sets(g)
    counts = [0] * g.n
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            for path in enumerate_shortest_paths(nbrs, s, t, dist):
                for v in path[1:-1]:
                    counts[v] += 1
    return counts


def pair_stress(g: Graph) -> list[int]:
    """Stress by its pair definition: sigma(s,i) * sigma(i,t) summed over
    ordered s != i != t with dist(s,i) + dist(i,t) = dist(s,t)."""
    dist = floyd_warshall(g)
    sigma = brute_force_sigma(g)
    n = g.n
    counts = [0] * n
    for i in range(n):
        for s in range(n):
            for t in range(n):
                if len({s, i, t}) == 3 and dist[s][i] + dist[i][t] == dist[s][t]:
                    counts[i] += sigma[s][i] * sigma[i][t]
    return counts


def has_even_cycle(g: Graph) -> bool:
    """True iff some simple cycle has even length, by enumerating cycles.

    Cycles are rooted at their minimum vertex; each is seen twice (once per
    direction), which is harmless for an existence check.
    """
    nbrs = neighbor_sets(g)
    for s in range(g.n):
        stack = [(s, (s,))]
        while stack:
            v, path = stack.pop()
            for w in nbrs[v]:
                if w == s and len(path) >= 3:
                    if len(path) % 2 == 0:
                        return True
                elif w > s and w not in path:
                    stack.append((w, path + (w,)))
    return False


def closed_neighborhood_distances(g: Graph, i: int):
    """The members of N[i] = {i} plus its neighbors, ascending, and the
    Floyd-Warshall distances inside the subgraph they induce, indexed in
    member order."""
    members = sorted({i} | {v for e in g.edges if i in e for v in e})
    index = {v: a for a, v in enumerate(members)}
    inner = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return members, floyd_warshall(Graph.from_edges(len(members), inner))


def restricted_radiality(g: Graph, i: int) -> Fraction:
    """Mean, over the neighbors of i, of their radiality inside the closed
    neighborhood of i, with internal distances and internal diameter."""
    members, dist = closed_neighborhood_distances(g, i)
    k = len(members)
    if k < 2:
        raise ValueError(f"vertex {i} has no neighbors")
    diam = int(max(max(row) for row in dist))
    total = Fraction(0)
    for v, row in zip(members, dist):
        if v != i:
            total += Fraction((k - 1) * (diam + 1) - int(sum(row)), k - 1)
    return total / (k - 1)


def r9_rhs(g: Graph) -> Fraction:
    """Right side of R9: mean restricted radiality minus 2 plus the share of
    vertices whose closed neighborhood is a clique (internal diameter 1)."""
    cliques = 0
    for i in range(g.n):
        _, dist = closed_neighborhood_distances(g, i)
        cliques += max(max(row) for row in dist) <= 1
    mean = sum(restricted_radiality(g, i) for i in range(g.n)) / Fraction(g.n)
    return mean - 2 + Fraction(cliques, g.n)


# comparison of lhs to rhs in each catalog statement
SENSE = {
    "R1": "=", "R2": "=", "R3": "=", "R4": ">=", "R5": ">=", "R6": ">=",
    "R7": ">=", "R8": "=", "R9": ">=", "R10": "=", "R10b": "<=", "R11": ">=",
    "R11b": ">=", "R12": "<=",
}


def relation_status(sense: str, lhs: Fraction, rhs: Fraction, ok: bool) -> tuple[str, Fraction]:
    """(status, slack) of one outcome; slack is >= 0 when the comparison holds."""
    slack = lhs - rhs if sense == ">=" else rhs - lhs
    if not ok:
        return "skipped-precondition", slack
    if slack == 0:
        return "equality", slack
    if slack > 0 and sense != "=":
        return "holds", slack
    return "violated", slack


def relation_sides(g: Graph) -> dict[str, dict[object, tuple[Fraction, Fraction, bool]]]:
    """Every relation's (lhs, rhs, precondition_ok) per subject, as the catalog
    states it: vertices for per-vertex relations, None for per-graph ones, and
    every sorted vertex subset of size >= 2 for R6.

    Distances are Floyd-Warshall, clustering is
    :func:`brute_force_clustering`, stress is :func:`pair_stress`, geodesy is
    :func:`brute_force_geodetic` and R9's right side is :func:`r9_rhs`.
    """
    n = g.n
    dist = [[int(x) for x in row] for row in floyd_warshall(g)]
    nbrs = neighbor_sets(g)
    deg = [len(nb) for nb in nbrs]
    stress = pair_stress(g)

    def mean_dist(members) -> Fraction:
        members = list(members)
        pairs = [(a, b) for a in members for b in members if a != b]
        return Fraction(sum(dist[a][b] for a, b in pairs), len(pairs)) if pairs else Fraction(0)

    c = brute_force_clustering(g)
    c_avg = sum(c, Fraction(0)) / n
    L = mean_dist(range(n))
    diam = max(max(row) for row in dist)
    closeness = [Fraction(n - 1, sum(dist[v])) for v in range(n)]
    radiality = [
        Fraction(sum(diam + 1 - dist[v][t] for t in range(n) if t != v), n - 1)
        for v in range(n)
    ]
    geodetic = brute_force_geodetic(g)
    pendants = sum(1 for i in range(n) if deg[i] == 1)
    monotone = all(
        stress[i] <= stress[j] for i in range(n) for j in range(n) if deg[i] < deg[j]
    )
    stress_term = sum(
        (Fraction(stress[i], deg[i] * (deg[i] - 1)) for i in range(n) if deg[i] >= 2),
        Fraction(0),
    )
    length_term = sum(
        (Fraction((L - 1) * (n - 1), deg[i] * (deg[i] - 1)) for i in range(n) if deg[i] >= 2),
        Fraction(0),
    )
    stress_bound = 1 + Fraction(sum(stress), n * (n - 1))
    open_L = [mean_dist(nbrs[i]) for i in range(n)]
    closed_L = [mean_dist(nbrs[i] | {i}) for i in range(n)]

    return {
        "R1": {i: (open_L[i], 2 - c[i], deg[i] >= 2) for i in range(n)},
        "R2": {None: (c_avg, 2 - sum(open_L, Fraction(0)) / n, min(deg) >= 2)},
        "R3": {
            i: (closed_L[i], ((deg[i] - 1) * open_L[i] + 2) / (deg[i] + 1), deg[i] >= 1)
            for i in range(n)
        },
        "R4": {
            v: (L, Fraction(n - 1, n) * mean_dist(t for t in range(n) if t != v), True)
            for v in range(n)
        },
        "R5": {
            i: (closed_L[i], Fraction(deg[i], deg[i] + 1) * open_L[i], True)
            for i in range(n)
        },
        "R6": {
            subset: (L, Fraction(len(subset), n) * mean_dist(subset), True)
            for size in range(2, n + 1)
            for subset in combinations(range(n), size)
        },
        "R7": {None: (L, n / sum(closeness, Fraction(0)), True)},
        "R8": {None: (L, diam + 1 - sum(radiality, Fraction(0)) / n, True)},
        "R9": {None: (c_avg / 2, r9_rhs(g), True)},
        "R10": {None: (L, stress_bound, geodetic)},
        "R10b": {None: (L, stress_bound, True)},
        "R11": {None: (c_avg, 1 - stress_term / n, pendants == 0)},
        "R11b": {None: (c_avg, 1 - stress_term / n - Fraction(pendants, n), True)},
        "R12": {
            None: (1 - c_avg, length_term / n + Fraction(pendants, n), geodetic and monotone)
        },
    }
