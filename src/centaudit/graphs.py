"""Simple undirected graphs: construction, edge-list I/O, generators, enumeration.

Vertices are always the integers ``0..n-1``. Graphs are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from random import Random
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class EdgeListError(ValueError):
    """Raised for malformed edge-list input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``edges`` is canonical: each pair ``(u, v)`` has ``u < v`` and the tuple is
    sorted lexicographically, so two equal graphs compare and hash equal.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, validating simplicity (no loops, no duplicates)."""
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        canonical = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in canonical:
                raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
            canonical.add(key)
        return cls(n, tuple(sorted(canonical)))

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Adjacency sets indexed by vertex."""
        neighbors: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            neighbors[u].add(v)
            neighbors[v].add(u)
        return tuple(frozenset(s) for s in neighbors)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.adj)

    def is_connected(self) -> bool:
        """True iff every vertex is reachable from vertex 0 (vacuously for n <= 1)."""
        rows = [0] * self.n
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return _rows_connected(rows)

    def check_vertex(self, v: int) -> None:
        if not (isinstance(v, int) and 0 <= v < self.n):
            raise ValueError(f"invalid vertex id {v!r} for graph on {self.n} vertices")


def _rows_connected(rows: Sequence[int]) -> bool:
    """True iff breadth-first search from vertex 0 reaches every vertex, over
    adjacency bit rows (bit v of ``rows[u]`` set for each edge u-v); vacuously
    true for n <= 1."""
    if len(rows) <= 1:
        return True
    frontier = rows[0]
    seen = frontier | 1
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(rows)) - 1


# ---------------------------------------------------------------------------
# Edge-list text format
#
#   optional header line:  n <count>
#   one edge per line:     u v        (0-based ids, whitespace separated)
#   '#' starts a comment; blank lines ignored
# ---------------------------------------------------------------------------

def parse_edge_list(text: str | Iterable[str]) -> Graph:
    """Parse the edge-list text format into a Graph.

    Without a header, the vertex count is 1 + the largest id mentioned.
    Rejects malformed lines, self-loops, duplicate edges, and ids at or above
    a declared header count, reporting the offending line number.
    """
    lines = text.splitlines() if isinstance(text, str) else list(text)
    declared_n: int | None = None
    header_allowed = True
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_id = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header_allowed and tokens[0] == "n":
            header_allowed = False
            if len(tokens) != 2:
                raise EdgeListError("header must be 'n <count>'", lineno)
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise EdgeListError(f"bad vertex count {tokens[1]!r}", lineno) from None
            if declared_n < 0:
                raise EdgeListError(f"negative vertex count {declared_n}", lineno)
            continue
        header_allowed = False
        if len(tokens) != 2:
            raise EdgeListError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"non-integer vertex id in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise EdgeListError(f"negative vertex id in {line!r}", lineno)
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}", lineno)
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise EdgeListError(
                f"vertex id {max(u, v)} >= declared count {declared_n}", lineno
            )
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeListError(f"duplicate edge {key[0]} {key[1]}", lineno)
        seen.add(key)
        edges.append(key)
        max_id = max(max_id, u, v)
    if declared_n is None:
        if max_id < 0:
            raise EdgeListError("empty edge list and no 'n <count>' header")
        declared_n = max_id + 1
    return Graph.from_edges(declared_n, edges)


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text: sorted edges, header only when ids alone
    would under-determine the vertex count (isolated vertices)."""
    lines = []
    top = 1 + max(v for _, v in g.edges) if g.edges else 0
    if top < g.n:
        lines.append(f"n {g.n}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    if leaves < 0:
        raise ValueError("star needs leaves >= 0")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edges(n, combinations(range(n), 2))


def gnp_graph(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): each of the n(n-1)/2 possible edges present with probability p."""
    if n < 1:
        raise ValueError("gnp needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"gnp needs 0 <= p <= 1, got {p}")
    rng = Random(seed)
    edges = [pair for pair in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def watts_strogatz_graph(n: int, k: int, p: float, seed: int = 0) -> Graph:
    """Ring lattice (each vertex adjacent to its k/2 nearest on both sides)
    with each clockwise edge rewired with probability p.

    Rewiring avoids self-loops and duplicate edges and is skipped for vertices
    already adjacent to everything; p=0 returns the exact lattice.
    """
    if n < 1:
        raise ValueError("watts_strogatz needs n >= 1")
    if k % 2 != 0:
        raise ValueError(f"watts_strogatz needs even k, got {k}")
    if not 0 <= k < n:
        raise ValueError(f"watts_strogatz needs 0 <= k < n, got k={k} n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"watts_strogatz needs 0 <= p <= 1, got {p}")
    rng = Random(seed)
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for span in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + span) % n
            neighbors[i].add(j)
            neighbors[j].add(i)
    if p > 0:
        for span in range(1, k // 2 + 1):
            for i in range(n):
                j = (i + span) % n
                if rng.random() >= p:
                    continue
                if len(neighbors[i]) >= n - 1:
                    continue  # no legal target left
                w = rng.randrange(n)
                while w == i or w in neighbors[i]:
                    w = rng.randrange(n)
                neighbors[i].discard(j)
                neighbors[j].discard(i)
                neighbors[i].add(w)
                neighbors[w].add(i)
    edges = [(u, v) for u in range(n) for v in neighbors[u] if u < v]
    return Graph.from_edges(n, edges)


# every model parameter and the type it is read as; MODELS rows name theirs
# from here, and the CLI's model flags follow this order
MODEL_PARAMS: dict[str, type] = {"n": int, "k": int, "p": float, "leaves": int}

# model name -> (builder, required parameter names, seeded); the builder takes
# the parameters in that order, then the seed, which only seeded models read
MODELS: dict[str, tuple[Callable[..., Graph], tuple[str, ...], bool]] = {
    "path": (lambda n, seed: path_graph(n), ("n",), False),
    "cycle": (lambda n, seed: cycle_graph(n), ("n",), False),
    "star": (lambda leaves, seed: star_graph(leaves), ("leaves",), False),
    "complete": (lambda n, seed: complete_graph(n), ("n",), False),
    "gnp": (gnp_graph, ("n", "p"), True),
    "watts_strogatz": (watts_strogatz_graph, ("n", "k", "p"), True),
}


def model_row(model: str) -> tuple[Callable[..., Graph], tuple[str, ...], bool]:
    """The ``MODELS`` row of a model name; ValueError for an unknown name."""
    try:
        return MODELS[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}; choose from {tuple(MODELS)}") from None


def generate(model: str, params: Mapping[str, object], seed: int = 0) -> Graph:
    """Build a named model; deterministic for fixed (model, params, seed).

    Each parameter is read as its ``MODEL_PARAMS`` type; parameters the model
    does not take are ignored. The seed must be >= 0, since
    ``random.Random`` would give ``-s`` the stream of ``s``.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    builder, required, _ = model_row(model)
    missing = [name for name in required if name not in params]
    if missing:
        raise ValueError(f"model {model!r} requires parameter {missing[0]!r}")
    args = [MODEL_PARAMS[name](params[name]) for name in required]
    return builder(*args, seed)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of labeled connected graphs
#
# The adjacency bitmask assigns bit k to the k-th vertex pair in row-major
# upper-triangle order: (0,1), (0,2), ..., (0,n-1), (1,2), ...; enumeration
# is in ascending mask order, which fixes a reproducible graph order.
# ---------------------------------------------------------------------------

MAX_ENUMERATION_N = 8


def _pair_table(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Yield every labeled simple connected graph on n vertices exactly once,
    in ascending adjacency-bitmask order. No isomorphism deduplication."""
    yield from enumerate_connected_range(n, 0, None)


def enumerate_connected_range(n: int, start: int, stop: int | None) -> Iterator[Graph]:
    """Connected graphs whose adjacency bitmask lies in [start, stop).

    Same order as :func:`enumerate_connected`; the full mask range may be
    partitioned across workers and the pieces concatenated.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUMERATION_N}, got {n}")
    pairs = _pair_table(n)
    total = 1 << len(pairs)
    if stop is None or stop > total:
        stop = total
    start = max(start, 0)
    min_edges = n - 1
    for mask in range(start, stop):
        if mask.bit_count() < min_edges:
            continue
        rows = [0] * n
        edges = []
        for k, (u, v) in enumerate(pairs):
            if mask >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                edges.append((u, v))
        if _rows_connected(rows):
            yield Graph(n, tuple(edges))


# ---------------------------------------------------------------------------
# Vertex subsets
# ---------------------------------------------------------------------------

SUBSET_ENUMERATION_MAX_N = 10
SUBSET_SAMPLE_COUNT = 1000


@cache
def subset_masks(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every vertex subset of size >= 2 of ``range(n)``, by size and then
    lexicographically, as (sorted member tuple, bitmask) pairs; n must be at
    most ``SUBSET_ENUMERATION_MAX_N``. Cached per n."""
    if not 0 <= n <= SUBSET_ENUMERATION_MAX_N:
        raise ValueError(
            f"subset enumeration supports 0 <= n <= {SUBSET_ENUMERATION_MAX_N}, got {n}"
        )
    return tuple(
        (members, sum(1 << v for v in members))
        for size in range(2, n + 1)
        for members in combinations(range(n), size)
    )


def subset_stream(n: int, seed: int = 0) -> Iterable[tuple[tuple[int, ...], int]]:
    """R6's subjects on a host with n vertices: vertex subsets of size >= 2 as
    (sorted member tuple, bitmask) pairs, in a fixed order.

    For n <= ``SUBSET_ENUMERATION_MAX_N`` this is the cached
    :func:`subset_masks` list of every such subset. Larger hosts get
    ``SUBSET_SAMPLE_COUNT`` distinct seeded random subsets, always available
    since a host on n >= 11 vertices has 2^n - n - 1 >= 2036 of them. Subsets
    need not induce connected graphs.
    """
    if n <= SUBSET_ENUMERATION_MAX_N:
        return subset_masks(n)
    return _sampled_subsets(n, seed)


# the set bits of each byte value, lowest first
_BYTE_BITS = tuple(tuple(v for v in range(8) if byte >> v & 1) for byte in range(256))


def _sampled_subsets(n: int, seed: int) -> Iterator[tuple[tuple[int, ...], int]]:
    rng = Random(seed)
    seen: set[int] = set()
    offsets = range(0, n, 8)
    width = (n + 7) // 8
    while len(seen) < SUBSET_SAMPLE_COUNT:
        mask = rng.getrandbits(n)
        if mask.bit_count() < 2 or mask in seen:
            continue
        seen.add(mask)
        members = []
        for base, byte in zip(offsets, mask.to_bytes(width, "little")):
            if byte:
                members += [base + v for v in _BYTE_BITS[byte]]
        yield tuple(members), mask
