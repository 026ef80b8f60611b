"""Simple undirected graphs: construction, edge-list I/O, generators, enumeration.

Vertices are always the integers ``0..n-1``. Graphs are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import combinations, compress, repeat
from operator import itemgetter, lshift, or_
from random import Random
from typing import Callable, Iterable, Iterator, Mapping


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
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbors, ascending: the canonical edges, appended
        to both ends' lists in order, leave every list sorted."""
        neighbors: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return tuple(map(tuple, neighbors))

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """The set view of ``adj``: bit w of ``rows[v]`` is set when v ~ w.
        Built on first read; the rows take O(n**2 / 8) bytes."""
        return tuple(reduce(or_, map(lshift, repeat(1), nbrs), 0) for nbrs in self.adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adj))

    def is_connected(self) -> bool:
        """True iff every vertex is reachable from vertex 0 (vacuously for n <= 1)."""
        if self.n <= 1:
            return True
        seen = bytearray(self.n)
        seen[0] = 1
        order = [0]  # the queue: a for loop reads the items appended during it
        for v in order:
            for w in self.adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    order.append(w)
        return len(order) == self.n

    def check_vertex(self, v: int) -> None:
        if not (isinstance(v, int) and 0 <= v < self.n):
            raise ValueError(f"invalid vertex id {v!r} for graph on {self.n} vertices")


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
    a declared header count, reporting the offending line number, and builds
    the Graph without :meth:`Graph.from_edges`' second validation.
    """
    lines = text.splitlines() if isinstance(text, str) else list(text)
    declared_n: int | None = None
    header_allowed = True
    seen: dict[tuple[int, int], None] = {}  # input order: sorted input sorts in O(m)
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
        seen[key] = None
    if declared_n is None:
        if not seen:
            raise EdgeListError("empty edge list and no 'n <count>' header")
        declared_n = 1 + max(map(itemgetter(1), seen))
    return Graph(declared_n, tuple(sorted(seen)))


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

# The largest n of the labeled enumeration and of the class table: n = 7 has
# 2^21 masks; n = 8 would walk 2^28 masks and take a 2^28-entry table
MASK_CLASSES_MAX_N = 7


@cache
def _pair_table(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def _mask_edges(n: int, mask: int) -> tuple[tuple[int, int], ...]:
    """The vertex pairs whose bits are set in an adjacency bitmask on n
    vertices, lowest bit first: the canonical (sorted) edge order."""
    pairs = _pair_table(n)
    if not 0 <= mask < 1 << len(pairs):
        raise ValueError(f"adjacency bitmask on {n} vertices must be in 0..2^{len(pairs)} - 1")
    edges = []
    while mask:
        low = mask & -mask
        edges.append(pairs[low.bit_length() - 1])
        mask ^= low
    return tuple(edges)


def mask_graph(n: int, mask: int) -> Graph:
    """The labeled graph on n vertices with this adjacency bitmask."""
    return Graph(n, _mask_edges(n, mask))


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Every labeled simple connected graph on n vertices exactly once, in
    ascending adjacency-bitmask order. No isomorphism deduplication."""
    return enumerate_connected_range(n, 0, None)


def enumerate_connected_range(n: int, start: int, stop: int | None) -> Iterator[Graph]:
    """Connected graphs whose adjacency bitmask lies in [start, stop).

    Same order as :func:`enumerate_connected`; the full mask range may be
    partitioned across workers and the pieces concatenated. A bad n raises
    ValueError at the call, before any graph is asked for.
    """
    if not 1 <= n <= MASK_CLASSES_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {MASK_CLASSES_MAX_N}, got {n}")
    total = 1 << len(_pair_table(n))
    if stop is None or stop > total:
        stop = total
    return _connected_graphs(n, max(start, 0), stop)


def _connected_graphs(n: int, start: int, stop: int) -> Iterator[Graph]:
    min_edges = n - 1
    for mask in range(start, stop):
        if mask.bit_count() >= min_edges:
            g = mask_graph(n, mask)
            if g.is_connected():
                yield g


# ---------------------------------------------------------------------------
# Isomorphism classes of adjacency bitmasks
# ---------------------------------------------------------------------------


def _plain_changes(n: int) -> list[int]:
    """The n! - 1 adjacent swaps of plain changes (Steinhaus-Johnson-Trotter):
    swapping positions i and i + 1 for each i in turn, starting from any
    arrangement of n items, passes through every arrangement exactly once.
    The largest item sweeps across the others between the swaps of the
    n - 1 smaller items' own plain changes."""
    if n <= 1:
        return []
    inner = _plain_changes(n - 1)
    swaps = []
    for k in range(len(inner) + 1):
        # even k: sweep the largest item to the front, after which the
        # smaller items sit one position higher
        swaps.extend(range(n - 2, -1, -1) if k % 2 == 0 else range(n - 1))
        if k < len(inner):
            swaps.append(inner[k] + (k % 2 == 0))
    return swaps


@cache
def mask_classes(n: int) -> memoryview:
    """For each adjacency bitmask on n vertices (the enumerator's bit order),
    the least mask of its orbit under vertex relabelling, so that two masks
    share an entry exactly when their graphs are isomorphic: a read-only view
    of one unsigned array. n must be at most ``MASK_CLASSES_MAX_N``. Cached
    per n.

    Masks are walked in ascending order, so the first mask of each orbit met
    is its least; the orbit is then flooded by plain changes, n! - 1
    transpositions of adjacent vertices that together reach every
    relabelling, each applied to a mask through per-byte lookup tables.
    """
    if not 0 <= n <= MASK_CLASSES_MAX_N:
        raise ValueError(f"mask classes support 0 <= n <= {MASK_CLASSES_MAX_N}, got {n}")
    pairs = _pair_table(n)
    bit = {pair: 1 << k for k, pair in enumerate(pairs)}
    # per transposition (i, i + 1): what it makes of each value of bytes 0..2
    # of a mask (21 bits at n = 7)
    transpositions = []
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        image = [bit[tuple(sorted((swap.get(u, u), swap.get(v, v))))] for u, v in pairs]
        image += [0] * (24 - len(image))
        transpositions.append(tuple(
            [sum(image[8 * b + j] for j in range(8) if byte >> j & 1) for byte in range(256)]
            for b in range(3)
        ))
    steps = [transpositions[i] for i in _plain_changes(n)]
    unset = (1 << 8 * array("I").itemsize) - 1  # above every mask
    classes = array("I", [unset]) * (1 << len(pairs))
    mask = 0
    while True:
        try:
            mask = classes.index(unset, mask)
        except ValueError:
            return memoryview(classes).toreadonly()
        x = classes[mask] = mask
        for low, mid, high in steps:
            x = low[x & 255] | mid[x >> 8 & 255] | high[x >> 16]
            classes[x] = mask


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


# "0" -> 0 and "1" -> 1, so that a mask's binary digits select its members
_BIT_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _sampled_subsets(n: int, seed: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """:func:`subset_stream`'s seeded sample on a host with n >= 11 vertices.

    The stream draws n random bits at a time and keeps each mask of at least
    two members the first time it is drawn. The draws come in batches of as
    many masks as are still missing, so a batch never draws past the last
    mask kept, and the masks kept are those of drawing one at a time.
    """
    draw = Random(seed).getrandbits
    too_small = (0, *(1 << v for v in range(n)))
    kept: dict[int, None] = {}  # in draw order; a repeat keeps its first place
    while len(kept) < SUBSET_SAMPLE_COUNT:
        kept.update(dict.fromkeys(map(draw, repeat(n, SUBSET_SAMPLE_COUNT - len(kept)))))
        for mask in too_small:
            kept.pop(mask, None)
    vertices = range(n)
    digits = f"0{n}b"
    for mask in kept:
        # the digits lowest vertex first, as 0/1 bytes
        selected = format(mask, digits)[::-1].encode().translate(_BIT_DIGITS)
        yield tuple(compress(vertices, selected)), mask
