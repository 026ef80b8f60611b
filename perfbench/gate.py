"""Benchmark inputs and the correctness gate for centaudit's report documents.

Inputs are made here from the benchmark seed, with a Watts-Strogatz generator
of the benchmark's own, so that a change to the library's generators cannot
change what the benchmark feeds it. Expected values (degrees, distances, clustering,
closeness, radiality, stress) are computed here by plain breadth-first search,
independently of the library.

A document passes when its exit code is the expected one, its invariants hold
and, where a reference hash was recorded for the run's seed, its SHA-256
matches that reference byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

# Catalog ids and scopes as frozen by the report format (docs/formats.md).
PER_VERTEX = ("R1", "R3", "R4", "R5")
PER_SUBGRAPH = ("R6",)
RELATION_IDS = (
    "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
    "R10", "R10b", "R11", "R11b", "R12",
)
AUDIT_IDS = ("R9", "R12")
NEVER_VIOLATED = ("R1", "R3", "R8")

# R6 subject counts: every subset of size >= 2 up to 10 vertices, otherwise
# this many distinct sampled subsets, further capped per graph by the miner.
SUBSET_ENUMERATION_MAX_N = 10
SUBSET_SAMPLE_COUNT = 1000
MINER_SUBSET_BUDGET = 512

# Labeled connected graphs on n vertices (OEIS A001187), n = 0..6.
CONNECTED_LABELED = (1, 1, 1, 4, 38, 728, 26704)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def watts_strogatz_edges(n: int, k: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Ring lattice with each clockwise edge rewired with probability p."""
    nbrs = [set() for _ in range(n)]
    for span in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + span) % n
            nbrs[i].add(j)
            nbrs[j].add(i)
    for span in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + span) % n
            if j not in nbrs[i] or rng.random() >= p:
                continue
            w = rng.randrange(n)
            while w == i or w in nbrs[i]:
                w = rng.randrange(n)
            nbrs[i].discard(j)
            nbrs[j].discard(i)
            nbrs[i].add(w)
            nbrs[w].add(i)
    return sorted((u, v) for u in range(n) for v in nbrs[u] if u < v)


def _adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _shortest_paths(n: int, adj, s: int):
    """Distances and shortest-path counts from s, and the vertices in BFS order."""
    dist = [-1] * n
    sigma = [0] * n
    dist[s], sigma[s] = 0, 1
    order = [s]
    for v in order:  # the list grows while it is walked: a FIFO queue
        below = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = below
                order.append(w)
            if dist[w] == below:
                sigma[w] += sigma[v]
    return dist, sigma, order


def _is_connected(n: int, adj) -> bool:
    return len(_shortest_paths(n, adj, 0)[2]) == n


def _ratio(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class GraphInput:
    """One generated input graph: its edge-list text and the values the
    benchmark expects the program to report for it.

    Stress is counted the way Brandes (2008) accumulates it: from each source
    s, a vertex v on the BFS DAG lies inside sigma(s,v) * below(v) shortest
    paths that start at s, where below(v) counts the DAG paths leaving v. The
    sum over all sources counts ordered endpoint pairs. This is independent
    of the library's pair-by-pair count.
    """

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        adj = _adjacency(n, edges)
        self.n = n
        self.m = len(edges)
        self.text = "".join(f"{u} {v}\n" for u, v in edges)
        self.degrees = [len(a) for a in adj]
        sums, eccentricity, stress = [], [], [0] * n
        for s in range(n):
            dist, sigma, order = _shortest_paths(n, adj, s)
            sums.append(sum(dist))
            eccentricity.append(dist[order[-1]])
            below = [0] * n
            for v in reversed(order):
                deeper = dist[v] + 1
                below[v] = sum(1 + below[w] for w in adj[v] if dist[w] == deeper)
                if v != s:
                    stress[v] += sigma[v] * below[v]
        diameter = max(eccentricity)
        sets = [set(a) for a in adj]
        clustering = []
        for v in range(n):
            d = len(adj[v])
            links = sum(len(sets[v] & sets[w]) for w in adj[v])  # each link twice
            clustering.append(Fraction(links, d * (d - 1)) if d > 1 else Fraction(0))
        self.diameter = diameter
        self.L = Fraction(sum(sums), n * (n - 1))
        self.C_WS = sum(clustering, Fraction(0)) / n
        self.vertices = [
            {"clustering": _ratio(clustering[v]),
             "closeness": _ratio(Fraction(n - 1, sums[v])),
             "radiality": _ratio(Fraction((n - 1) * (diameter + 1) - sums[v], n - 1)),
             "stress": stress[v]}
            for v in range(n)
        ]


def connected_watts_strogatz(
    n: int, k: int, p: float, label: str, seed: int, index: int
) -> GraphInput:
    """The index-th connected sample of a seeded stream; redraws until connected."""
    for attempt in range(1000):
        rng = random.Random(f"{label}:{seed}:{index}:{attempt}")
        edges = watts_strogatz_edges(n, k, p, rng)
        if _is_connected(n, _adjacency(n, edges)):
            return GraphInput(n, edges)
    raise RuntimeError(f"no connected Watts-Strogatz sample for {label} seed {seed}")


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def r6_subjects(n: int, budget: int | None) -> int:
    count = (
        2 ** n - n - 1 if n <= SUBSET_ENUMERATION_MAX_N else SUBSET_SAMPLE_COUNT
    )
    return count if budget is None else min(count, budget)


def subjects_per_graph(rid: str, n: int, budget: int | None) -> int:
    if rid in PER_VERTEX:
        return n
    if rid in PER_SUBGRAPH:
        return r6_subjects(n, budget)
    return 1


def _check_compute(payload: dict, graph: GraphInput) -> list[str]:
    errors = []
    if (payload["n"], payload["m"]) != (graph.n, graph.m):
        errors.append(f"graph size {payload['n']},{payload['m']} != {graph.n},{graph.m}")
    vertices = payload["vertices"]
    if [v["id"] for v in vertices] != list(range(graph.n)):
        errors.append("vertex ids are not 0..n-1 in order")
    if [v["degree"] for v in vertices] != graph.degrees:
        errors.append("vertex degrees differ from the input graph")
    if (payload["diameter"], payload["L"], payload["C_WS"]) != (
            graph.diameter, _ratio(graph.L), _ratio(graph.C_WS)):
        errors.append(f"diameter, L or C_WS differ from {graph.diameter}, {graph.L}, {graph.C_WS}")
    for field in ("clustering", "closeness", "radiality", "stress"):
        wrong = [v["id"] for v, want in zip(vertices, graph.vertices) if v[field] != want[field]]
        if wrong:
            errors.append(f"{field} differs at {len(wrong)} vertices, first {wrong[0]}")
    return errors


def _check_violation_counts(payload: dict, violated: dict[str, int]) -> list[str]:
    errors = []
    non_audit = sum(c for rid, c in violated.items() if rid not in AUDIT_IDS)
    audit = sum(c for rid, c in violated.items() if rid in AUDIT_IDS)
    if payload["non_audit_violations"] != non_audit or non_audit != 0:
        errors.append(
            f"non_audit_violations {payload['non_audit_violations']} "
            f"(recounted {non_audit}, expected 0)"
        )
    if payload["audit_violations"] != audit:
        errors.append(f"audit_violations {payload['audit_violations']} != {audit}")
    for rid in NEVER_VIOLATED:
        if violated.get(rid, 0):
            errors.append(f"{rid} violated")
    return errors


def _check_check(payload: dict, graph: GraphInput) -> list[str]:
    errors = []
    if payload["graph"] != {"n": graph.n, "m": graph.m}:
        errors.append(f"graph {payload['graph']} != n={graph.n} m={graph.m}")
    counts = {rid: 0 for rid in RELATION_IDS}
    violated = {rid: 0 for rid in RELATION_IDS}
    order = []
    for r in payload["results"]:
        rid = r["relation"]
        if rid not in counts:
            errors.append(f"unknown relation {rid}")
            continue
        if not order or order[-1] != rid:
            order.append(rid)
        counts[rid] += 1
        violated[rid] += r["status"] == "violated"
    if tuple(order) != RELATION_IDS:
        errors.append("results are not grouped in catalog order")
    for rid in RELATION_IDS:
        expected = subjects_per_graph(rid, graph.n, None)
        if counts[rid] != expected:
            errors.append(f"{rid}: {counts[rid]} results, expected {expected}")
    lhs_r8 = [r["lhs"] for r in payload["results"] if r["relation"] == "R8"]
    if lhs_r8 != [_ratio(graph.L)]:
        errors.append(f"R8 lhs {lhs_r8} != L {graph.L}")
    return errors + _check_violation_counts(payload, violated)


def _check_mine(payload: dict, population: dict) -> list[str]:
    errors = []
    graphs = population["graphs"]
    if payload["graphs_evaluated"] != graphs:
        errors.append(f"graphs_evaluated {payload['graphs_evaluated']} != {graphs}")
    tallies = payload["relations"]
    if tuple(tallies) != RELATION_IDS:
        errors.append(f"relations {tuple(tallies)} not the full catalog in order")
    violated = {}
    for rid, tally in tallies.items():
        subjects = tally["holds"] + tally["equality"] + tally["violated"] + tally["skipped"]
        expected = population["subjects"].get(rid)
        if subjects != expected:
            errors.append(f"{rid}: tallies sum to {subjects}, expected {expected}")
        if len(tally["witnesses"]) != min(tally["violated"], payload["witness_cap"]):
            errors.append(f"{rid}: {len(tally['witnesses'])} witnesses for "
                          f"{tally['violated']} violations")
        violated[rid] = tally["violated"]
    audit = payload["geodetic_audit"]
    parts = (audit["ecf_and_geodetic"] + audit["geodetic_not_ecf"]
             + audit["ecf_not_geodetic"] + audit["neither"])
    if not audit["graphs"] == parts == graphs:
        errors.append(f"geodetic audit covers {audit['graphs']}/{parts} of {graphs} graphs")
    return errors + _check_violation_counts(payload, violated)


def population_exhaustive(n_max: int) -> dict:
    """Graph and subject counts of `mine --n-max n_max` over all relations."""
    sizes = range(2, n_max + 1)
    graphs = sum(CONNECTED_LABELED[n] for n in sizes)
    subjects = {
        rid: sum(CONNECTED_LABELED[n] * subjects_per_graph(rid, n, MINER_SUBSET_BUDGET)
                 for n in sizes)
        for rid in RELATION_IDS
    }
    return {"graphs": graphs, "subjects": subjects}


def population_random(n: int, trials: int) -> dict:
    """Graph and subject counts of `mine --model ... --trials trials` on n vertices."""
    subjects = {
        rid: trials * subjects_per_graph(rid, n, MINER_SUBSET_BUDGET)
        for rid in RELATION_IDS
    }
    return {"graphs": trials, "subjects": subjects}


def check_document(
    command: str, argv: list[str], text: str, rc: int, expected, reference: str | None
) -> list[str]:
    """Every reason the document fails the gate; empty when it passes.

    ``expected`` is the GraphInput for check/compute and the population counts
    for mine. ``reference`` is the recorded SHA-256, or None when no reference
    exists for this seed.
    """
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}, expected 0")
    if reference is not None and sha256(text) != reference:
        errors.append("SHA-256 differs from the recorded reference")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return errors + [f"not JSON: {exc}"]
    try:
        if doc["schema_version"] != 1 or doc["command"] != argv:
            errors.append("schema_version or command echo differs")
        payload = doc["payload"]
        if command == "compute":
            errors += _check_compute(payload, expected)
        elif command == "check":
            errors += _check_check(payload, expected)
        else:
            errors += _check_mine(payload, expected)
    except (KeyError, TypeError) as exc:
        errors.append(f"malformed document: {exc!r}")
    return errors


def altered(text: str) -> str:
    """A copy of a document with one reported value changed, for the self-test
    that the gate counts a wrong document as failed."""
    doc = json.loads(text)
    payload = doc["payload"]
    if "vertices" in payload:
        payload["vertices"][0]["stress"] += 1
    elif "results" in payload:
        first = next(r for r in payload["results"] if r["relation"] == "R1")
        first["status"] = "violated"
    else:
        payload["relations"]["R1"]["holds"] += 1
    return json.dumps(doc, indent=2) + "\n"
