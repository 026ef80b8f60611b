"""Catalog of centrality relations and their exact evaluation.

Each relation couples an average-path-length, clustering, closeness,
radiality, or stress quantity to another. Relations are evaluated in exact
rational arithmetic; a result is ``equality`` only when both sides agree
exactly. Two catalog entries are marked ``audit-inequality``: their statements
are checked empirically and violations are reported without failing a run.

Each catalog row holds a relation's comparison and its evaluator, and
:func:`evaluate` decides every status.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Union

from .graphs import Graph, induced_subsets
from .metrics import (
    CentralityProfile,
    DistanceMatrix,
    apsp,
    mean_pair_distance,
    profile,
)

# result statuses
HOLDS = "holds"
EQUALITY = "equality"
VIOLATED = "violated"
SKIPPED = "skipped-precondition"

# relation kinds
EXACT_IDENTITY = "exact-identity"
INEQUALITY = "inequality"
AUDIT_INEQUALITY = "audit-inequality"

# scopes
PER_VERTEX = "per-vertex"
PER_GRAPH = "per-graph"
PER_SUBGRAPH = "per-subgraph"

Subject = Union[None, int, tuple[int, ...]]
# (graph, profile, distances) -> (subject, lhs, rhs, precondition_ok) per subject
Evaluator = Callable[..., Iterator[tuple[Subject, Fraction, Fraction, bool]]]


@dataclass(frozen=True)
class RelationSpec:
    """One catalog row; ``sense`` compares lhs to rhs: ``=``, ``>=`` or ``<=``."""

    id: str
    description: str
    preconditions: tuple[str, ...]
    kind: str
    scope: str
    sense: str
    evaluator: Evaluator

    @property
    def audit(self) -> bool:
        return self.kind == AUDIT_INEQUALITY


@dataclass(frozen=True)
class RelationResult:
    """Outcome of one relation on one subject.

    ``slack`` is oriented so that a satisfied inequality has slack >= 0 (it is
    ``lhs - rhs`` for >=-shaped relations and ``rhs - lhs`` for <=-shaped ones
    and identities). lhs and rhs are reported even when the status is
    ``skipped-precondition``.
    """

    relation_id: str
    subject: Subject
    status: str
    lhs: Fraction
    rhs: Fraction
    slack: Fraction


def _open_neighborhood_L(g: Graph, d: DistanceMatrix, i: int) -> Fraction:
    return mean_pair_distance(d.dist, sorted(g.adj[i]))


def _closed_neighborhood_L(g: Graph, d: DistanceMatrix, i: int) -> Fraction:
    return mean_pair_distance(d.dist, sorted(g.adj[i] | {i}))


def _stress_over_pairs_sum(prof: CentralityProfile) -> Fraction:
    """Sum over non-pendant vertices of stress / (d(d-1))."""
    total = Fraction(0)
    for deg, str_i in zip(prof.degrees, prof.stress):
        if deg >= 2:
            total += Fraction(str_i, deg * (deg - 1))
    return total


def _degree_stress_monotone(prof: CentralityProfile) -> bool:
    """True when sorting by degree also sorts stress: d_i <= d_j implies Str_i <= Str_j."""
    pairs = sorted(zip(prof.degrees, prof.stress))
    for (da, sa), (db, sb) in zip(pairs, pairs[1:]):
        if sa > sb:
            return False
    return True


def _eval_r1(g, prof, d):
    for i in range(g.n):
        lhs = _open_neighborhood_L(g, d, i)
        yield i, lhs, 2 - prof.local_clustering[i], prof.degrees[i] >= 2


def _eval_r2(g, prof, d):
    lhs = prof.average_clustering
    rhs = 2 - sum(_open_neighborhood_L(g, d, i) for i in range(g.n)) / Fraction(g.n)
    yield None, lhs, rhs, min(prof.degrees) >= 2


def _eval_r3(g, prof, d):
    for i in range(g.n):
        deg = prof.degrees[i]
        lhs = _closed_neighborhood_L(g, d, i)
        rhs = ((deg - 1) * _open_neighborhood_L(g, d, i) + 2) / Fraction(deg + 1)
        yield i, lhs, rhs, deg >= 1


def _eval_r4(g, prof, d):
    lhs = prof.avg_path_length
    for v in range(g.n):
        rest = [u for u in range(g.n) if u != v]
        yield v, lhs, Fraction(g.n - 1, g.n) * mean_pair_distance(d.dist, rest), True


def _eval_r5(g, prof, d):
    for i in range(g.n):
        deg = prof.degrees[i]
        lhs = _closed_neighborhood_L(g, d, i)
        yield i, lhs, Fraction(deg, deg + 1) * _open_neighborhood_L(g, d, i), True


def _eval_r6(g, prof, d):
    lhs = prof.avg_path_length
    for members in induced_subsets(g):
        rhs = Fraction(len(members), g.n) * mean_pair_distance(d.dist, members)
        yield members, lhs, rhs, True


def _eval_r7(g, prof, d):
    yield None, prof.avg_path_length, g.n / sum(prof.closeness), True


def _eval_r8(g, prof, d):
    rhs = prof.diameter + 1 - sum(prof.radiality) / Fraction(g.n)
    yield None, prof.avg_path_length, rhs, True


def _closed_neighborhood_radiality(prof: CentralityProfile, i: int) -> Fraction:
    """Mean, over the neighbors of i, of their radiality measured inside the
    subgraph induced by the closed neighborhood N[i].

    Inside N[i] a neighbor is at distance 1 from i and from the neighbors it
    is adjacent to, and 2 from the rest, so the internal diameter is 1 for a
    clique and 2 otherwise, and the mean reduces to
    (diam - 1) + 1/d + c (d - 1)/d with d the degree and c the clustering of i.
    """
    deg = prof.degrees[i]
    diam = 1 if prof.complete_neighborhood[i] else 2
    return diam - 1 + Fraction(1, deg) + prof.local_clustering[i] * Fraction(deg - 1, deg)


def _eval_r9(g, prof, d):
    lhs = prof.average_clustering / 2
    complete = sum(prof.complete_neighborhood)
    rhs = (
        sum(_closed_neighborhood_radiality(prof, i) for i in range(g.n)) / g.n
        - 2
        + Fraction(complete, g.n)
    )
    yield None, lhs, rhs, True


def _stress_bound(prof: CentralityProfile) -> Fraction:
    n = prof.n
    return 1 + Fraction(sum(prof.stress), n * (n - 1))


def _eval_r10(g, prof, d):
    yield None, prof.avg_path_length, _stress_bound(prof), prof.geodetic


def _eval_r10b(g, prof, d):
    yield None, prof.avg_path_length, _stress_bound(prof), True


def _eval_r11(g, prof, d):
    # pendant terms are 0/0 in the statement; report them as 0 so that the
    # skipped results still carry both sides
    rhs = 1 - _stress_over_pairs_sum(prof) / g.n
    yield None, prof.average_clustering, rhs, not any(prof.pendant)


def _eval_r11b(g, prof, d):
    pendants = sum(prof.pendant)
    rhs = 1 - _stress_over_pairs_sum(prof) / g.n - Fraction(pendants, g.n)
    yield None, prof.average_clustering, rhs, True


def _eval_r12(g, prof, d):
    lhs = 1 - prof.average_clustering
    n = g.n
    scale = (prof.avg_path_length - 1) * (n - 1)
    total = Fraction(0)
    for deg in prof.degrees:
        if deg >= 2:
            total += scale / (deg * (deg - 1))
    pendants = sum(prof.pendant)
    rhs = total / n + Fraction(pendants, n)
    yield None, lhs, rhs, prof.geodetic and _degree_stress_monotone(prof)


_CATALOG = (
    RelationSpec(
        "R1",
        "mean ambient distance within an open neighborhood equals 2 minus the "
        "local clustering coefficient",
        ("degree>=2",),
        EXACT_IDENTITY,
        PER_VERTEX,
        "=",
        _eval_r1,
    ),
    RelationSpec(
        "R2",
        "average clustering equals 2 minus the mean over vertices of the open-"
        "neighborhood mean distance",
        ("min-degree>=2",),
        EXACT_IDENTITY,
        PER_GRAPH,
        "=",
        _eval_r2,
    ),
    RelationSpec(
        "R3",
        "closed-neighborhood mean distance equals ((d-1) * open-neighborhood "
        "mean distance + 2) / (d+1)",
        ("degree>=1",),
        EXACT_IDENTITY,
        PER_VERTEX,
        "=",
        _eval_r3,
    ),
    RelationSpec(
        "R4",
        "graph mean distance is at least (n-1)/n times the ambient mean "
        "distance after deleting one vertex",
        (),
        INEQUALITY,
        PER_VERTEX,
        ">=",
        _eval_r4,
    ),
    RelationSpec(
        "R5",
        "closed-neighborhood mean distance is at least d/(d+1) times the open-"
        "neighborhood mean distance",
        (),
        INEQUALITY,
        PER_VERTEX,
        ">=",
        _eval_r5,
    ),
    RelationSpec(
        "R6",
        "graph mean distance is at least |S|/n times the ambient mean distance "
        "over any vertex subset S",
        (),
        INEQUALITY,
        PER_SUBGRAPH,
        ">=",
        _eval_r6,
    ),
    RelationSpec(
        "R7",
        "graph mean distance is at least n divided by the sum of closeness "
        "centralities",
        (),
        INEQUALITY,
        PER_GRAPH,
        ">=",
        _eval_r7,
    ),
    RelationSpec(
        "R8",
        "graph mean distance equals diameter + 1 minus the mean radiality",
        (),
        EXACT_IDENTITY,
        PER_GRAPH,
        "=",
        _eval_r8,
    ),
    RelationSpec(
        "R9",
        "half the average clustering is at least the mean closed-neighborhood "
        "radiality average minus 2 plus the share of complete neighborhoods",
        (),
        AUDIT_INEQUALITY,
        PER_GRAPH,
        ">=",
        _eval_r9,
    ),
    RelationSpec(
        "R10",
        "on geodetic graphs the mean distance equals 1 + total stress / (n(n-1))",
        ("geodetic",),
        EXACT_IDENTITY,
        PER_GRAPH,
        "=",
        _eval_r10,
    ),
    RelationSpec(
        "R10b",
        "the mean distance is at most 1 + total stress / (n(n-1))",
        (),
        INEQUALITY,
        PER_GRAPH,
        "<=",
        _eval_r10b,
    ),
    RelationSpec(
        "R11",
        "without pendant vertices, average clustering is at least 1 minus the "
        "mean of stress / (d(d-1))",
        ("pendant-free",),
        INEQUALITY,
        PER_GRAPH,
        ">=",
        _eval_r11,
    ),
    RelationSpec(
        "R11b",
        "average clustering is at least 1 minus the mean of stress / (d(d-1)) "
        "over non-pendant vertices minus the pendant share",
        (),
        INEQUALITY,
        PER_GRAPH,
        ">=",
        _eval_r11b,
    ),
    RelationSpec(
        "R12",
        "on geodetic graphs with degree-monotone stress, 1 minus average "
        "clustering is at most the mean of (L-1)(n-1)/(d(d-1)) over non-pendant "
        "vertices plus the pendant share",
        ("geodetic", "degree-stress-monotone"),
        AUDIT_INEQUALITY,
        PER_GRAPH,
        "<=",
        _eval_r12,
    ),
)

_BY_ID = {spec.id: spec for spec in _CATALOG}

RELATION_IDS = tuple(spec.id for spec in _CATALOG)


def catalog() -> tuple[RelationSpec, ...]:
    """All fourteen relations, in catalog order."""
    return _CATALOG


def relation(relation_id: str) -> RelationSpec:
    try:
        return _BY_ID[relation_id]
    except KeyError:
        raise ValueError(f"unknown relation id {relation_id!r}") from None


def select_ids(relation_ids: Iterable[str] | None = None) -> tuple[str, ...]:
    """The given relation ids (default: all), each once, in catalog order.

    Raises ValueError on an unknown id.
    """
    if relation_ids is None:
        return RELATION_IDS
    chosen = {relation(rid).id for rid in relation_ids}
    return tuple(rid for rid in RELATION_IDS if rid in chosen)


def violation_counts(violated: Iterable[tuple[str, int]]) -> tuple[int, int]:
    """(non-audit, audit) totals of ``(relation id, violations)`` pairs."""
    totals = [0, 0]
    for rid, count in violated:
        totals[relation(rid).audit] += count
    return totals[0], totals[1]


def evaluate(
    spec: RelationSpec,
    g: Graph,
    prof: CentralityProfile,
    d: DistanceMatrix,
    max_subjects: Optional[int] = None,
) -> list[RelationResult]:
    """Evaluate one relation on a connected graph, one result per subject.

    ``max_subjects`` truncates the subset stream of per-subgraph relations
    (used by the miner to bound work per graph); other scopes ignore it.
    """
    if g.n < 2:
        raise ValueError("relation evaluation needs at least 2 vertices")
    rows = spec.evaluator(g, prof, d)
    if spec.scope == PER_SUBGRAPH:
        rows = islice(rows, max_subjects)
    results = []
    for subject, lhs, rhs, ok in rows:
        slack = lhs - rhs if spec.sense == ">=" else rhs - lhs
        if not ok:
            status = SKIPPED
        elif slack == 0:
            status = EQUALITY
        elif slack > 0 and spec.sense != "=":
            status = HOLDS
        else:
            status = VIOLATED
        results.append(RelationResult(spec.id, subject, status, lhs, rhs, slack))
    return results


def evaluate_all(
    g: Graph, relation_ids: Iterable[str] | None = None
) -> list[RelationResult]:
    """Convenience wrapper: profile the graph and evaluate the given relations
    (default: the whole catalog), each once, in catalog order."""
    ids = select_ids(relation_ids)
    d = apsp(g)
    prof = profile(g, d)
    results = []
    for rid in ids:
        results.extend(evaluate(relation(rid), g, prof, d))
    return results
