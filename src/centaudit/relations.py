"""Catalog of centrality relations and their exact evaluation.

Each relation couples an average-path-length, clustering, closeness,
radiality, or stress quantity to another. Relations are evaluated exactly; a
result is ``equality`` only when both sides agree exactly. Two catalog
entries are marked ``audit-inequality``: their statements are checked
empirically and violations are reported without failing a run.

Each catalog row holds a relation's comparison and its evaluator. An
evaluator yields one row per subject, ``(subject, lhs_num, lhs_den, rhs_num,
rhs_den, precondition_ok)``: each side is an integer numerator over a positive
denominator, not necessarily in lowest terms. Evaluators read the integer
fields of the :class:`CentralityProfile` and never its Fraction views.
Neighborhood, subset and vertex-deletion means come from integer
pair-distance sums over the ambient distance matrix, clustering from the
profile's edge counts among neighbors and its average-clustering pair, and
per-graph sums over vertices share one common denominator.

:func:`evaluate` decides every status, from the sign of
``lhs_num * rhs_den - rhs_num * lhs_den`` oriented by the comparison, and
returns one outcome per subject: the pair ``(status, row)``. Callers that only
count statuses (the miner's tallies, the equality census) read outcomes as
they are. :func:`make_result` turns one outcome into a :class:`RelationResult`,
whose sides become Fractions only when read; :func:`evaluate_all` (the
``check`` path) and the miner's capped witnesses are its callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice, repeat
from math import lcm
from typing import Callable, Iterable, Iterator, Optional, Union

from .graphs import SUBSET_ENUMERATION_MAX_N, Graph, subset_masks, subset_stream
from .metrics import (
    CentralityProfile,
    DistanceMatrix,
    apsp,
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
# An exact rational as an integer numerator and a positive denominator, in
# any common scale (not necessarily lowest terms).
Ratio = tuple[int, int]
# (subject, lhs numerator, lhs denominator, rhs numerator, rhs denominator,
#  precondition_ok)
Row = tuple[Subject, int, int, int, int, bool]
# (status, row): what evaluate returns per subject
Outcome = tuple[str, Row]
# (graph, profile, distances) -> one row per subject
Evaluator = Callable[..., Iterator[Row]]


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

    Both sides are kept as the evaluator's integer pairs; ``lhs``, ``rhs``
    and ``slack`` build Fractions only when read. ``slack`` is oriented so
    that a satisfied inequality has slack >= 0 (it is ``lhs - rhs`` for
    >=-shaped relations and ``rhs - lhs`` for <=-shaped ones and identities).
    Both sides are reported even when the status is ``skipped-precondition``.
    """

    relation_id: str
    subject: Subject
    status: str
    sense: str
    lhs_num: int
    lhs_den: int
    rhs_num: int
    rhs_den: int

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.lhs_num, self.lhs_den)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_num, self.rhs_den)

    @property
    def slack_pair(self) -> Ratio:
        """``slack`` as an integer pair, not reduced."""
        return (_oriented_difference(self.sense, self.lhs_num, self.lhs_den,
                                     self.rhs_num, self.rhs_den),
                self.lhs_den * self.rhs_den)

    @property
    def slack(self) -> Fraction:
        return Fraction(*self.slack_pair)


def _oriented_difference(sense: str, ln: int, ld: int, rn: int, rd: int) -> int:
    """``slack * ld * rd``: an integer with the sign of the slack."""
    diff = ln * rd - rn * ld
    return diff if sense == ">=" else -diff


def _ratio_sum(terms: Iterable[Ratio]) -> Ratio:
    """Exact sum of integer ratios over the lcm of their denominators."""
    terms = list(terms)
    den = lcm(*(d for _, d in terms))
    return sum(num * (den // d) for num, d in terms), den


def _triplet_sum(prof: CentralityProfile, nums: Iterable[int]) -> Ratio:
    """Sum of ``nums[i] / (d(d-1))`` over the vertices i of degree d >= 2,
    over the profile's lcm of the distinct d(d-1), the denominator of its
    stress pair sum."""
    den = prof.stress_pair_sum[1]
    num = sum(x * (den // (k * (k - 1))) for x, k in zip(nums, prof.degrees) if k >= 2)
    return num, den


def _mean_pairs(pair_sum: int, k: int) -> Ratio:
    """Mean over the ordered pairs of k members whose unordered pairs sum to
    ``pair_sum``; 0 for k <= 1."""
    return (2 * pair_sum, k * (k - 1)) if k >= 2 else (0, 1)


def _degree_stress_monotone(prof: CentralityProfile) -> bool:
    """True when sorting by degree also sorts stress: d_i < d_j implies Str_i <= Str_j."""
    pairs = sorted(zip(prof.degrees, prof.stress))
    for (da, sa), (db, sb) in zip(pairs, pairs[1:]):
        if sa > sb:
            return False
    return True


# R1, R2, R3 and R5 compare the mean ambient distance over the pairs of N(i)
# and over those of N[i] = N(i) + {i}, from the profile's pair sums


def _eval_r1(g, prof, d):
    # local clustering is 2 links / (d(d-1)) (0 below degree 2), over the
    # open mean's denominator
    for i, (deg, open_sum, links) in enumerate(
        zip(prof.degrees, prof.open_pair_sums, prof.links)
    ):
        pairs = deg * (deg - 1) or 1
        yield i, 2 * open_sum, pairs, 2 * (pairs - links), pairs, deg >= 2


def _eval_r2(g, prof, d):
    # the open means, 2 T(N(i)) / (d(d-1)), and 0 below degree 2
    num, den = _triplet_sum(prof, [2 * t for t in prof.open_pair_sums])
    n = g.n
    yield (None, *prof.average_clustering_pair,
           2 * n * den - num, n * den, min(prof.degrees) >= 2)


def _eval_r3(g, prof, d):
    for i, (deg, open_sum, closed_sum) in enumerate(
        zip(prof.degrees, prof.open_pair_sums, prof.closed_pair_sums)
    ):
        on, od = _mean_pairs(open_sum, deg)
        yield (i, *_mean_pairs(closed_sum, deg + 1),
               (deg - 1) * on + 2 * od, (deg + 1) * od, deg >= 1)


def _eval_r4(g, prof, d):
    n = g.n
    total = prof.distance_total
    half = total // 2  # each unordered pair once
    for v, row_sum in enumerate(prof.row_sums):
        # T(V - v): the pairs that avoid v
        mn, md = _mean_pairs(half - row_sum, n - 1)
        yield v, total, n * (n - 1), (n - 1) * mn, n * md, True


def _eval_r5(g, prof, d):
    for i, (deg, open_sum, closed_sum) in enumerate(
        zip(prof.degrees, prof.open_pair_sums, prof.closed_pair_sums)
    ):
        on, od = _mean_pairs(open_sum, deg)
        yield i, *_mean_pairs(closed_sum, deg + 1), deg * on, (deg + 1) * od, True


@cache
def _pair_sum_steps(n: int) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """(S, S - a, S - b, S - a - b, a, b) for each subset mask S of
    :func:`subset_masks`, in its order, with a < b the two lowest members."""
    steps = []
    for members, mask in subset_masks(n):
        a, b = members[0], members[1]
        without_a = mask ^ (1 << a)
        steps.append((mask, without_a, mask ^ (1 << b), without_a ^ (1 << b), a, b))
    return tuple(steps)


# An AND and a popcount of two ints cost the interpreter's per-operation
# overhead plus a little per bit: in CPython 3.11 about 40 ns at 24 bits and
# 90 ns at 1000. So R6's kernel packs several bits of each distance into one
# row word, as long as the word stays within this width.
_DIGIT_ROW_BITS = 1024


def _distance_digits(dist, top: int) -> list[tuple[int, list[int], int]]:
    """Digit rows of a distance matrix whose largest entry is ``top``, for
    subset pair sums, as ``(shift, rows, replicate)`` per digit.

    Each distance is cut into digits of r bits, r the largest for which a
    digit written in unary on n vertices fits in ``_DIGIT_ROW_BITS`` bits
    (r = 1 for n > 341: plain bit planes). For the digit at ``shift``,
    ``rows[u]`` holds n-bit layers 1..L, L the largest digit value: bit v of
    layer j is set when the digit of ``dist[u][v]`` is at least j. With
    ``replicate`` = 1 + 2^n + ... + 2^((L-1)n), ``popcount(rows[u] & S *
    replicate)`` is the sum of that digit over the v in S.
    """
    n = len(dist)
    r = 1
    while ((1 << (r + 1)) - 1) * n <= _DIGIT_ROW_BITS:
        r += 1
    digits = []
    reversed_rows = [row[::-1] for row in dist]  # strings put vertex 0 last
    for shift in range(0, top.bit_length(), r):
        layers = min((1 << r) - 1, top >> shift)
        units = [(x >> shift) & ((1 << r) - 1) for x in range(top + 1)]
        # one "0"/"1" table per layer, highest layer first
        tables = [["1" if unit >= j else "0" for unit in units] for j in range(layers, 0, -1)]
        rows = [int("".join(["".join(map(t.__getitem__, row)) for t in tables]), 2)
                for row in reversed_rows]
        digits.append((shift, rows, sum(1 << (j * n) for j in range(layers))))
    return digits


def _digit_pair_sums(dist, top, stream):
    """``(members, T(S))`` for each ``(members, mask)`` of the stream, T(S)
    the pair-distance sum of S: each ordered pair (u, v) of S adds d(u, v)
    digit by digit, so T(S) is half the sum, over the digits and over the u
    in S, of the row popcounts."""
    digits = _distance_digits(dist, top)
    for members, mask in stream:
        total = 0
        for shift, rows, replicate in digits:
            spread = mask * replicate
            total += sum([(rows[u] & spread).bit_count() for u in members]) << shift
        yield members, total >> 1


def _eval_r6(g, prof, d):
    n = g.n
    ln, ld = prof.distance_total, n * (n - 1)
    dist = d.dist
    stream = subset_stream(n)
    if n > SUBSET_ENUMERATION_MAX_N:
        sums = _digit_pair_sums(dist, d.diameter, stream)
    else:
        # T(S), the pair-distance sum of S, for every mask: the pairs of S are
        # those of S - a and of S - b, less those of S - a - b, counted in
        # both, plus {a, b}. Smaller subsets come first in subset_masks order.
        table = [0] * (1 << n)
        for mask, without_a, without_b, without_ab, a, b in _pair_sum_steps(n):
            table[mask] = table[without_a] + table[without_b] - table[without_ab] + dist[a][b]
        sums = ((members, table[mask]) for members, mask in stream)
    for members, pair_sum in sums:
        k = len(members)  # >= 2
        mn, md = _mean_pairs(pair_sum, k)
        yield members, ln, ld, k * mn, n * md, True


def _eval_r7(g, prof, d):
    n = g.n
    num, den = _ratio_sum(prof.closeness_pairs())
    yield None, prof.distance_total, n * (n - 1), n * den, num, True


def _eval_r8(g, prof, d):
    n = g.n
    pairs = n * (n - 1)
    total = prof.distance_total
    # radiality is ((n - 1)(diam + 1) - row sum) / (n - 1); summed over the
    # vertices that is (n(n - 1)(diam + 1) - total) / (n - 1)
    num, den = pairs * (prof.diameter + 1) - total, n - 1
    yield None, total, pairs, (prof.diameter + 1) * n * den - num, n * den, True


def _closed_neighborhood_radiality(prof: CentralityProfile, i: int) -> Ratio:
    """Mean, over the neighbors of i, of their radiality measured inside the
    subgraph induced by the closed neighborhood N[i].

    Inside N[i] a neighbor is at distance 1 from i and from the neighbors it
    is adjacent to, and 2 from the rest, so the internal diameter is 1 for a
    clique and 2 otherwise, and the mean reduces to
    (diam - 1) + 1/d + c (d - 1)/d with d the degree and c the clustering of
    i. With c = 2 links / (d(d - 1)) that is
    ((diam - 1) d^2 + d + 2 links) / d^2.
    """
    deg = prof.degrees[i]
    diam = 1 if prof.complete_neighborhood[i] else 2
    return (diam - 1) * deg * deg + deg + 2 * prof.links[i], deg * deg


def _eval_r9(g, prof, d):
    cn, cd = prof.average_clustering_pair
    n = g.n
    num, den = _ratio_sum(_closed_neighborhood_radiality(prof, i) for i in range(n))
    complete = sum(prof.complete_neighborhood)
    yield None, cn, 2 * cd, num + (complete - 2 * n) * den, n * den, True


def _eval_r10(g, prof, d):
    pairs = g.n * (g.n - 1)
    yield (None, prof.distance_total, pairs,
           pairs + sum(prof.stress), pairs, prof.geodetic)


def _eval_r10b(g, prof, d):
    pairs = g.n * (g.n - 1)
    yield None, prof.distance_total, pairs, pairs + sum(prof.stress), pairs, True


def _eval_r11(g, prof, d):
    # pendant terms are 0/0 in the statement; the profile's sum over
    # non-pendant vertices reports them as 0, so that the skipped results
    # still carry both sides
    num, den = prof.stress_pair_sum
    n = g.n
    yield (None, *prof.average_clustering_pair,
           n * den - num, n * den, not any(prof.pendant))


def _eval_r11b(g, prof, d):
    num, den = prof.stress_pair_sum
    n = g.n
    pendants = sum(prof.pendant)
    yield (None, *prof.average_clustering_pair,
           (n - pendants) * den - num, n * den, True)


def _eval_r12(g, prof, d):
    cn, cd = prof.average_clustering_pair
    n = g.n
    # (L - 1)(n - 1) = (ln - ld) (n - 1) / ld, summed with 1 / (d(d-1))
    ln, ld = prof.distance_total, n * (n - 1)
    num, den = _triplet_sum(prof, repeat(1))
    pendants = sum(prof.pendant)
    yield (None, cd - cn, cd,
           (ln - ld) * (n - 1) * num + pendants * ld * den, n * ld * den,
           prof.geodetic and _degree_stress_monotone(prof))


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


# sign of lhs - rhs under which each comparison holds strictly; 0: never
_HOLDS_SIGN = {">=": 1, "<=": -1, "=": 0}


def evaluate(
    spec: RelationSpec,
    g: Graph,
    prof: CentralityProfile,
    d: DistanceMatrix,
    max_subjects: Optional[int] = None,
) -> list[Outcome]:
    """Evaluate one relation on a connected graph: one ``(status, row)``
    outcome per subject, in the evaluator's subject order.

    ``max_subjects`` truncates the subset stream of per-subgraph relations
    (used by the miner to bound work per graph); other scopes ignore it.
    """
    if g.n < 2:
        raise ValueError("relation evaluation needs at least 2 vertices")
    rows = spec.evaluator(g, prof, d)
    if spec.scope == PER_SUBGRAPH:
        rows = islice(rows, max_subjects)
    holds_sign = _HOLDS_SIGN[spec.sense]
    outcomes = []
    for row in rows:
        _, ln, ld, rn, rd, ok = row
        if not ok:
            status = SKIPPED
        else:
            diff = ln * rd - rn * ld
            if diff == 0:
                status = EQUALITY
            elif diff * holds_sign > 0:
                status = HOLDS
            else:
                status = VIOLATED
        outcomes.append((status, row))
    return outcomes


def make_result(spec: RelationSpec, status: str, row: Row) -> RelationResult:
    """The :class:`RelationResult` of one outcome of ``spec``."""
    subject, ln, ld, rn, rd, _ = row
    return RelationResult(spec.id, subject, status, spec.sense, ln, ld, rn, rd)


def evaluate_all(
    g: Graph, relation_ids: Iterable[str] | None = None
) -> list[RelationResult]:
    """Convenience wrapper: profile the graph and evaluate the given relations
    (default: the whole catalog), each once, in catalog order, one
    :class:`RelationResult` per subject."""
    ids = select_ids(relation_ids)
    d = apsp(g)
    prof = profile(g, d)
    results = []
    for rid in ids:
        spec = relation(rid)
        results.extend(
            make_result(spec, status, row) for status, row in evaluate(spec, g, prof, d)
        )
    return results
