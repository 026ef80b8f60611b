"""Catalog of centrality relations and their exact evaluation.

Each relation couples an average-path-length, clustering, closeness,
radiality, or stress quantity to another. Relations are evaluated exactly; a
result is ``equality`` only when both sides agree exactly. Two catalog
entries are marked ``audit-inequality``: their statements are checked
empirically and violations are reported without failing a run.

Each catalog row holds a relation's comparison and its evaluator. An
evaluator takes the graph's :class:`CentralityProfile` alone and yields one
row per subject, ``(subject, lhs_num, lhs_den, rhs_num, rhs_den,
precondition_ok)``. Each side is an integer numerator over a positive
denominator, not necessarily in lowest terms. Evaluators read the integer
fields of the profile and never its Fraction views. Neighborhood and
vertex-deletion means come from the profile's integer pair-distance and row
sums, which the pass over the sources folds, and subset means from
pair-distance sums over the profile's distance rows, ``dist``, which only
R6 reads. Clustering comes from the profile's edge counts among neighbors
and its average-clustering pair, and per-graph sums over vertices share one
common denominator.

One sign rule, :func:`_outcomes`, decides every status, from the sign of
``lhs_num * rhs_den - rhs_num * lhs_den`` oriented by the comparison.
:func:`evaluate` returns its outcome for each subject: the pair ``(status,
row)``. :func:`tally` gives the miner what it keeps of one graph, the four
status counts and the violated outcomes, from one counting loop over the
same rule: it calls no :func:`evaluate` and builds no list of outcomes or
statuses.

R6 reads the pair-distance sum of every vertex subset it audits: every
subset of a host of up to 10 vertices, seeded random ones of a larger host
(:func:`graphs.subset_stream`). On every host their pair sums come off
subset lanes, all subsets at once (:func:`_lane_pair_sums`): pair counts on
narrow lanes, widened as they fill, and none for the pairs at the distance
nearest the mean, which each subset's pair count gives. In
:func:`tally` a per-size certificate (:func:`_r6_bounds`), two upper bounds
on the pair sums of all subsets of a size read off sorted distance rows,
decides every audited subset of most sizes at once; only the subsets of the
sizes it leaves open get pair sums and rows.

:func:`make_result` turns one outcome into a :class:`RelationResult`, whose
sides become Fractions only when read; :func:`evaluate_all`, the library's
convenience wrapper, and the miner's capped witnesses are its callers.
``check`` builds none: it writes its rows from :func:`evaluate`'s outcomes.
A profile carries :func:`apsp`'s distance rows only where
:func:`reads_distance_rows` says the selected relations read them; otherwise
:func:`profile` runs the pass alone and keeps none, and R6 raises ValueError
on such a profile.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import lcm
from operator import itemgetter, sub
from typing import Callable, Iterable, Iterator, Optional, Union

from .graphs import Graph, subset_stream
from .metrics import (
    CentralityProfile,
    _pack_lanes,
    _unpack_lanes,
    apsp,
    byte_lanes,
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
# profile -> one row per subject
Evaluator = Callable[[CentralityProfile], Iterator[Row]]


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
    den = lcm(*{d for _, d in terms})
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


def _eval_r1(prof):
    # local clustering is 2 links / (d(d-1)) (0 below degree 2), over the
    # open mean's denominator
    for i, (deg, open_sum, links) in enumerate(
        zip(prof.degrees, prof.open_pair_sums, prof.links)
    ):
        pairs = deg * (deg - 1) or 1
        yield i, 2 * open_sum, pairs, 2 * (pairs - links), pairs, deg >= 2


def _eval_r2(prof):
    # the open means, 2 T(N(i)) / (d(d-1)), and 0 below degree 2
    num, den = _triplet_sum(prof, [2 * t for t in prof.open_pair_sums])
    n = prof.n
    yield (None, *prof.average_clustering_pair,
           2 * n * den - num, n * den, min(prof.degrees) >= 2)


def _eval_r3(prof):
    for i, (deg, open_sum, closed_sum) in enumerate(
        zip(prof.degrees, prof.open_pair_sums, prof.closed_pair_sums)
    ):
        on, od = _mean_pairs(open_sum, deg)
        yield (i, *_mean_pairs(closed_sum, deg + 1),
               (deg - 1) * on + 2 * od, (deg + 1) * od, deg >= 1)


def _eval_r4(prof):
    n = prof.n
    total = prof.distance_total
    half = total // 2  # each unordered pair once
    for v, row_sum in enumerate(prof.row_sums):
        # T(V - v): the pairs that avoid v
        mn, md = _mean_pairs(half - row_sum, n - 1)
        yield v, total, n * (n - 1), (n - 1) * mn, n * md, True


def _eval_r5(prof):
    for i, (deg, open_sum, closed_sum) in enumerate(
        zip(prof.degrees, prof.open_pair_sums, prof.closed_pair_sums)
    ):
        on, od = _mean_pairs(open_sum, deg)
        yield i, *_mean_pairs(closed_sum, deg + 1), deg * on, (deg + 1) * od, True


_SUBSET_LANE_WIDTHS = (8, 16, 32, 64)


def _lane_width(bound: int) -> int:
    """The narrowest subset lane width with ``bound`` < 2^width."""
    return next(w for w in _SUBSET_LANE_WIDTHS if bound < 1 << w)


def _mask_records(masks: list[int], n: int) -> tuple[bytes, int]:
    """The masks of n bits as little-endian records of (n + 7) // 8 bytes
    end to end, and that record length."""
    size = (n + 7) // 8
    return b"".join([mask.to_bytes(size, "little") for mask in masks]), size


def _lane_pair_sums(dist, top: int, total: int, masks: list[int]) -> tuple[int, int]:
    """``(T, W)``: the pair-distance sum T(S) of each vertex mask S in one
    int T, one W-bit lane per mask in mask order, lowest lane first; ``top``
    is the largest entry of the distance rows ``dist`` and ``total`` the sum
    of all their entries (a profile's ``distance_total``).

    The subsets are the lanes: X_v holds 1 in lane i when v is in mask i
    (the masks transposed, a byte column at a time). X_u & X_v then holds 1
    in the lanes of the subsets that hold both u and v. One pass over the
    pairs u < v adds X_u & X_v into one accumulator A_j per distance j =
    d(u, v), so that each lane of A_j counts its subset's pairs at distance
    j, and T(S) = sum_j j A_j in every lane at once. The accumulators are
    keyed by the distances present, not indexed up to ``top``.

    The pairs at the distance j* nearest the mean, ``total`` over n (n - 1)
    rounded, the commonest one on small-world hosts, are never ANDed: every
    subset of k members has C(k, 2) pairs, so A_j* = C(k, 2) - sum of the
    other A_j, lane by lane, with C(k, 2) from each mask's popcount. Every
    A_j is at least 0, so no lane borrows, and any j* would give exact sums. The pass costs one AND
    and one addition per pair u < v off distance j*, of ints of (masks x
    narrow width) bits, whatever the diameter.

    The pass runs on narrow lanes, the narrowest width above n - 1, since
    one row u adds at most n - 1 pairs (u, v > u) to a lane. The count
    width, the narrowest above n (n - 1) / 2, holds any count of pairs.
    Where it is wider, each A_j is kept as a narrow part and a count-width
    part: from the row's distance counts, the narrow part is widened into
    the other (:func:`metrics.byte_lanes`) just before a row would push the
    pairs added to it since its last widening past 2^narrow - 1.

    W is the narrowest width with n (n - 1) top < 2^W. Where the count width
    is narrower than W, the bins are summed by distance bit, B_b = sum of
    the A_j with bit b of j set (again a count of pairs), each B_b is
    widened to W bits once, and T = sum_b 2^b B_b. No lane carries: every
    partial sum of T is at most T(S) <= top n (n - 1) / 2 (A_0, from zero
    distances between distinct vertices, counts for nothing).
    """
    n = len(dist)
    width = _lane_width(n * (n - 1) * top)
    bins = _lane_width(n * (n - 1) // 2)
    narrow = _lane_width(n - 1)
    raw, size = _mask_records(masks, n)
    ones = byte_lanes(b"\1" * len(masks), narrow)
    member = []  # member[v] = X_v
    for c in range(size):
        column = byte_lanes(raw[c::size], narrow)  # byte c of every mask
        member += [column >> b & ones for b in range(min(8, n - 8 * c))]
    ordered = n * (n - 1)
    skip = (2 * total + ordered) // (2 * ordered)  # the distance nearest the mean
    part: defaultdict[int, int] = defaultdict(int)  # j -> A_j, or its narrow part
    by_distance: defaultdict[int, int] = defaultdict(int)  # j -> A_j, count width
    widen = narrow < bins
    if widen:
        length = len(masks) * narrow // 8
        limit = (1 << narrow) - 1
        added: defaultdict[int, int] = defaultdict(int)  # j -> pairs since widened

        def widened(lanes: int) -> int:
            return byte_lanes(lanes.to_bytes(length, "little"), bins, narrow // 8)

    for u, (x, row) in enumerate(zip(member, dist), 1):
        tail = row[u:]
        if widen:
            for j, count in Counter(tail).items():
                if j != skip and added[j] + count > limit:
                    by_distance[j] += widened(part.pop(j))
                    added[j] = 0
                added[j] += count
        for j, y in zip(tail, member[u:]):
            if j != skip:
                part[j] += x & y
    if widen:
        for j, lanes in part.items():
            by_distance[j] += widened(lanes)
    else:
        by_distance = part
    choose2 = _pack_lanes([k * (k - 1) // 2 for k in map(int.bit_count, masks)], bins)
    by_distance[skip] = choose2 - sum(by_distance.values())
    if bins < width:
        length = len(masks) * bins // 8
        planes = [sum([pairs for j, pairs in by_distance.items() if j >> b & 1])
                  for b in range(max(by_distance).bit_length())]
        return sum([byte_lanes(plane.to_bytes(length, "little"), width, bins // 8) << b
                    for b, plane in enumerate(planes)]), width
    return sum([j * pairs for j, pairs in by_distance.items()]), width


def _distance_rows(prof: CentralityProfile):
    """The profile's distance rows; ValueError when it was built without."""
    if prof.dist is None:
        raise ValueError("R6 reads the distance rows: profile the graph as profile(g, apsp(g))")
    return prof.dist


def _r6_rows(prof: CentralityProfile, stream):
    """R6's row for each ``(members, mask)`` of a subset stream: the graph's
    mean distance against k/n times S's mean pair distance, for S of k
    members. The stream is read whole, and the pair-distance sums T(S) of
    all its subsets come off subset lanes (:func:`_lane_pair_sums`) at once."""
    subjects = list(stream)
    n, total = prof.n, prof.distance_total
    sums, width = _lane_pair_sums(_distance_rows(prof), prof.diameter, total,
                                  [mask for _, mask in subjects])
    ld = n * (n - 1)
    for (members, _), pair_sum in zip(subjects, _unpack_lanes(sums, len(subjects), width)):
        k = len(members)  # >= 2
        mn, md = _mean_pairs(pair_sum, k)
        yield members, total, ld, k * mn, n * md, True


def _eval_r6(prof):
    return _r6_rows(prof, subset_stream(prof.n))


def _eval_r7(prof):
    n = prof.n
    num, den = _ratio_sum(prof.closeness_pairs())
    yield None, prof.distance_total, n * (n - 1), n * den, num, True


def _eval_r8(prof):
    n = prof.n
    pairs = n * (n - 1)
    total = prof.distance_total
    # radiality is ((n - 1)(diam + 1) - row sum) / (n - 1); summed over the
    # vertices that is (n(n - 1)(diam + 1) - total) / (n - 1)
    num, den = pairs * (prof.diameter + 1) - total, n - 1
    yield None, total, pairs, (prof.diameter + 1) * n * den - num, n * den, True


def _closed_neighborhood_radialities(prof: CentralityProfile) -> Iterator[Ratio]:
    """Per vertex i, the mean over its neighbors of their radiality measured
    inside the subgraph induced by the closed neighborhood N[i].

    Inside N[i] a neighbor is at distance 1 from i and from the neighbors it
    is adjacent to, and 2 from the rest, so the internal diameter is 1 for a
    clique and 2 otherwise, and the mean reduces to
    (diam - 1) + 1/d + c (d - 1)/d with d the degree and c the clustering of
    i. With c = 2 links / (d(d - 1)) that is
    ((diam - 1) d^2 + d + 2 links) / d^2.
    """
    for deg, links, complete in zip(prof.degrees, prof.links, prof.complete_neighborhood):
        square = deg * deg
        yield (0 if complete else square) + deg + 2 * links, square


def _eval_r9(prof):
    cn, cd = prof.average_clustering_pair
    n = prof.n
    num, den = _ratio_sum(_closed_neighborhood_radialities(prof))
    complete = sum(prof.complete_neighborhood)
    yield None, cn, 2 * cd, num + (complete - 2 * n) * den, n * den, True


def _eval_r10(prof):
    pairs = prof.n * (prof.n - 1)
    yield (None, prof.distance_total, pairs,
           pairs + sum(prof.stress), pairs, prof.geodetic)


def _eval_r10b(prof):
    pairs = prof.n * (prof.n - 1)
    yield None, prof.distance_total, pairs, pairs + sum(prof.stress), pairs, True


def _eval_r11(prof):
    # pendant terms are 0/0 in the statement; the profile's sum over
    # non-pendant vertices reports them as 0, so that the skipped results
    # still carry both sides
    num, den = prof.stress_pair_sum
    n = prof.n
    yield (None, *prof.average_clustering_pair,
           n * den - num, n * den, not any(prof.pendant))


def _eval_r11b(prof):
    num, den = prof.stress_pair_sum
    n = prof.n
    pendants = sum(prof.pendant)
    yield (None, *prof.average_clustering_pair,
           (n - pendants) * den - num, n * den, True)


def _eval_r12(prof):
    cn, cd = prof.average_clustering_pair
    n = prof.n
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


# the status of an admissible row by the sign of lhs - rhs, at index 0, 1
# or -1, under each comparison
_STATUS_BY_SIGN = {
    ">=": (EQUALITY, HOLDS, VIOLATED),
    "<=": (EQUALITY, VIOLATED, HOLDS),
    "=": (EQUALITY, VIOLATED, VIOLATED),
}


def reads_distance_rows(specs: Iterable[RelationSpec]) -> bool:
    """True when one of ``specs`` reads the profile's distance rows: only
    then is a graph profiled as ``profile(g, apsp(g))`` rather than
    ``profile(g)``. R6, the one per-subgraph relation, is the only reader."""
    return any(spec.scope == PER_SUBGRAPH for spec in specs)


def evaluate(spec: RelationSpec, prof: CentralityProfile) -> list[Outcome]:
    """Evaluate one relation on a connected graph's profile: one ``(status,
    row)`` outcome per subject, in the evaluator's subject order. R6 reads
    the profile's distance rows and raises ValueError on a profile without
    them."""
    return list(_outcomes(spec.sense, spec.evaluator(prof)))


def _outcomes(sense: str, rows: Iterable[Row]) -> Iterator[Outcome]:
    """The ``(status, row)`` of each row, decided from the sign of ``lhs_num
    * rhs_den - rhs_num * lhs_den`` oriented by the comparison ``sense``;
    a row whose precondition fails is skipped."""
    by_sign = _STATUS_BY_SIGN[sense]
    for row in rows:
        _, ln, ld, rn, rd, ok = row
        if ok:
            diff = ln * rd - rn * ld
            yield by_sign[(diff > 0) - (diff < 0)], row
        else:
            yield SKIPPED, row


# the (n, budget) keys whose draws _sampled_sizes keeps, the most recent
# ones: a miner reads one key per host size, each for many graphs in a row
_SAMPLED_SIZES_KEPT = 4


@lru_cache(maxsize=_SAMPLED_SIZES_KEPT)
def _sampled_sizes(n: int, budget: Optional[int]) -> tuple[
        tuple[tuple[int, int], ...], tuple[tuple[tuple[int, ...], int], ...]]:
    """``(counts, subjects)`` of the first ``budget`` subjects of R6's subset
    stream on n vertices: ``(k, count)`` for each size k, by ascending k, and
    the ``(members, mask)`` pairs in stream order. They depend on nothing
    else, so a process draws them once for as long as their key stays among
    the ``_SAMPLED_SIZES_KEPT`` most recent."""
    subjects = tuple(islice(subset_stream(n), budget))
    return tuple(sorted(Counter(len(members) for members, _ in subjects).items())), subjects


def _r6_bounds(dist, row_sums: tuple[int, ...], distance_total: int,
               sizes: list[int]) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """``(direct, complement)``: two functions of a size k of ``sizes`` (2 <=
    k < n, at least one size), each an upper bound on 2T(S) over every
    subset S of k vertices, T(S) its pair-distance sum in the symmetric
    distance rows ``dist``, which sum to ``row_sums`` and all of whose
    entries sum to ``distance_total`` = 2W.

    With P_u(j) the sum of the j largest entries of row u:

    - direct: each u of S adds at most P_u(k - 1), so 2T(S) is at most the
      sum of the k largest P_u(k - 1);
    - complement: for S = V - R with |R| = j = n - k, T(S) = W - sum_R
      rowsum + T(R) and 2T(R) is at most sum_R P_r(j - 1), so 2T(S) is at
      most 2W plus the sum of the j largest P_r(j - 1) - 2 rowsum_r.

    The rows are sorted once, and of their prefix sums only the P_u(j) that
    the sizes read are kept; each bound costs a sort of n sums when read.
    """
    n = len(dist)
    wanted = sorted({0, *(k - 1 for k in sizes), *(n - k - 1 for k in sizes)})
    pick = itemgetter(*wanted)  # k >= 2 puts some j >= 1 beside 0: a tuple
    # prefix[j][u] = P_u(j)
    prefix = dict(zip(wanted, zip(*[pick(list(accumulate(sorted(row, reverse=True), initial=0)))
                                    for row in dist])))
    twice = [2 * s for s in row_sums]

    def direct(k: int) -> int:
        return sum(sorted(prefix[k - 1])[-k:])

    def complement(k: int) -> int:
        j = n - k
        return distance_total + sum(sorted(map(sub, prefix[j - 1], twice))[-j:])

    return direct, complement


def _r6_open_sizes(dist, row_sums: tuple[int, ...], distance_total: int,
                   sizes: list[int]) -> set[int]:
    """The sizes k of ``sizes`` (2 <= k < n) at which R6's certificate does
    not show that every subset of k vertices holds strictly.

    S of k members holds strictly when 2T(S) (n - 1) < 2W (k - 1). A size
    where either :func:`_r6_bounds` bound is below that threshold is
    decided; the complement bound is read only where the direct one is not.
    Every other size stays open, also one whose bounds meet it: max-sum
    dispersion is NP-hard in general, so no bound of this kind decides
    every size.
    """
    if not sizes:
        return set()
    n = len(dist)
    direct, complement = _r6_bounds(dist, row_sums, distance_total, sizes)
    return {k for k in sizes if direct(k) * (n - 1) >= distance_total * (k - 1)
            and complement(k) * (n - 1) >= distance_total * (k - 1)}


def tally(
    spec: RelationSpec, prof: CentralityProfile, budget: Optional[int]
) -> tuple[int, int, int, int, list[Outcome]]:
    """``(holds, equality, violated, skipped, violations)`` of ``spec`` on
    one connected graph's profile: the status counts of :func:`evaluate`'s
    outcomes, R6's cut to its first ``budget`` subjects, and the violated
    ones in order. One loop counts the statuses of the evaluator's rows as
    :func:`_outcomes` decides them, with no call to :func:`evaluate` and no
    list of outcomes or statuses; only the violated outcomes are kept.

    R6 counts the first ``budget`` subsets of the stream by size, on every
    host, and decides a size at once where :func:`_r6_open_sizes`'s
    certificate shows that all its subsets hold; the whole vertex set is an
    equality. Only the subsets of the other sizes, in stream order, get pair
    sums off subset lanes and rows (:func:`_r6_rows`), so that the violated
    rows are evaluate's.
    """
    holds = equality = skipped = 0
    if spec.evaluator is _eval_r6:
        n = prof.n
        counts, subjects = _sampled_sizes(n, budget)
        equality = sum(count for k, count in counts if k == n)
        sizes = [k for k, _ in counts if k < n]
        open_sizes = _r6_open_sizes(_distance_rows(prof), prof.row_sums, prof.distance_total,
                                    sizes)
        holds = sum(count for k, count in counts if k < n and k not in open_sizes)
        rows = ()
        if open_sizes:
            rows = _r6_rows(prof, [subject for subject in subjects
                                   if len(subject[0]) in open_sizes])
    else:
        rows = spec.evaluator(prof)
    violations = []
    for outcome in _outcomes(spec.sense, rows):
        status = outcome[0]
        if status == HOLDS:
            holds += 1
        elif status == EQUALITY:
            equality += 1
        elif status == SKIPPED:
            skipped += 1
        else:
            violations.append(outcome)
    return holds, equality, len(violations), skipped, violations


def make_result(spec: RelationSpec, status: str, row: Row) -> RelationResult:
    """The :class:`RelationResult` of one outcome of ``spec``."""
    subject, ln, ld, rn, rd, _ = row
    return RelationResult(spec.id, subject, status, spec.sense, ln, ld, rn, rd)


def evaluate_all(
    g: Graph, relation_ids: Iterable[str] | None = None
) -> list[RelationResult]:
    """Convenience wrapper: profile the graph and evaluate the given relations
    (default: the whole catalog), each once, in catalog order, one
    :class:`RelationResult` per subject. The distance rows are kept only
    when R6, which reads them, is among the relations."""
    specs = [relation(rid) for rid in select_ids(relation_ids)]
    prof = profile(g, apsp(g)) if reads_distance_rows(specs) else profile(g)
    return [make_result(spec, status, row)
            for spec in specs for status, row in evaluate(spec, prof)]
