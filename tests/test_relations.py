from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations, islice
from operator import itemgetter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from centaudit import (
    AUDIT_INEQUALITY,
    EQUALITY,
    EXACT_IDENTITY,
    HOLDS,
    INEQUALITY,
    RELATION_IDS,
    SKIPPED,
    VIOLATED,
    Graph,
    apsp,
    catalog,
    complete_graph,
    cycle_graph,
    evaluate,
    enumerate_connected,
    evaluate_all,
    make_result,
    path_graph,
    profile,
    relation,
    star_graph,
)
from centaudit import relations
from centaudit.relations import (
    _closed_neighborhood_radialities,
    select_ids,
    tally,
    violation_counts,
)
from centaudit.graphs import (
    SUBSET_SAMPLE_COUNT,
    gnp_graph,
    subset_masks,
    subset_stream,
    watts_strogatz_graph,
)
from centaudit import metrics
from centaudit.metrics import _unpack_lanes
from centaudit.mining import (
    SUBSET_BUDGET_PER_GRAPH,
    RelationTally,
    mine_exhaustive,
    mine_random,
)
from oracles import (
    SENSE,
    floyd_warshall,
    max_subset_pair_sums,
    pair_distance_sum,
    r9_rhs,
    relation_sides,
    relation_status,
    restricted_radiality,
)


@st.composite
def connected_graphs(draw, min_n=2, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph.from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
    if not g.is_connected():
        g = Graph.from_edges(n, set(g.edges) | set(path_graph(n).edges))
    return g


def single(g, rid):
    results = evaluate_all(g, [rid])
    assert len(results) == 1
    return results[0]


class TestCatalog:
    def test_fourteen_entries(self):
        assert len(catalog()) == 14

    def test_ids(self):
        assert RELATION_IDS == (
            "R1", "R2", "R3", "R4", "R5", "R6", "R7",
            "R8", "R9", "R10", "R10b", "R11", "R11b", "R12",
        )

    def test_select_ids(self):
        assert select_ids() == RELATION_IDS
        assert select_ids(["R12", "R12", "R7", "R10b", "R10"]) == ("R7", "R10", "R10b", "R12")
        assert select_ids([]) == ()
        with pytest.raises(ValueError):
            select_ids(["R1", "R99"])

    def test_evaluate_all_keeps_distance_rows_only_for_r6(self, monkeypatch):
        """Without R6, evaluate_all calls no apsp: profile(g) alone runs the
        pass, and the results are those read beside apsp's rows."""
        g = watts_strogatz_graph(60, 4, 0.1, seed=0)
        prof = profile(g, apsp(g))
        expected = [make_result(relation(rid), *outcome) for rid in ("R1", "R7")
                    for outcome in evaluate(relation(rid), prof)]
        calls = []
        monkeypatch.setattr(relations, "apsp", lambda g: calls.append(g.n) or apsp(g))
        assert evaluate_all(g, ["R7", "R1"]) == expected
        assert calls == []
        evaluate_all(g, ["R6"])
        assert calls == [60]

    def test_evaluate_all_dedups_in_catalog_order(self):
        results = evaluate_all(star_graph(3), ["R12", "R12", "R7"])
        assert [r.relation_id for r in results] == ["R7", "R12"]

    def test_kinds(self):
        kinds = {spec.id: spec.kind for spec in catalog()}
        assert kinds["R8"] == EXACT_IDENTITY
        assert kinds["R1"] == EXACT_IDENTITY
        assert kinds["R10"] == EXACT_IDENTITY
        assert kinds["R7"] == INEQUALITY
        assert kinds["R9"] == AUDIT_INEQUALITY
        assert kinds["R12"] == AUDIT_INEQUALITY

    def test_scopes(self):
        scopes = {spec.id: spec.scope for spec in catalog()}
        assert scopes["R1"] == scopes["R3"] == scopes["R4"] == scopes["R5"] == "per-vertex"
        assert scopes["R6"] == "per-subgraph"
        assert scopes["R10"] == scopes["R12"] == "per-graph"

    def test_preconditions(self):
        pre = {spec.id: spec.preconditions for spec in catalog()}
        assert pre["R1"] == ("degree>=2",)
        assert pre["R10"] == ("geodetic",)
        assert pre["R11"] == ("pendant-free",)
        assert pre["R12"] == ("geodetic", "degree-stress-monotone")

    def test_senses(self):
        for spec in catalog():
            assert spec.sense in ("=", ">=", "<=")
            assert (spec.sense == "=") == (spec.kind == EXACT_IDENTITY)
        assert [spec.id for spec in catalog() if spec.sense == "<="] == ["R10b", "R12"]

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown relation"):
            relation("R99")

    def test_violation_counts_split_by_audit(self):
        pairs = [("R8", 2), ("R12", 3), ("R1", 0), ("R9", 1), ("R6", True)]
        assert violation_counts(pairs) == (3, 4)
        assert violation_counts([]) == (0, 0)


class TestStatus:
    """One function decides every status; a catalog row with a stand-in
    evaluator pins its table for each comparison."""

    @pytest.mark.parametrize("sense,lhs,rhs,ok,status,slack", [
        ("=", 1, 1, True, EQUALITY, 0),
        ("=", 1, 2, True, VIOLATED, 1),
        ("=", 2, 1, True, VIOLATED, -1),
        ("=", 1, 2, False, SKIPPED, 1),
        (">=", 2, 1, True, HOLDS, 1),
        (">=", 1, 1, True, EQUALITY, 0),
        (">=", 1, 2, True, VIOLATED, -1),
        (">=", 1, 2, False, SKIPPED, -1),
        ("<=", 1, 2, True, HOLDS, 1),
        ("<=", 2, 2, True, EQUALITY, 0),
        ("<=", 2, 1, True, VIOLATED, -1),
        ("<=", 2, 1, False, SKIPPED, -1),
    ])
    def test_decision(self, sense, lhs, rhs, ok, status, slack):
        result = self.decide(sense, (lhs, 1), (rhs, 1), ok)
        assert (result.relation_id, result.status) == ("R7", status)
        assert (result.lhs, result.rhs, result.slack) == (F(lhs), F(rhs), F(slack))

    @pytest.mark.parametrize("sense,lhs,rhs,status,slack", [
        ("=", (2, 4), (1, 2), EQUALITY, F(0)),
        (">=", (2, 4), (1, 2), EQUALITY, F(0)),
        ("<=", (2, 4), (1, 2), EQUALITY, F(0)),
        ("=", (-1, 3), (0, 5), VIOLATED, F(1, 3)),
        (">=", (-1, 3), (0, 5), VIOLATED, F(-1, 3)),
        ("<=", (-1, 3), (0, 5), HOLDS, F(1, 3)),
        (">=", (6, 4), (-9, 6), HOLDS, F(3)),
        ("<=", (0, 7), (0, 1), EQUALITY, F(0)),
    ])
    def test_decision_on_unreduced_sides(self, sense, lhs, rhs, status, slack):
        """Sides are integer pairs in any scale; cross-multiplication decides."""
        result = self.decide(sense, lhs, rhs, True)
        assert result.status == status
        assert (result.lhs, result.rhs, result.slack) == (F(*lhs), F(*rhs), slack)
        assert (result.lhs_num, result.lhs_den, result.rhs_num, result.rhs_den) == (*lhs, *rhs)

    @staticmethod
    def decide(sense, lhs, rhs, ok):
        def stand_in(prof):
            yield (None, *lhs, *rhs, ok)

        spec = replace(relation("R7"), sense=sense, evaluator=stand_in)
        ((status, row),) = evaluate(spec, profile(path_graph(3)))
        return make_result(spec, status, row)


class TestExamples:
    def test_r1_on_triangle(self):
        results = evaluate_all(complete_graph(3), ["R1"])
        assert all(r.status == EQUALITY and r.lhs == r.rhs == F(1) for r in results)

    def test_r1_skipped_below_degree_two(self):
        r = evaluate_all(path_graph(3), ["R1"])[0]  # end vertex, degree 1
        assert r.status == SKIPPED
        assert (r.lhs, r.rhs) == (F(0), F(2))  # both sides still reported

    def test_r2_c4_equality_p3_skipped(self):
        assert single(cycle_graph(4), "R2").status == EQUALITY
        assert single(path_graph(3), "R2").status == SKIPPED

    def test_r3_holds_at_degree_one(self):
        r = evaluate_all(path_graph(3), ["R3"])[0]
        assert r.status == EQUALITY and r.lhs == r.rhs == F(1)

    def test_r4_deleting_path_center_is_tight(self):
        results = evaluate_all(path_graph(3), ["R4"])
        by_subject = {r.subject: r for r in results}
        assert by_subject[1].status == EQUALITY
        assert by_subject[1].lhs == by_subject[1].rhs == F(4, 3)
        assert by_subject[0].status == HOLDS

    def test_r5_star_center_is_tight(self):
        r = evaluate_all(star_graph(3), ["R5"])[0]
        assert r.status == EQUALITY and r.lhs == F(3, 2)

    def test_r6_subjects_on_path(self):
        results = evaluate_all(path_graph(3), ["R6"])
        outcomes = {r.subject: r.status for r in results}
        assert outcomes == {
            (0, 1): HOLDS,
            (0, 2): EQUALITY,
            (1, 2): HOLDS,
            (0, 1, 2): EQUALITY,
        }

    def test_r6_respects_subject_budget(self):
        g = path_graph(3)
        assert sum(tally(relation("R6"), profile(g, apsp(g)), 2)[:4]) == 2

    def test_r7_equality_on_vertex_transitive(self):
        r = single(cycle_graph(5), "R7")
        assert r.status == EQUALITY and r.lhs == r.rhs == F(3, 2)

    def test_r7_strict_on_path(self):
        r = single(path_graph(3), "R7")
        assert r.status == HOLDS
        assert (r.lhs, r.rhs, r.slack) == (F(4, 3), F(9, 7), F(1, 21))

    def test_r10_star_equality(self):
        r = single(star_graph(3), "R10")
        assert r.status == EQUALITY
        assert r.lhs == r.rhs == F(3, 2)  # 1 + 6/12

    def test_r10_skipped_on_non_geodetic(self):
        assert single(cycle_graph(4), "R10").status == SKIPPED

    def test_r10b_strict_on_c4(self):
        r = single(cycle_graph(4), "R10b")
        assert r.status == HOLDS and r.slack == F(1, 3)

    def test_r11_c4_equality(self):
        r = single(cycle_graph(4), "R11")
        assert r.status == EQUALITY and r.lhs == r.rhs == F(0)

    def test_r11_skipped_on_star_still_reports_sides(self):
        r = single(star_graph(3), "R11")
        assert r.status == SKIPPED
        assert (r.lhs, r.rhs) == (F(0), F(3, 4))

    def test_r11b_star_equality(self):
        r = single(star_graph(3), "R11b")
        assert r.status == EQUALITY and r.lhs == r.rhs == F(0)

    def test_r12_star_audit_violation(self):
        r = single(star_graph(3), "R12")
        assert r.status == VIOLATED
        assert (r.lhs, r.rhs) == (F(1), F(13, 16))
        assert relation("R12").audit

    def test_r12_skipped_on_non_geodetic(self):
        assert single(cycle_graph(4), "R12").status == SKIPPED

    def test_r9_single_edge_equality(self):
        r = single(path_graph(2), "R9")
        assert r.status == EQUALITY and r.lhs == r.rhs == F(0)


class TestRestrictedRadialitySum:
    """Hand values of the per-vertex R9 term, from the oracle (relabeled
    induced subgraph) and from R9's closed form over the profile."""

    @staticmethod
    def both(g, i):
        return restricted_radiality(g, i), F(*list(_closed_neighborhood_radialities(profile(g)))[i])

    def test_triangle(self):
        assert self.both(complete_graph(3), 0) == (F(1), F(1))

    def test_star_center(self):
        assert self.both(star_graph(3), 0) == (F(4, 3), F(4, 3))

    def test_star_leaf(self):
        assert self.both(star_graph(3), 1) == (F(1), F(1))

    def test_rejects_isolated_vertex(self):
        with pytest.raises(ValueError):
            restricted_radiality(Graph.from_edges(1, []), 0)


class TestR9AgainstOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_labeled_graph(self, n):
        for g in enumerate_connected(n):
            assert single(g, "R9").rhs == r9_rhs(g), g.edges

    @given(connected_graphs(max_n=8))
    @settings(max_examples=60)
    def test_random_graphs(self, g):
        assert single(g, "R9").rhs == r9_rhs(g)


def assert_matches_oracle(g):
    """Every result's sides, status and slack equal the oracle's statement of
    its relation; per-vertex and per-graph subjects are all present."""
    sides = relation_sides(g)
    results = evaluate_all(g)
    for r in results:
        lhs, rhs, ok = sides[r.relation_id][r.subject]
        status, slack = relation_status(SENSE[r.relation_id], lhs, rhs, ok)
        assert (r.lhs, r.rhs, r.status, r.slack) == (lhs, rhs, status, slack), (
            g.edges, r.relation_id, r.subject)
    for rid in RELATION_IDS:
        subjects = [r.subject for r in results if r.relation_id == rid]
        if rid == "R6" and g.n > 10:
            assert len(set(subjects)) == SUBSET_SAMPLE_COUNT
        else:
            assert subjects == list(sides[rid]), (g.edges, rid)
    return results


class TestAgainstOracle:
    """The integer kernels against every relation stated in Fractions over
    Floyd-Warshall distances (tests/oracles.relation_sides)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_labeled_graph(self, n):
        for g in enumerate_connected(n):
            assert_matches_oracle(g)

    @given(connected_graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, g):
        assert_matches_oracle(g)

    @pytest.mark.parametrize("g", [
        watts_strogatz_graph(9, 4, 0.3, seed=1),
        gnp_graph(10, 0.4, seed=3),
    ], ids=["ws9", "gnp10"])
    def test_largest_enumerated_hosts(self, g):
        """n = 9 and 10 are the largest hosts whose every subset R6 reads,
        off the same subset lanes as the sampled hosts."""
        assert g.is_connected()
        results = assert_matches_oracle(g)
        assert sum(r.relation_id == "R6" for r in results) == 2 ** g.n - g.n - 1

    def test_miner_budget_on_ten_vertices(self):
        """The miner's R6 budget counts the first 512 subsets of the stream."""
        g = gnp_graph(10, 0.4, seed=3)
        prof = profile(g, apsp(g))
        sides = relation_sides(g)["R6"]
        expected = list(sides)[:SUBSET_BUDGET_PER_GRAPH]
        assert len(expected) == 512 < len(sides)
        outcomes = evaluate(relation("R6"), prof)
        assert [row[0] for _, row in outcomes] == list(sides)
        statuses = Counter(relation_status(SENSE["R6"], *sides[subset])[0]
                           for subset in expected)
        assert tally(relation("R6"), prof, SUBSET_BUDGET_PER_GRAPH) == (
            statuses[HOLDS], statuses[EQUALITY], statuses[VIOLATED], statuses[SKIPPED], [])

    def test_sampled_subsets_on_twelve_vertices(self):
        g = watts_strogatz_graph(12, 4, 0.3, seed=2)
        results = assert_matches_oracle(g)
        assert sum(r.relation_id == "R6" for r in results) == SUBSET_SAMPLE_COUNT


def _with_distance(prof, i, j, value):
    """A copy of the profile ``prof``, built with distance rows, with the
    symmetric distance (i, j) set to ``value``, and the row sums, distance
    total and diameter that R6 reads of the altered rows."""
    dist = [list(row) for row in prof.dist]
    dist[i][j] = dist[j][i] = value
    row_sums = tuple(map(sum, dist))
    return replace(prof, dist=tuple(map(tuple, dist)), row_sums=row_sums,
                   distance_total=sum(row_sums), diameter=max(map(max, dist)))


def _search_with_distance(monkeypatch, i, j, value):
    """Make the pass's per-source search find d(i, j) = d(j, i) = ``value``."""
    search = metrics._search

    def altered(adj, s):
        dist, sigma, below, _ = search(adj, s)
        if s in (i, j):
            dist[i + j - s] = value
        return dist, sigma, below, max(dist)

    monkeypatch.setattr(metrics, "_search", altered)


class TestNeighborhoodSumsReadDistances:
    """R1 and R3 compare distances inside a neighborhood with clustering and
    degree. Their sides must be measured from the distances the pass over
    the sources finds: with one distance altered in its search, the
    identity has to fail at that vertex. Sums derived from degree or
    clustering would keep it holding."""

    @staticmethod
    def status_at(rid, g, vertex):
        (status,) = [status for status, row in evaluate(relation(rid), profile(g))
                     if row[0] == vertex]
        return status

    def test_r3_reads_the_distance_to_each_neighbor(self, monkeypatch):
        g = cycle_graph(5)
        assert apsp(g).dist[0][1] == 1
        assert self.status_at("R3", g, 0) == EQUALITY
        _search_with_distance(monkeypatch, 0, 1, 2)
        assert apsp(g).dist[0][1] == 2
        assert self.status_at("R3", g, 0) == VIOLATED

    def test_r1_reads_the_distance_between_neighbors(self, monkeypatch):
        g = cycle_graph(5)  # the neighbors 1 and 4 of vertex 0 are not adjacent
        assert apsp(g).dist[1][4] == 2
        assert self.status_at("R1", g, 0) == EQUALITY
        _search_with_distance(monkeypatch, 1, 4, 3)
        assert apsp(g).dist[1][4] == 3
        assert self.status_at("R1", g, 0) == VIOLATED


def r6_pair_sums(prof):
    """Each R6 subject with the pair-distance sum T(S) its row carries: the
    rhs is k * 2T / (n * k (k - 1)) for a subject of k members."""
    sums = []
    for _, (members, _, _, rn, rd, _) in evaluate(relation("R6"), prof):
        k = len(members)
        assert rd == prof.n * k * (k - 1) and rn % (2 * k) == 0
        sums.append((members, rn // (2 * k)))
    return sums


def _gnp_connected(n, p):
    return next(g for g in (gnp_graph(n, p, seed=s) for s in range(100)) if g.is_connected())


class TestSampledPairSums:
    """On hosts with n >= 11, R6 reads the sampled subsets' pair sums off
    transposed subset lanes: 8-bit lanes on K12; 8-bit pair counts widened
    to 16-bit sums on star11; 16-bit on C33, P40, K160 and the dense
    G(56, 0.3) and G(72, 0.3); 16-bit counts widened to 32-bit sums on P64,
    P65, P72, WS(150), G(200, 0.3), P300, WS(300) and C342; 32-bit counts
    and sums on C600 and G(400, 0.3). P64 and P65 sit on either side of a
    byte in the mask records, 8 and 9 bytes per mask. Every one of the
    sampled subjects must carry the pair sum summed directly over its
    members."""

    @pytest.mark.parametrize("g, planes", [
        (complete_graph(12), 1),
        (star_graph(11), 2),
        (watts_strogatz_graph(150, 4, 0.1, seed=0), 4),
        (cycle_graph(33), 5),
        (path_graph(40), 6),
        (path_graph(64), 6),
        (path_graph(65), 7),
        (cycle_graph(342), 8),
        (path_graph(72), 7),
        (_gnp_connected(56, 0.3), 2),
        (_gnp_connected(72, 0.3), 2),
        (_gnp_connected(200, 0.3), 2),
        (path_graph(300), 9),
        (watts_strogatz_graph(300, 4, 0.1, seed=0), 4),
        (cycle_graph(600), 9),
        (complete_graph(160), 1),
        (_gnp_connected(400, 0.3), 2),
    ], ids=["K12", "star11", "ws150", "C33", "P40", "P64", "P65", "C342", "P72", "gnp56",
            "gnp72", "gnp200", "P300", "ws300", "C600", "K160", "gnp400"])
    def test_every_subject_matches_a_direct_sum(self, g, planes):
        d = apsp(g)
        assert max(map(max, d.dist)).bit_length() == planes
        sums = r6_pair_sums(profile(g, d))
        assert [members for members, _ in sums] == [m for m, _ in subset_stream(g.n)]
        assert len(sums) == SUBSET_SAMPLE_COUNT
        if g.n <= 40:
            fw = floyd_warshall(g)
            direct = [int(sum(fw[u][v] for u, v in combinations(members, 2)))
                      for members, _ in sums]
        else:
            direct = [pair_distance_sum(d.dist, members) for members, _ in sums]
        assert [pair_sum for _, pair_sum in sums] == direct

    @pytest.mark.parametrize("g", [
        watts_strogatz_graph(150, 4, 0.1, seed=0),
        _gnp_connected(299, 0.3),
    ], ids=["ws150", "gnp299"])
    def test_pair_counts_widened_to_sums(self, g):
        """WS(150) and G(299, 0.3) take 16-bit pair counts widened to 32-bit
        sums on lanes."""
        prof = profile(g, apsp(g))
        d = prof.dist
        assert 8 < (g.n * (g.n - 1) // 2).bit_length() <= 16
        subjects = list(islice(subset_stream(g.n), SUBSET_SAMPLE_COUNT))
        sums, width = relations._lane_pair_sums(d, prof.diameter, prof.distance_total,
                                                [m for _, m in subjects])
        assert width == 32
        direct = [pair_distance_sum(d, members) for members, _ in subjects]
        assert list(_unpack_lanes(sums, len(subjects), width)) == direct

    @staticmethod
    def assert_follows_distance(far):
        """With d(0, 1) of C33 set to ``far``, the pair sums change exactly
        for the subsets that hold both 0 and 1."""
        g = cycle_graph(33)
        prof = profile(g, apsp(g))
        mutated = _with_distance(prof, 0, 1, far)
        sums = r6_pair_sums(mutated)
        assert [pair_sum for _, pair_sum in sums] == [
            pair_distance_sum(mutated.dist, members) for members, _ in sums
        ]
        changed = [a != b for a, b in zip(sums, r6_pair_sums(prof))]
        assert changed == [members[:2] == (0, 1) for members, _ in sums]
        assert any(changed)

    def test_kernel_follows_the_matrix_it_is_given(self):
        # one entry raised above the diameter, past the host's top distance bit
        self.assert_follows_distance(40)

    def test_kernel_bins_the_distances_present(self):
        # 64-bit lanes; a table indexed up to the largest distance could not
        # be allocated
        self.assert_follows_distance(10 ** 12)


def lane_pair_sums(dist, masks, total=None):
    """The subset lanes' pair sums of ``masks`` over the rows ``dist``, one
    per mask; ``total`` stands in for the sum of the rows' entries, from
    which the kernel picks the distance it skips."""
    top = max(map(max, dist))
    if total is None:
        total = sum(map(sum, dist))
    sums, width = relations._lane_pair_sums(dist, top, total, masks)
    return list(_unpack_lanes(sums, len(masks), width))


def edge_masks(n):
    """Masks of size 2, n - 1 and n on n vertices: the pairs (0, 1), (0,
    n - 1) and (n - 2, n - 1), each vertex left out once, and all of them."""
    full = (1 << n) - 1
    return [0b11, 1 | 1 << (n - 1), 3 << (n - 2), *(full ^ 1 << v for v in range(n)), full]


class TestNarrowPairCounts:
    """relations._lane_pair_sums ANDs its pairs on narrow lanes, the
    narrowest of 8, 16, 32 and 64 bits above n - 1, and widens a distance
    bin into the count width, the narrowest above n (n - 1) / 2, before a
    row could carry it past 2^narrow - 1. The bin of the distance nearest
    the mean is never ANDed: it is C(k, 2) less the other bins. Every path
    is held to exact oracles, with subsets of size 2, n - 1 and n among the
    masks."""

    @staticmethod
    def widths(n):
        return relations._lane_width(n - 1), relations._lane_width(n * (n - 1) // 2)

    @staticmethod
    def complete_bipartite(a):
        return Graph.from_edges(2 * a, [(u, v) for u in range(a) for v in range(a, 2 * a)])

    @pytest.mark.parametrize("a, widths", [(100, (8, 16)), (400, (16, 32))],
                             ids=["K100,100", "K400,400"])
    def test_complete_bipartite_against_the_closed_form(self, a, widths, monkeypatch):
        """On K_{a,a} a pair across the sides is 1 apart and a pair on one
        side 2, so T(S) = xy + 2[C(x, 2) + C(y, 2)] with x and y S's members
        on each side. The mean distance is below 3/2, so the bin at 1 is
        skipped, and the bin at 2, with 2 C(a, 2) pairs, is widened more
        than once on the way."""
        g = self.complete_bipartite(a)
        n = g.n
        assert self.widths(n) == widths
        narrow, bins = widths
        d = apsp(g)
        side = [v >= a for v in range(n)]
        assert [list(row) for row in d.dist] == [
            [0 if u == v else 1 + (side[u] == side[v]) for v in range(n)] for u in range(n)]
        assert 2 * (a * (a - 1)) > (1 << narrow) - 1
        calls = []
        original = relations.byte_lanes

        def recorded(row, width, size=1):
            calls.append((width, size))
            return original(row, width, size)

        monkeypatch.setattr(relations, "byte_lanes", recorded)
        masks = [m for _, m in islice(subset_stream(n), 300)] + edge_masks(n)
        expected = []
        for mask in masks:
            x = bin(mask & (1 << a) - 1).count("1")
            y = bin(mask >> a).count("1")
            expected.append(x * y + x * (x - 1) + y * (y - 1))
        assert lane_pair_sums(d.dist, masks) == expected
        assert calls.count((bins, narrow // 8)) > 1

    @pytest.mark.parametrize("n", [23, 24, 256, 257, 362, 363])
    def test_small_world_hosts_at_the_width_steps(self, n):
        """WS(n, 4, 0.1) on each side of a step: the narrow lanes are the
        count width at n = 23, 257 and 362, and narrower at 24, 256 and
        363."""
        narrow, bins = self.widths(n)
        assert (narrow < bins) == (n in (24, 256, 363))
        d = apsp(watts_strogatz_graph(n, 4, 0.1, seed=0))
        subjects = list(islice(subset_stream(n), 200))
        masks = [m for _, m in subjects] + edge_masks(n)
        members = [tuple(v for v in range(n) if mask >> v & 1) for mask in masks]
        assert lane_pair_sums(d.dist, masks) == [pair_distance_sum(d.dist, s) for s in members]

    def test_complete_graph_every_pair_in_the_skipped_bin(self):
        """On K30 every pair is 1 apart, the bin that is skipped, so each
        pair sum is C(k, 2) alone."""
        n = 30
        d = apsp(complete_graph(n))
        masks = [m for _, m in islice(subset_stream(n), 200)] + edge_masks(n)
        assert lane_pair_sums(d.dist, masks) == [
            bin(m).count("1") * (bin(m).count("1") - 1) // 2 for m in masks]

    @pytest.mark.parametrize("g", [
        watts_strogatz_graph(150, 4, 0.1, seed=0),
        Graph.from_edges(200, [(u, v) for u in range(100) for v in range(100, 200)]),
        _gnp_connected(72, 0.3),
    ], ids=["ws150", "K100,100", "gnp72"])
    def test_every_skipped_distance_gives_the_same_sums(self, g, monkeypatch):
        """The kernel skips the distance nearest ``total`` / (n (n - 1)).
        Forced through the total onto each distance 1..diameter, the sums
        stay the direct ones, while which bins are widened changes."""
        prof = profile(g, apsp(g))
        n = g.n
        masks = [m for _, m in islice(subset_stream(n), 200)] + edge_masks(n)
        members = [tuple(v for v in range(n) if mask >> v & 1) for mask in masks]
        expected = [pair_distance_sum(prof.dist, s) for s in members]
        calls = []
        original = relations.byte_lanes
        monkeypatch.setattr(relations, "byte_lanes",
                            lambda *args: calls.append(args[1:]) or original(*args))
        widened = []
        for skip in range(1, prof.diameter + 1):
            calls.clear()
            assert lane_pair_sums(prof.dist, masks, skip * n * (n - 1)) == expected, skip
            widened.append(len(calls))
        assert lane_pair_sums(prof.dist, masks, prof.distance_total) == expected
        assert len(set(widened)) > 1

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_rows_against_the_direct_sum(self, data):
        """Any symmetric rows of positive distances, not only a graph's, and
        so any bin nearest the mean, empty or not."""
        n = data.draw(st.integers(2, 40), label="n")
        top = data.draw(st.sampled_from([1, 3, 40, 10 ** 6]), label="top")
        dist = [[0] * n for _ in range(n)]
        for u, v in combinations(range(n), 2):
            dist[u][v] = dist[v][u] = data.draw(st.integers(1, top))
        masks = data.draw(st.lists(st.integers(3, (1 << n) - 1).filter(
            lambda m: bin(m).count("1") >= 2), min_size=1, max_size=20), label="masks")
        members = [tuple(v for v in range(n) if mask >> v & 1) for mask in masks]
        assert lane_pair_sums(dist, masks) == [pair_distance_sum(dist, s) for s in members]


class TestR6Certificate:
    """relations._r6_bounds bounds twice the pair-distance sum of every
    subset of each size k < n from above, both its direct and its
    complement bound, each a function of k, and relations._r6_open_sizes
    decides a size only where every subset of it holds R6 strictly: the
    brute-force maximum max T(S) of oracles.max_subset_pair_sums is below
    W (k - 1) / (n - 1)."""

    @staticmethod
    def open_sizes(g):
        """The sizes the certificate leaves open on g, checked against the
        brute-force maxima."""
        d = apsp(g)
        prof = profile(g, d)
        n = g.n
        best = max_subset_pair_sums(g)
        sizes = list(range(2, n))
        direct, complement = relations._r6_bounds(d.dist, prof.row_sums, prof.distance_total,
                                                  sizes)
        for k in sizes:
            assert direct(k) >= 2 * best[k] and complement(k) >= 2 * best[k], (g.edges, k)
        open_sizes = relations._r6_open_sizes(d.dist, prof.row_sums, prof.distance_total, sizes)
        assert open_sizes <= set(sizes)
        for k in set(sizes) - open_sizes:
            assert best[k] * (n - 1) < best[n] * (k - 1), (g.edges, k)
        return open_sizes

    def test_every_connected_graph_up_to_seven_vertices(self):
        """All 994 connected graphs on 3 to 7 vertices in the atlas: every
        size below n is decided but k = n - 1 on the stars, where S = the
        leaves is R6's equality and the complement bound, exact at k = n - 1,
        meets the threshold."""
        graphs = 0
        for atlas in nx.graph_atlas_g():
            n = atlas.number_of_nodes()
            if n < 3 or not nx.is_connected(atlas):
                continue
            g = Graph.from_edges(n, atlas.edges())
            star = sorted(d for _, d in atlas.degree()) == [1] * (n - 1) + [n - 1]
            assert self.open_sizes(g) == ({n - 1} if star else set()), g.edges
            graphs += 1
        assert graphs == 994

    @given(connected_graphs(min_n=3, max_n=12))
    @settings(max_examples=40, deadline=None)
    def test_sound_up_to_twelve_vertices(self, g):
        self.open_sizes(g)


def counted(spec, prof, budget):
    """What tally must return: the statuses of evaluate's outcomes, R6's cut
    to the first ``budget``, counted, and the violated ones in order."""
    outcomes = evaluate(spec, prof)
    if spec.scope == relations.PER_SUBGRAPH:
        outcomes = outcomes[:budget]
    c = Counter(map(itemgetter(0), outcomes))
    return (c[HOLDS], c[EQUALITY], c[VIOLATED], c[SKIPPED],
            [outcome for outcome in outcomes if outcome[0] == VIOLATED])


class TestTally:
    """relations.tally, the miner's count path, against a count of evaluate's
    outcomes. tally never calls evaluate: one loop counts the statuses of
    each evaluator's rows. R6 is counted by size on every host, enumerated
    or sampled: relations._r6_open_sizes decides most sizes at once, and
    only the subsets of the sizes it leaves open get pair sums and rows."""

    def test_every_graph_up_to_six_vertices(self):
        """Every labeled connected graph on 2 to 6 vertices, and the 853
        connected atlas graphs on 7, one per isomorphism class: the count
        loop against evaluate's own outcomes."""
        sevens = [Graph.from_edges(7, atlas.edges()) for atlas in nx.graph_atlas_g()
                  if atlas.number_of_nodes() == 7 and nx.is_connected(atlas)]
        assert len(sevens) == 853
        for g in [g for n in range(2, 7) for g in enumerate_connected(n)] + sevens:
            prof = profile(g, apsp(g))
            for spec in catalog():
                expected = counted(spec, prof, SUBSET_BUDGET_PER_GRAPH)
                assert tally(spec, prof, SUBSET_BUDGET_PER_GRAPH) == expected, (
                    g.edges, spec.id)

    @pytest.mark.parametrize("budget", [SUBSET_BUDGET_PER_GRAPH, None])
    def test_sizes_of_enumerated_hosts(self, budget):
        """On hosts of up to 10 vertices the sizes counted are those of the
        first ``budget`` subsets of subset_masks, and so are the subjects."""
        for n in range(2, 11):
            prefix = subset_masks(n)[:budget]
            counts, subjects = relations._sampled_sizes(n, budget)
            assert counts == tuple(sorted(Counter(len(m) for m, _ in prefix).items()))
            assert subjects == prefix

    def test_sampled_sizes_keeps_the_most_recent_keys(self):
        """The draws of a few host sizes are kept, not of every size seen."""
        relations._sampled_sizes.cache_clear()
        for n in range(11, 61):
            relations._sampled_sizes(n, SUBSET_BUDGET_PER_GRAPH)
            assert relations._sampled_sizes.cache_info().currsize <= min(
                n - 10, relations._SAMPLED_SIZES_KEPT)
        assert relations._sampled_sizes.cache_info().currsize == relations._SAMPLED_SIZES_KEPT

    def test_one_mine_run_draws_each_size_once(self):
        """A miner's graphs of one size read one draw: random mining draws
        once for all its trials, and exhaustive mining once per n."""
        relations._sampled_sizes.cache_clear()
        mine_random("watts_strogatz", {"n": 24, "k": 4, "p": 0.1}, trials=5,
                    relation_ids=["R6"])
        info = relations._sampled_sizes.cache_info()
        assert (info.misses, info.hits) == (1, 4)
        relations._sampled_sizes.cache_clear()
        mine_exhaustive(5, relation_ids=["R6"])
        info = relations._sampled_sizes.cache_info()
        assert info.misses == 4 and info.hits > 0  # n = 2..5

    # widths: the subset lane width W that n (n - 1) diameter calls for and
    # the count width that n (n - 1) / 2 calls for. The reference count's
    # evaluate reads the pair sums off those lanes; the certificate decides
    # every sampled size of every one of these hosts.
    @pytest.mark.parametrize("g, widths", [
        (watts_strogatz_graph(11, 4, 0.1, seed=0), (16, 8)),
        (watts_strogatz_graph(12, 4, 0.1, seed=0), (16, 8)),
        (watts_strogatz_graph(24, 4, 0.1, seed=0), (16, 16)),
        (watts_strogatz_graph(64, 4, 0.1, seed=0), (16, 16)),
        (_gnp_connected(24, 0.3), (16, 16)),
        (_gnp_connected(64, 0.3), (16, 16)),
        (complete_graph(16), (8, 8)),
        (complete_graph(40), (16, 16)),
        (path_graph(60), (32, 16)),
        (path_graph(72), (32, 16)),
        (watts_strogatz_graph(73, 4, 0.1, seed=0), (16, 16)),
        (path_graph(90), (32, 16)),
        (watts_strogatz_graph(96, 4, 0.1, seed=0), (32, 16)),
        (watts_strogatz_graph(149, 4, 0.1, seed=0), (32, 16)),
        (path_graph(149), (32, 16)),
        (watts_strogatz_graph(150, 4, 0.1, seed=0), (32, 16)),
        (path_graph(150), (32, 16)),
        (_gnp_connected(149, 0.3), (16, 16)),
        (_gnp_connected(150, 0.3), (16, 16)),
        (watts_strogatz_graph(255, 4, 0.1, seed=0), (32, 16)),
        (watts_strogatz_graph(256, 4, 0.1, seed=0), (32, 16)),
        (path_graph(255), (32, 16)),
        (path_graph(256), (32, 16)),
        (complete_graph(149), (16, 16)),
        (complete_graph(150), (16, 16)),
        (_gnp_connected(298, 0.3), (32, 16)),
        (_gnp_connected(299, 0.3), (32, 16)),
        (watts_strogatz_graph(596, 4, 0.1, seed=0), (32, 32)),
        (watts_strogatz_graph(597, 4, 0.1, seed=0), (32, 32)),
        (path_graph(600), (32, 32)),
    ], ids=["ws11", "ws12", "ws24", "ws64", "gnp24", "gnp64", "K16", "K40", "P60", "P72",
            "ws73", "P90", "ws96", "ws149", "P149", "ws150", "P150", "gnp149", "gnp150",
            "ws255", "ws256", "P255", "P256", "K149", "K150", "gnp298", "gnp299", "ws596",
            "ws597", "P600"])
    def test_sampled_hosts(self, g, widths, monkeypatch):
        d = apsp(g)
        prof = profile(g, d)
        lane_widths = []  # W of each subset lane call
        original = relations._lane_pair_sums

        def lanes(*args):
            sums, width = original(*args)
            lane_widths.append(width)
            return sums, width

        monkeypatch.setattr(relations, "_lane_pair_sums", lanes)
        width, bins = widths
        spread = g.n * (g.n - 1) * d.diameter
        assert width // 2 < spread.bit_length() <= width
        assert bins // 2 < (g.n * (g.n - 1) // 2).bit_length() <= bins
        evaluated = []
        monkeypatch.setattr(relations, "evaluate", lambda spec, *args: evaluated.append(
            spec.id) or evaluate(spec, *args))
        for budget in (SUBSET_BUDGET_PER_GRAPH, None):
            for spec in catalog():
                got = tally(spec, prof, budget)
                assert got == counted(spec, prof, budget), spec.id
                if spec.id == "R6":
                    assert sum(got[:4]) == (budget or SUBSET_SAMPLE_COUNT)
                    # the whole vertex set, the stream's 964th draw at n = 11
                    assert got[1] == (g.n == 11 and budget is None)
            counts, _ = relations._sampled_sizes(g.n, budget)
            sizes = [k for k, _ in counts if k < g.n]
            assert not relations._r6_open_sizes(d.dist, prof.row_sums, prof.distance_total,
                                                sizes)
        # tally calls evaluate for no relation; the subset lanes ran for the
        # reference count's evaluate only
        assert evaluated == []
        assert set(lane_widths) == {width}

    @pytest.mark.parametrize("budget", [SUBSET_BUDGET_PER_GRAPH, None])
    def test_open_sizes_on_a_lollipop(self, budget, monkeypatch):
        """K27 with a path of 20 attached leaves a sampled size open, and the
        stars with 7 and 9 leaves, enumerated hosts, leave size n - 1 open,
        where S = the leaves is R6's equality (the first 512 subsets on 10
        vertices stop at size 5, so there the star leaves none open). The
        open sizes' subsets, and only those, in stream order, get pair sums
        from the subset lanes, and the counts still equal evaluate's."""
        lollipop = Graph.from_edges(47, [*combinations(range(27), 2),
                                         *((v, v + 1) for v in range(26, 46))])
        original = relations._lane_pair_sums
        read = []

        def recorded(dist, top, total, masks):
            read.extend(masks)
            return original(dist, top, total, masks)

        monkeypatch.setattr(relations, "_lane_pair_sums", recorded)
        spec = relation("R6")
        for g in lollipop, star_graph(7), star_graph(9):
            d = apsp(g)
            prof = profile(g, d)
            expected = counted(spec, prof, budget)
            counts, _ = relations._sampled_sizes(g.n, budget)
            sizes = {k for k, _ in counts if k < g.n}
            open_sizes = relations._r6_open_sizes(d.dist, prof.row_sums, prof.distance_total,
                                                  sorted(sizes))
            if g is lollipop:
                assert open_sizes
            else:
                assert open_sizes == {g.n - 1} & sizes
                assert (g.n - 1 in sizes) == (g.n == 8 or budget is None)
            read.clear()
            assert tally(spec, prof, budget) == expected
            assert read == [mask for members, mask in islice(subset_stream(g.n), budget)
                            if len(members) in open_sizes]

    @pytest.mark.parametrize("budget", [SUBSET_BUDGET_PER_GRAPH, None])
    def test_lanes_transpose_only_the_subsets_read(self, budget, monkeypatch):
        """With the certificate deciding no size, a budgeted tally hands the
        subset lanes only the masks of the first ``budget`` subsets below
        the whole vertex set, and evaluate the whole stream's."""
        g = watts_strogatz_graph(24, 4, 0.1, seed=0)
        prof = profile(g, apsp(g))
        lanes = []
        original = relations._lane_pair_sums
        monkeypatch.setattr(relations, "_lane_pair_sums", lambda dist, top, total, masks: (
            lanes.append(len(masks)) or original(dist, top, total, masks)))
        monkeypatch.setattr(relations, "_r6_open_sizes",
                            lambda dist, row_sums, total, sizes: set(sizes))
        read = budget or SUBSET_SAMPLE_COUNT
        below = sum(count for k, count in relations._sampled_sizes(g.n, budget)[0] if k < g.n)
        assert sum(tally(relation("R6"), prof, budget)[:4]) == read
        assert len(evaluate(relation("R6"), prof)) == SUBSET_SAMPLE_COUNT
        assert lanes == [below, SUBSET_SAMPLE_COUNT]

    def test_violations_on_a_doctored_matrix(self):
        """With d(0, 1) of C33 raised far past the diameter, the subsets
        holding both 0 and 1 violate R6. The count path must see them in
        the matrix it is given, and hand back evaluate's rows, so that the
        miner's witnesses equal evaluate's results."""
        self.assert_counts_doctored_matrix(10 ** 4)

    def test_violations_at_a_distance_of_ten_to_the_twelve(self):
        """The same at d(0, 1) = 10^12: 64-bit subset lanes; a table indexed
        up to the largest distance could not be allocated."""
        self.assert_counts_doctored_matrix(10 ** 12)

    def test_violations_beside_decided_sizes(self):
        """At d(0, 1) = 2000 the certificate still decides the largest
        sampled sizes of C33, while the violations fall in the open ones:
        the counts of both paths add up to evaluate's, and the violated
        rows are evaluate's."""
        g = cycle_graph(33)
        prof = _with_distance(profile(g, apsp(g)), 0, 1, 2000)
        for budget in (SUBSET_BUDGET_PER_GRAPH, None):
            counts, _ = relations._sampled_sizes(g.n, budget)
            sizes = {k for k, _ in counts if k < g.n}
            assert set() < relations._r6_open_sizes(prof.dist, prof.row_sums,
                                                    prof.distance_total, sorted(sizes)) < sizes
        self.assert_counts_doctored_matrix(2000)

    @staticmethod
    def assert_counts_doctored_matrix(far):
        g = cycle_graph(33)
        prof = _with_distance(profile(g, apsp(g)), 0, 1, far)
        spec = relation("R6")
        for budget in (SUBSET_BUDGET_PER_GRAPH, None):
            got = tally(spec, prof, budget)
            assert got[0] > 0 and got[2] > 0
            assert got == counted(spec, prof, budget)
            assert all(row[0][:2] == (0, 1) for _, row in got[4])
            kept = RelationTally()
            kept.keep(spec, got[4], g, 5)
            assert [(w.n, w.edges, w.subject, w.lhs, w.rhs) for w in kept.witnesses] == [
                (g.n, g.edges, r.subject, r.lhs, r.rhs)
                for r in (make_result(spec, status, row) for status, row in got[4][:5])
            ]
            assert len(kept.witnesses) == 5


class TestProperties:
    @given(connected_graphs())
    @settings(max_examples=60)
    def test_r1_identity_everywhere(self, g):
        for r in evaluate_all(g, ["R1"]):
            assert r.status in (EQUALITY, SKIPPED)

    @given(connected_graphs())
    @settings(max_examples=60)
    def test_r8_identity_everywhere(self, g):
        assert single(g, "R8").status == EQUALITY

    @given(connected_graphs())
    @settings(max_examples=60)
    def test_r3_identity_everywhere(self, g):
        assert all(r.status == EQUALITY for r in evaluate_all(g, ["R3"]))

    @given(connected_graphs(max_n=6))
    @settings(max_examples=60)
    def test_r10_equality_iff_geodetic(self, g):
        geodetic = profile(g).geodetic
        r10 = single(g, "R10")
        r10b = single(g, "R10b")
        if geodetic:
            assert r10.status == EQUALITY and r10b.status == EQUALITY
        else:
            assert r10.status == SKIPPED and r10b.status == HOLDS and r10b.slack > 0

    @given(connected_graphs(max_n=6))
    @settings(max_examples=60)
    def test_inequalities_never_violated(self, g):
        for rid in ("R4", "R5", "R6", "R7", "R10b", "R11", "R11b"):
            for r in evaluate_all(g, [rid]):
                assert r.status != VIOLATED, (rid, g.edges, r)

    @given(connected_graphs(max_n=6))
    @settings(max_examples=40)
    def test_evaluate_is_pure(self, g):
        assert evaluate_all(g) == evaluate_all(g)

    @given(connected_graphs(max_n=6))
    @settings(max_examples=60)
    def test_slack_orientation(self, g):
        for r in evaluate_all(g):
            if r.status == HOLDS:
                assert r.slack > 0
            elif r.status == EQUALITY:
                assert r.slack == 0
            elif r.status == VIOLATED:
                assert r.slack < 0


class TestEvaluateValidation:
    def test_r6_needs_distance_rows(self):
        """A profile built without apsp's rows carries none, and R6, their
        one reader, says so; every other relation reads the profile alone."""
        g = cycle_graph(5)
        prof = profile(g)
        assert prof.dist is None
        for call in (lambda: evaluate(relation("R6"), prof),
                     lambda: tally(relation("R6"), prof, SUBSET_BUDGET_PER_GRAPH)):
            with pytest.raises(ValueError, match="R6 reads the distance rows"):
                call()
        with_rows = profile(g, apsp(g))
        for spec in catalog():
            if spec.id != "R6":
                assert evaluate(spec, prof) == evaluate(spec, with_rows), spec.id

    def test_reads_distance_rows_only_with_r6(self):
        assert relations.reads_distance_rows([relation("R1"), relation("R6")])
        assert not relations.reads_distance_rows(
            [spec for spec in catalog() if spec.id != "R6"])
        assert not relations.reads_distance_rows([])

    def test_needs_two_vertices(self):
        g = Graph.from_edges(1, [])
        with pytest.raises(ValueError):
            evaluate_all(g, ["R8"])

    def test_unknown_relation_id(self):
        with pytest.raises(ValueError):
            evaluate_all(path_graph(3), ["R99"])
