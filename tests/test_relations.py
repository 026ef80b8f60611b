from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

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
    path_graph,
    profile,
    relation,
    star_graph,
)
from centaudit.relations import _closed_neighborhood_radiality, violation_counts
from oracles import r9_rhs, restricted_radiality


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
        def stand_in(g, prof, d):
            yield None, F(lhs), F(rhs), ok

        spec = replace(relation("R7"), sense=sense, evaluator=stand_in)
        g = path_graph(3)
        d = apsp(g)
        (result,) = evaluate(spec, g, profile(g, d), d)
        assert (result.relation_id, result.status) == ("R7", status)
        assert (result.lhs, result.rhs, result.slack) == (F(lhs), F(rhs), F(slack))


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
        spec = relation("R6")
        g = path_graph(3)
        d = apsp(g)
        prof = profile(g, d)
        assert len(evaluate(spec, g, prof, d, max_subjects=2)) == 2

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
        return restricted_radiality(g, i), _closed_neighborhood_radiality(profile(g), i)

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
    def test_needs_two_vertices(self):
        g = Graph.from_edges(1, [])
        with pytest.raises(ValueError):
            evaluate_all(g, ["R8"])

    def test_unknown_relation_id(self):
        with pytest.raises(ValueError):
            evaluate_all(path_graph(3), ["R99"])
