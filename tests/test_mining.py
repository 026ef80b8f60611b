from fractions import Fraction as F

import pytest

from centaudit import mining
from centaudit import (
    EQUALITY,
    VIOLATED,
    ConnectivityRetryError,
    Graph,
    apsp,
    complete_graph,
    cycle_graph,
    equality_census,
    evaluate,
    mine_exhaustive,
    mine_random,
    path_graph,
    profile,
    relation,
    star_graph,
)

TWELVE_PROVED = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R10", "R10b", "R11", "R11b")


def report_fingerprint(report):
    """Everything that must be reproducible (wall-clock time excluded)."""
    return (
        report.population,
        report.relation_ids,
        report.graphs_evaluated,
        {rid: (t.holds, t.equality, t.violated, t.skipped, tuple(t.witnesses))
         for rid, t in report.tallies.items()},
        (
            report.geodetic_audit.graphs,
            report.geodetic_audit.ecf_and_geodetic,
            report.geodetic_audit.geodetic_not_ecf,
            report.geodetic_audit.ecf_not_geodetic,
            report.geodetic_audit.neither,
            tuple(report.geodetic_audit.geodetic_not_ecf_witnesses),
            tuple(report.geodetic_audit.ecf_not_geodetic_witnesses),
        ),
    )


def replay(relation_id, witness):
    """Re-run one relation on a witness graph and return the matching result."""
    g = witness.graph()
    d = apsp(g)
    prof = profile(g, d)
    for result in evaluate(relation(relation_id), g, prof, d):
        if result.subject == witness.subject:
            return result
    raise AssertionError(f"subject {witness.subject} not found on replay")


class TestMineExhaustive:
    def test_population_size_at_n5(self):
        report = mine_exhaustive(5, relation_ids=("R8",))
        assert report.graphs_evaluated == 1 + 4 + 38 + 728
        assert report.tallies["R8"].equality == 771

    def test_proved_relations_have_no_violations_n5(self):
        report = mine_exhaustive(5, relation_ids=TWELVE_PROVED)
        assert report.non_audit_violations == 0
        assert report.ok

    def test_r10_equality_exactly_on_geodetic_graphs(self):
        report = mine_exhaustive(4, relation_ids=("R10",))
        geodetic = report.geodetic_audit.ecf_and_geodetic + report.geodetic_audit.geodetic_not_ecf
        tally = report.tallies["R10"]
        assert tally.equality == geodetic
        assert tally.violated == 0
        assert tally.skipped == report.graphs_evaluated - geodetic

    def test_r12_star_witness_found(self):
        report = mine_exhaustive(4, relation_ids=("R12",))
        assert relation("R12").audit
        assert report.tallies["R12"].violated > 0
        assert report.ok  # audit violations never hard-fail
        star = star_graph(3)
        matches = [
            w for w in report.tallies["R12"].witnesses
            if (w.n, w.edges) == (star.n, star.edges)
        ]
        assert matches and matches[0].lhs == F(1) and matches[0].rhs == F(13, 16)

    def test_witness_cap_bounds_list_not_tally(self):
        capped = mine_exhaustive(4, relation_ids=("R12",), witness_cap=2)
        full = mine_exhaustive(4, relation_ids=("R12",), witness_cap=100)
        assert len(capped.tallies["R12"].witnesses) == 2
        assert capped.tallies["R12"].violated == full.tallies["R12"].violated == 7

    def test_witnesses_replay_to_violations(self):
        report = mine_exhaustive(4, relation_ids=("R12",))
        for witness in report.tallies["R12"].witnesses:
            result = replay("R12", witness)
            assert result.status == VIOLATED
            assert (result.lhs, result.rhs) == (witness.lhs, witness.rhs)

    def test_determinism(self):
        a = mine_exhaustive(4)
        b = mine_exhaustive(4)
        assert report_fingerprint(a) == report_fingerprint(b)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_partition_soundness(self, workers):
        single = mine_exhaustive(4, relation_ids=("R1", "R10", "R12"))
        multi = mine_exhaustive(4, relation_ids=("R1", "R10", "R12"), workers=workers)
        assert report_fingerprint(single) == report_fingerprint(multi)

    def test_tallies_cover_all_subjects(self):
        report = mine_exhaustive(4)
        for rid in ("R2", "R7", "R8", "R10", "R10b", "R11", "R11b", "R12", "R9"):
            assert report.tallies[rid].subjects == report.graphs_evaluated

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            mine_exhaustive(1)
        with pytest.raises(ValueError):
            mine_exhaustive(9)

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            mine_exhaustive(3, relation_ids=("R99",))


class TestMineRandom:
    def test_identities_hold_on_gnp(self):
        report = mine_random("gnp", {"n": 12, "p": 0.4}, trials=25, seed=7,
                             relation_ids=("R8",))
        assert report.graphs_evaluated == 25
        assert report.tallies["R8"].equality == 25

    def test_stress_bound_on_watts_strogatz(self):
        report = mine_random("watts_strogatz", {"n": 20, "k": 4, "p": 0.1},
                             trials=20, seed=11, relation_ids=("R10b",))
        assert report.tallies["R10b"].violated == 0

    def test_proved_relations_on_gnp(self):
        report = mine_random("gnp", {"n": 8, "p": 0.5}, trials=50, seed=3,
                             relation_ids=("R7", "R4", "R11b"))
        assert report.non_audit_violations == 0

    def test_determinism_and_worker_independence(self):
        kwargs = dict(trials=12, seed=5, relation_ids=("R8", "R10b"))
        a = mine_random("gnp", {"n": 9, "p": 0.45}, **kwargs)
        b = mine_random("gnp", {"n": 9, "p": 0.45}, **kwargs)
        c = mine_random("gnp", {"n": 9, "p": 0.45}, workers=2, **kwargs)
        assert report_fingerprint(a) == report_fingerprint(b) == report_fingerprint(c)

    def test_different_seeds_differ(self):
        a = mine_random("gnp", {"n": 10, "p": 0.5}, trials=5, seed=1, relation_ids=("R8",))
        b = mine_random("gnp", {"n": 10, "p": 0.5}, trials=5, seed=2, relation_ids=("R8",))
        assert report_fingerprint(a) != report_fingerprint(b)

    def test_retry_cap_exhausted(self):
        with pytest.raises(ConnectivityRetryError):
            mine_random("gnp", {"n": 4, "p": 0.0}, trials=1, seed=0, retry_cap=10)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            mine_random("gnp", {"n": 4, "p": 0.5}, trials=0)


class TestWorkerBound:
    """``workers`` is capped at the CPU count; an in-process stand-in for the
    process pool records the requested size, so no process is started."""

    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                sizes.append(len(tasks))
                return map(fn, tasks)

        monkeypatch.setattr(mining, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(mining.os, "cpu_count", lambda: 2)
        return sizes

    def test_exhaustive_clamped(self, pools):
        report = mine_exhaustive(3, workers=10**6)
        # pool size 2, then 2 chunks for each of n = 2 and n = 3
        assert pools == [2, 4]
        assert report_fingerprint(report) == report_fingerprint(mine_exhaustive(3))

    def test_random_clamped(self, pools):
        report = mine_random("gnp", {"n": 5, "p": 0.6}, trials=6, workers=10**6)
        assert pools == [2, 2]
        single = mine_random("gnp", {"n": 5, "p": 0.6}, trials=6)
        assert report_fingerprint(report) == report_fingerprint(single)


class TestLimits:
    """Out-of-range budgets raise ValueError before any graph is mined; the
    pool, the enumerator and the generator are stubs that refuse to work, so
    nothing is started."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mining started")

        monkeypatch.setattr(mining, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(mining, "enumerate_connected_range", refuse)
        monkeypatch.setattr(mining, "generate", refuse)

    @pytest.mark.parametrize("kwargs,message", [
        ({"witness_cap": -1}, "witness_cap"),
        ({"workers": 0}, "workers"),
        ({"workers": -4}, "workers"),
    ])
    def test_exhaustive(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            mine_exhaustive(3, **kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"witness_cap": -1}, "witness_cap"),
        ({"workers": 0}, "workers"),
        ({"workers": -4}, "workers"),
        ({"retry_cap": 0}, "retry_cap"),
        ({"retry_cap": -3}, "retry_cap"),
        ({"retry_cap": (1 << 20) + 1}, "retry_cap"),
    ])
    def test_random(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            mine_random("gnp", {"n": 5, "p": 0.6}, trials=2, **kwargs)


class TestGeodeticAudit:
    def test_k4_is_a_witness_at_n4(self):
        report = mine_exhaustive(4, relation_ids=())
        k4 = complete_graph(4)
        assert report.geodetic_audit.ecf_not_geodetic == 0
        found = [
            w for w in report.geodetic_audit.geodetic_not_ecf_witnesses
            if (w.n, w.edges) == (k4.n, k4.edges)
        ]
        assert found

    def test_no_counterexamples_at_n3(self):
        report = mine_exhaustive(3, relation_ids=())
        assert report.geodetic_audit.graphs == 5
        assert report.geodetic_audit.geodetic_not_ecf == 0
        assert report.geodetic_audit.ecf_not_geodetic == 0
        assert report.geodetic_audit.ecf_and_geodetic == 5

    def test_tallies_empty_without_relations(self):
        report = mine_exhaustive(3, relation_ids=())
        assert report.relation_ids == ()
        assert report.tallies == {}


class TestEqualityCensus:
    def test_r11_census_includes_c4(self):
        entries = list(equality_census("R11", 4))
        assert (cycle_graph(4), None) in entries
        assert len(entries) == 11  # K3 plus the pendant-free diameter-2 graphs on 4 vertices

    def test_r4_census_at_n3_is_path_centers(self):
        entries = list(equality_census("R4", 3))
        assert (path_graph(3), 1) in entries
        assert all(g.m == 2 for g, _ in entries)  # only paths are tight at n=3
        assert len(entries) == 3

    def test_r8_census_covers_every_graph(self):
        assert sum(1 for _ in equality_census("R8", 3)) == 5

    def test_census_entries_replay(self):
        for g, subject in equality_census("R11", 4):
            d = apsp(g)
            prof = profile(g, d)
            results = [r for r in evaluate(relation("R11"), g, prof, d)
                       if r.subject == subject]
            assert results and results[0].status == EQUALITY

    def test_census_bounds(self):
        with pytest.raises(ValueError):
            list(equality_census("R8", 8))
        with pytest.raises(ValueError):
            list(equality_census("R99", 4))
