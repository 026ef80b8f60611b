"""Acceptance suite.

Each test enforces one release criterion at its exact tolerance (everything is
exact rational arithmetic, so the tolerance is zero throughout) and prints one
``ACCEPTANCE <k> <name>: PASS/FAIL`` line. Run with ``pytest -s`` to see the
lines as they happen. The exhaustive criteria walk every labeled connected
graph on up to 6 vertices and take a couple of minutes in total.
"""

import io
import json
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from centaudit import (
    EQUALITY,
    SKIPPED,
    VIOLATED,
    apsp,
    complete_graph,
    cycle_graph,
    enumerate_connected,
    evaluate,
    is_even_cycle_free,
    make_result,
    mine_exhaustive,
    profile,
    relation,
    star_graph,
    stress,
)
from centaudit.cli import main as cli_main
from oracles import brute_force_geodetic, brute_force_stress, has_even_cycle

TWELVE_PROVED = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R10", "R10b", "R11", "R11b")

EXHAUSTIVE_RUNTIME_BUDGET_SECONDS = 300.0


def results(spec, prof):
    """One RelationResult per outcome of ``evaluate``."""
    return [make_result(spec, status, row) for status, row in evaluate(spec, prof)]


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_star_reproduction():
    with criterion(1, "star reproduction"):
        for leaves in range(3, 7):
            prof = profile(star_graph(leaves))
            assert prof.avg_path_length == F(2 * leaves, leaves + 1)
            assert prof.average_clustering == F(0)
            assert prof.stress[0] == leaves * (leaves - 1)
            assert all(s == 0 for s in prof.stress[1:])
            assert prof.geodetic


def test_criterion_2_exhaustive_soundness():
    with criterion(2, "exhaustive soundness n<=6"):
        started = time.perf_counter()
        report = mine_exhaustive(6, relation_ids=TWELVE_PROVED)
        elapsed = time.perf_counter() - started
        assert report.graphs_evaluated == 1 + 4 + 38 + 728 + 26704
        for rid in TWELVE_PROVED:
            assert report.tallies[rid].violated == 0, rid
        assert report.ok
        assert elapsed < EXHAUSTIVE_RUNTIME_BUDGET_SECONDS, f"{elapsed:.1f}s over budget"
        print(f"  (mine_exhaustive n_max=6, 12 relations: {elapsed:.1f}s)")


@dataclass
class SweepFacts:
    graphs: int = 0
    geodetic: int = 0
    geodetic_flag_mismatches: int = 0
    r10_census_mismatches: int = 0
    r10b_slack_mismatches: int = 0
    diam2_pendant_free: int = 0
    r11_diam2_failures: int = 0


@pytest.fixture(scope="module")
def sweep6():
    """One pass over every labeled connected graph with 2..6 vertices."""
    facts = SweepFacts()
    r10, r10b, r11 = relation("R10"), relation("R10b"), relation("R11")
    for n in range(2, 7):
        for g in enumerate_connected(n):
            facts.graphs += 1
            prof = profile(g)
            if prof.geodetic != brute_force_geodetic(g):
                facts.geodetic_flag_mismatches += 1
            if prof.geodetic:
                facts.geodetic += 1
            (res10,) = results(r10, prof)
            (res10b,) = results(r10b, prof)
            if prof.geodetic:
                if res10.status != EQUALITY or res10b.status != EQUALITY:
                    facts.r10_census_mismatches += 1
            else:
                if res10.status != SKIPPED or res10.lhs == res10.rhs:
                    facts.r10_census_mismatches += 1
                if not res10b.slack > 0:
                    facts.r10b_slack_mismatches += 1
            if not any(prof.pendant) and prof.diameter == 2:
                facts.diam2_pendant_free += 1
                (res11,) = results(r11, prof)
                if res11.status != EQUALITY:
                    facts.r11_diam2_failures += 1
    return facts


def test_criterion_3_geodetic_identity_census(sweep6):
    with criterion(3, "geodetic stress identity census n<=6"):
        assert sweep6.graphs == 27475
        assert sweep6.geodetic_flag_mismatches == 0  # library vs path enumeration
        assert sweep6.r10_census_mismatches == 0
        assert sweep6.r10b_slack_mismatches == 0
        print(f"  (geodetic graphs: {sweep6.geodetic} of {sweep6.graphs})")


def test_criterion_4_diameter_two_equality(sweep6):
    with criterion(4, "diameter-2 pendant-free equality"):
        assert sweep6.diam2_pendant_free > 0
        assert sweep6.r11_diam2_failures == 0
        # named fixture: the 4-cycle sits exactly on the bound
        c4 = cycle_graph(4)
        (res,) = results(relation("R11"), profile(c4))
        assert res.status == EQUALITY
        assert res.lhs == res.rhs == F(0)
        print(f"  (pendant-free diameter-2 graphs: {sweep6.diam2_pendant_free})")


def test_criterion_5_audit_findings():
    with criterion(5, "audit findings (R12 star, R9 population)"):
        star = star_graph(3)
        (res,) = results(relation("R12"), profile(star))
        assert res.status == VIOLATED
        assert res.lhs == F(1) and res.rhs == F(13, 16)
        assert relation("R12").audit

        # the finding is surfaced as an audit flag and exits 0 end to end
        out = io.StringIO()
        old_stdin = sys.stdin
        sys.stdin = io.StringIO("0 1\n0 2\n0 3\n")
        try:
            code = cli_main(
                ["check", "-", "--relations", "R12", "--format", "json"], out=out
            )
        finally:
            sys.stdin = old_stdin
        payload = json.loads(out.getvalue())["payload"]
        assert code == 0
        assert payload["results"][0]["status"] == "violated"
        assert payload["results"][0]["audit"] is True

        # R9 stays clean on every graph with up to 5 vertices; if that ever
        # changes the witnesses must replay
        report = mine_exhaustive(5, relation_ids=("R9",))
        assert report.tallies["R9"].violated == 0
        for witness in report.tallies["R9"].witnesses:
            g = witness.graph()
            (replayed,) = results(relation("R9"), profile(g))
            assert replayed.status == VIOLATED
            assert (replayed.lhs, replayed.rhs) == (witness.lhs, witness.rhs)


def test_criterion_5_cli_stdin_variant(tmp_path):
    # companion to criterion 5: same audit finding through a file input
    path = tmp_path / "star.edges"
    path.write_text("0 1\n0 2\n0 3\n")
    out = io.StringIO()
    code = cli_main(["check", str(path), "--relations", "R12", "--format", "json"],
                    out=out)
    payload = json.loads(out.getvalue())["payload"]
    assert code == 0
    assert payload["audit_violations"] == 1


def test_criterion_6_predicate_implication():
    with criterion(6, "even-cycle-free vs geodetic implication n<=6"):
        report = mine_exhaustive(6, relation_ids=())
        audit = report.geodetic_audit
        assert audit.graphs == 27475
        assert audit.ecf_not_geodetic == 0
        assert audit.ecf_not_geodetic_witnesses == []
        assert audit.geodetic_not_ecf > 0
        k4 = complete_graph(4)
        assert any(
            (w.n, w.edges) == (k4.n, k4.edges)
            for w in audit.geodetic_not_ecf_witnesses
        )
        print(
            f"  (ecf&geodetic={audit.ecf_and_geodetic} "
            f"geodetic-only={audit.geodetic_not_ecf} neither={audit.neither})"
        )


def test_criterion_7_oracle_equivalence():
    with criterion(7, "stress and even-cycle oracles n<=5"):
        checked = 0
        for n in range(2, 6):
            for g in enumerate_connected(n):
                d = apsp(g)
                assert list(stress(g, d)) == brute_force_stress(g)
                assert is_even_cycle_free(g) == (not has_even_cycle(g))
                checked += 1
        assert checked == 771


def test_criterion_8_determinism(tmp_path, src_env):
    with criterion(8, "byte-identical command output"):
        star_path = tmp_path / "star.edges"
        star_path.write_text("0 1\n0 2\n0 3\n")

        def run(argv):
            out = io.StringIO()
            code = cli_main(argv, out=out)
            return code, out.getvalue()

        commands = [
            ["compute", str(star_path), "--format", "json"],
            ["compute", str(star_path), "--format", "text"],
            ["check", str(star_path), "--format", "json"],
            ["mine", "--n-max", "4", "--format", "json"],
            ["mine", "--n-max", "4", "--workers", "2", "--format", "json"],
            ["mine", "--model", "watts_strogatz", "--n", "14", "--k", "4",
             "--p", "0.2", "--trials", "6", "--seed", "3", "--format", "json"],
            ["gen", "--model", "gnp", "--n", "10", "--p", "0.4", "--seed", "5"],
        ]
        for argv in commands:
            assert run(argv) == run(argv), argv

        # multi-worker mining is also stable across whole processes
        argv = [sys.executable, "-m", "centaudit", "mine", "--n-max", "4",
                "--workers", "2", "--format", "json"]
        first = subprocess.run(argv, capture_output=True, env=src_env)
        second = subprocess.run(argv, capture_output=True, env=src_env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
