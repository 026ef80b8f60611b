import dataclasses
import io
import json
import subprocess
import sys
from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from centaudit import cli, gnp_graph, mining, path_graph, profile, star_graph
from centaudit import watts_strogatz_graph
from centaudit.graphs import MODELS, enumerate_connected_range, serialize_edge_list
from centaudit.mining import GeodeticAudit, MiningReport, RelationTally, Witness
from centaudit.relations import (
    EQUALITY,
    HOLDS,
    RELATION_IDS,
    SKIPPED,
    VIOLATED,
    RelationResult,
    evaluate_all,
    relation,
)
from centaudit.cli import (
    EXIT_DISCONNECTED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    format_rational,
    main,
    parse_rational,
)

STAR = "0 1\n0 2\n0 3\n"
P3 = "0 1\n1 2\n"
C4 = "0 1\n1 2\n2 3\n0 3\n"


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, stdout, _ = run(argv)
    doc = json.loads(stdout)
    assert doc["schema_version"] == 1
    assert doc["command"] == list(argv)
    return code, doc["payload"]


def check_document(g, *flags):
    """Exit code and text of ``check - --format json`` on ``g``."""
    stdin, sys.stdin = sys.stdin, io.StringIO(serialize_edge_list(g))
    try:
        code, stdout, _ = run(["check", "-", "--format", "json", *flags])
    finally:
        sys.stdin = stdin
    return code, stdout


def assert_round_trips(doc):
    assert json.dumps(json.loads(doc), indent=2) + "\n" == doc


@pytest.fixture(scope="module")
def small_check_documents():
    """(graph, check document) for every connected graph on up to five
    vertices and for WS(14, 4, 0.1)."""
    graphs = [g for n in range(2, 6) for g in enumerate_connected_range(n, 0, None)]
    graphs.append(watts_strogatz_graph(14, 4, 0.1, seed=0))
    documents = []
    for g in graphs:
        code, doc = check_document(g)
        assert code == EXIT_OK
        documents.append((g, doc))
    return documents


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.edges"
    path.write_text(STAR)
    return str(path)


class TestRationalStrings:
    @pytest.mark.parametrize("value,text", [
        (F(3, 2), "3/2"),
        (F(0), "0/1"),
        (F(-5, 10), "-1/2"),
        (F(13, 16), "13/16"),
    ])
    def test_format(self, value, text):
        assert format_rational(value) == text

    @pytest.mark.parametrize("value", [F(3, 2), F(0), F(-7, 3), F(1)])
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value


class TestLongRationals:
    """An exact side of 5000 digits, past CPython's default limit of 4300
    digits on int-to-str conversion (R7's right side passes it on
    Watts-Strogatz hosts near n = 3600), is written in full by ``check`` in
    both formats and read back by ``parse_rational``. The CLI runs under the
    tightest limit the interpreter accepts, 640 digits, where it has one."""

    NUM = 3**10479  # 5000 digits
    DEN = 3**10479 + 2**64  # coprime to NUM, so lhs is in lowest terms and near 1
    RESULT = RelationResult("R7", None, HOLDS, relation("R7").sense, NUM, DEN, 2, 3)

    @pytest.fixture
    def texts(self, monkeypatch):
        """The lowest-terms strings of lhs, rhs and slack, made with the
        limit lifted; then the limit is set to 640 until the test ends."""
        limit = getattr(sys, "get_int_max_str_digits", None)
        old = limit() if limit else None
        try:
            if limit:
                sys.set_int_max_str_digits(0)
            values = (self.RESULT.lhs, self.RESULT.rhs, self.RESULT.slack)
            texts = [f"{v.numerator}/{v.denominator}" for v in values]
            if limit:
                sys.set_int_max_str_digits(640)
            monkeypatch.setattr(cli.rel, "evaluate_all", lambda g, ids: [self.RESULT])
            yield texts
        finally:
            if limit:
                sys.set_int_max_str_digits(old)

    def test_sizes(self, texts):
        lhs, _, slack = texts
        assert len(lhs.partition("/")[0]) == 5000
        assert len(slack.partition("/")[2]) == 5001

    def test_json_rows(self, texts, star_file):
        code, payload = run_json(["check", star_file, "--format", "json"])
        assert code == EXIT_OK
        (row,) = payload["results"]
        assert [row[side] for side in ("lhs", "rhs", "slack")] == texts
        assert row["lhs_approx"] == float(self.RESULT.lhs)
        assert parse_rational(row["lhs"]) == F(self.NUM, self.DEN)
        assert parse_rational(row["slack"]) == self.RESULT.slack

    def test_text_rows(self, texts, star_file):
        code, out, err = run(["check", star_file])
        assert (code, err) == (EXIT_OK, "")
        lhs, rhs, slack = texts
        assert f"R7 graph: holds lhs={lhs} rhs={rhs} slack={slack}\n" in out

    @pytest.mark.parametrize("sign", [1, -1])
    def test_round_trip(self, texts, sign):
        value = sign * self.RESULT.slack
        text = format_rational(value)
        assert text == ("-" if sign < 0 else "") + texts[2]
        assert parse_rational(text) == value
        assert parse_rational("+" + texts[0]) == self.RESULT.lhs

    def test_json_integers(self, texts):
        """The generic writer takes integers of any length alone and in
        integer lists."""
        digits = texts[0].partition("/")[0]
        assert rendered({"stress": self.NUM, "row": [self.NUM, -self.NUM]}) == (
            '{\n  "stress": ' + digits + ',\n  "row": [\n    ' + digits
            + ",\n    -" + digits + "\n  ]\n}")

    def test_compute_stress(self, texts, star_file, monkeypatch):
        """``compute``'s vertex rows write a stress of any length, in both
        formats."""
        digits = texts[0].partition("/")[0]
        long_stress = dataclasses.replace(profile(star_graph(3)), stress=(self.NUM, 0, 0, 0))
        monkeypatch.setattr(cli, "profile", lambda g: long_stress)
        code, out, _ = run(["compute", star_file, "--format", "json"])
        assert code == EXIT_OK
        assert '"stress": ' + digits + ",\n" in out
        code, out, _ = run(["compute", star_file])
        assert code == EXIT_OK
        assert f" stress={digits} pendant=false " in out

    @pytest.mark.parametrize("text", ["1" * 700 + "x", "1" * 700 + "/-", "--" + "1" * 700])
    def test_long_garbage_is_rejected(self, texts, text):
        with pytest.raises(ValueError):
            parse_rational(text)


class TestCompute:
    def test_star_json_values(self, star_file):
        code, payload = run_json(["compute", star_file, "--format", "json"])
        assert code == EXIT_OK
        assert payload["L"] == "3/2"
        assert payload["C_WS"] == "0/1"
        assert payload["geodetic"] is True
        assert payload["even_cycle_free"] is True
        assert [v["stress"] for v in payload["vertices"]] == [6, 0, 0, 0]
        assert payload["vertices"][0]["complete_neighborhood"] is False
        assert payload["vertices"][1]["pendant"] is True

    def test_triangle_values(self, tmp_path):
        path = tmp_path / "k3.edges"
        path.write_text("0 1\n0 2\n1 2\n")
        code, payload = run_json(["compute", str(path), "--format", "json"])
        assert code == EXIT_OK
        assert payload["L"] == "1/1" and payload["C_WS"] == "1/1"

    def test_path_stress_vector(self, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text(P3)
        _, payload = run_json(["compute", str(path), "--format", "json"])
        assert [v["stress"] for v in payload["vertices"]] == [0, 2, 0]

    def test_text_format(self, star_file):
        code, stdout, _ = run(["compute", star_file])
        assert code == EXIT_OK
        assert "L: 3/2\n" in stdout
        assert "geodetic: true\n" in stdout
        assert "vertex 0: degree=3" in stdout

    def test_rationals_in_json_parse_back(self, star_file):
        _, payload = run_json(["compute", star_file, "--format", "json"])
        assert parse_rational(payload["L"]) == F(3, 2)
        for v in payload["vertices"]:
            assert parse_rational(v["closeness"]) > 0

    def test_documents_lay_out_as_json_dumps(self, monkeypatch):
        """``compute``'s vertex rows are written by a template; its documents
        must still be laid out as ``json.dumps(..., indent=2)`` lays them
        out, on every connected graph with n <= 4 and a few larger ones."""
        graphs = [g for n in range(2, 5) for g in enumerate_connected_range(n, 0, None)]
        graphs += [gnp_graph(60, 0.3, seed=0), path_graph(12), star_graph(9)]
        for g in graphs:
            monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_edge_list(g)))
            code, doc, _ = run(["compute", "-", "--format", "json"])
            assert code == EXIT_OK
            assert_round_trips(doc)

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 0\n")
        code, _, err = run(["compute", str(path)])
        assert code == EXIT_USAGE and "self-loop" in err

    def test_disconnected_exit_3(self, tmp_path):
        path = tmp_path / "disc.edges"
        path.write_text("n 4\n0 1\n2 3\n")
        code, _, err = run(["compute", str(path)])
        assert code == EXIT_DISCONNECTED and "disconnected" in err

    @pytest.mark.parametrize("command", ["compute", "check"])
    def test_huge_header_rejected_before_distance_work(self, command, monkeypatch):
        # n > m + 1 can never be connected; no distance pass may start
        def no_apsp(g):
            raise AssertionError("apsp called on a graph that cannot be connected")

        monkeypatch.setattr(cli, "apsp", no_apsp)
        monkeypatch.setattr(cli.rel, "apsp", no_apsp)
        monkeypatch.setattr(sys, "stdin", io.StringIO("n 1000000000\n0 1\n"))
        code, out, err = run([command, "-"])
        assert code == EXIT_DISCONNECTED and out == ""
        assert "1000000000 vertices but only 1 edges" in err

    def test_missing_file_exit_2(self):
        code, _, _ = run(["compute", "no/such/file.edges"])
        assert code == EXIT_USAGE


class TestCheck:
    def test_c4_r11_equality(self, tmp_path):
        path = tmp_path / "c4.edges"
        path.write_text(C4)
        code, payload = run_json(["check", str(path), "--relations", "R11",
                                  "--format", "json"])
        assert code == EXIT_OK
        (result,) = payload["results"]
        assert result["status"] == "equality"
        assert result["lhs"] == "0/1" and result["rhs"] == "0/1"

    def test_c4_r10_skipped(self, tmp_path):
        path = tmp_path / "c4.edges"
        path.write_text(C4)
        code, payload = run_json(["check", str(path), "--relations", "R10",
                                  "--format", "json"])
        assert code == EXIT_OK
        assert payload["results"][0]["status"] == "skipped-precondition"

    def test_star_r12_audit_violation_exits_zero(self, star_file):
        code, payload = run_json(["check", star_file, "--relations", "R12",
                                  "--format", "json"])
        assert code == EXIT_OK
        (result,) = payload["results"]
        assert result["status"] == "violated"
        assert result["audit"] is True
        assert (result["lhs"], result["rhs"]) == ("1/1", "13/16")
        assert payload["audit_violations"] == 1
        assert payload["non_audit_violations"] == 0

    def test_all_relations_on_star(self, star_file):
        code, payload = run_json(["check", star_file, "--format", "json"])
        assert code == EXIT_OK
        assert payload["non_audit_violations"] == 0

    def test_relation_ids_deduplicated_in_catalog_order(self, star_file):
        code, payload = run_json(["check", star_file, "--relations", "R12,R12,R7",
                                  "--format", "json"])
        assert code == EXIT_OK
        assert [r["relation"] for r in payload["results"]] == ["R7", "R12"]
        assert payload["audit_violations"] == 1

    def test_unknown_relation_exit_2(self, star_file):
        code, _, err = run(["check", star_file, "--relations", "R99"])
        assert code == EXIT_USAGE and "unknown relation" in err

    def test_non_audit_violation_exit_4(self, star_file, monkeypatch):
        # proven relations never violate on real graphs; fabricate one result
        # to pin the exit-code contract
        def fake_evaluate_all(g, relation_ids=None):
            return [RelationResult("R8", None, "violated", "=", 1, 1, 2, 1)]

        monkeypatch.setattr(cli.rel, "evaluate_all", fake_evaluate_all)
        argv = ["check", star_file, "--format", "json"]
        code, payload = run_json(argv)
        assert code == EXIT_VIOLATION
        assert payload["non_audit_violations"] == 1
        assert_round_trips(run(argv)[1])

    def test_text_flags_audit(self, star_file):
        code, stdout, _ = run(["check", star_file, "--relations", "R12"])
        assert code == EXIT_OK
        assert "[audit]" in stdout and "violated" in stdout


class TestMine:
    def test_exhaustive_n4_all(self):
        code, payload = run_json(["mine", "--n-max", "4", "--format", "json"])
        assert code == EXIT_OK
        assert payload["graphs_evaluated"] == 43
        assert payload["non_audit_violations"] == 0
        assert payload["audit_violations"] > 0  # R12 fires

    def test_exhaustive_n5_population(self):
        code, payload = run_json(["mine", "--n-max", "5", "--relations", "R8",
                                  "--format", "json"])
        assert code == EXIT_OK
        assert payload["graphs_evaluated"] == 771
        assert payload["relations"]["R8"]["equality"] == 771

    def test_r12_witnesses_present(self):
        code, payload = run_json(["mine", "--n-max", "4", "--relations", "R12",
                                  "--format", "json"])
        assert code == EXIT_OK
        tally = payload["relations"]["R12"]
        assert tally["violated"] == 7
        assert any(w["edges"] == [[0, 1], [0, 2], [0, 3]] and w["lhs"] == "1/1"
                   and w["rhs"] == "13/16" for w in tally["witnesses"])

    def test_geodetic_audit_in_payload(self):
        _, payload = run_json(["mine", "--n-max", "4", "--relations", "R8",
                               "--format", "json"])
        audit = payload["geodetic_audit"]
        assert audit["ecf_not_geodetic"] == 0
        assert audit["geodetic_not_ecf"] == 1  # K4
        assert audit["geodetic_not_ecf_witnesses"][0]["edges"] == [
            [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_random_mining(self):
        code, payload = run_json(["mine", "--model", "gnp", "--n", "10", "--p", "0.4",
                                  "--trials", "8", "--seed", "7",
                                  "--relations", "R8", "--format", "json"])
        assert code == EXIT_OK
        assert payload["graphs_evaluated"] == 8
        assert payload["relations"]["R8"]["equality"] == 8

    def test_random_mining_seed_defaults_to_zero(self):
        argv = ["mine", "--model", "star", "--leaves", "3", "--trials", "1",
                "--relations", "R8", "--format", "json"]
        _, payload = run_json(argv)
        _, seeded = run_json(argv + ["--seed", "0"])
        assert payload["population"]["seed"] == 0
        assert payload["population"] == seeded["population"]

    def test_both_modes_rejected(self):
        code, _, err = run(["mine", "--n-max", "4", "--model", "gnp", "--n", "5",
                            "--p", "0.5", "--trials", "3"])
        assert code == EXIT_USAGE and "exactly one" in err

    def test_neither_mode_rejected(self):
        code, _, _ = run(["mine"])
        assert code == EXIT_USAGE

    def test_random_without_trials_rejected(self):
        code, _, err = run(["mine", "--model", "gnp", "--n", "5", "--p", "0.5"])
        assert code == EXIT_USAGE and "trials" in err

    @pytest.mark.parametrize("argv,message", [
        (["--n-max", "3", "--witness-cap", "-1", "--relations", "R12"], "witness_cap"),
        (["--n-max", "3", "--workers", "0"], "workers"),
        (["--n-max", "3", "--workers", "-4"], "workers"),
        (["--model", "gnp", "--n", "5", "--p", "0.5", "--trials", "2",
          "--witness-cap", "-1"], "witness_cap"),
        (["--model", "gnp", "--n", "5", "--p", "0.5", "--trials", "2",
          "--workers", "0"], "workers"),
        (["--n-max", "3", "--trials", "5"], "--trials"),
        (["--n-max", "3", "--n", "5"], "no --n"),
        (["--n-max", "3", "--k", "2"], "--k"),
        (["--n-max", "3", "--p", "0.5"], "--p"),
        (["--n-max", "3", "--leaves", "3"], "--leaves"),
        (["--n-max", "3", "--trials", "5", "--p", "0.5"], "--trials, --p"),
        (["--n-max", "3", "--seed", "5", "--relations", "R8"], "--seed"),
        (["--n-max", "3", "--seed", "0"], "--seed"),
        (["--model", "gnp", "--n", "5", "--p", "0.5", "--trials", "2", "--seed", "-1"],
         "seed must be >= 0"),
        (["--n-max", "1"], "Notes on scale"),
        (["--n-max", "8"], "n_max must be in 2..7, got 8"),
        (["--n-max", "8", "--workers", "2"], "Notes on scale"),
    ])
    def test_invalid_values_exit_2_before_mining(self, argv, message, monkeypatch):
        # stubs that refuse to work: nothing may be mined, no child may start
        def refuse(*args, **kwargs):
            raise AssertionError("mining started")

        monkeypatch.setattr(mining, "Process", refuse)
        monkeypatch.setattr(mining, "Pipe", refuse)
        monkeypatch.setattr(mining, "enumerate_connected_range", refuse)
        monkeypatch.setattr(mining, "mask_classes", refuse)
        monkeypatch.setattr(mining, "generate", refuse)
        code, out, err = run(["mine"] + argv)
        assert code == EXIT_USAGE and out == ""
        assert message in err

    def test_sparse_model_retry_error(self):
        code, _, err = run(["mine", "--model", "gnp", "--n", "5", "--p", "0",
                            "--trials", "1"])
        assert code == EXIT_USAGE and "no connected graph" in err


class TestResultFields:
    """Result entries are formatted from the evaluator's integer pairs; read
    back from ``check``'s document, they must be the Fractions
    ``RelationResult`` builds from those pairs."""

    @staticmethod
    def check_fields(results, entries, seen):
        assert len(entries) == len(results)
        for result, entry in zip(results, entries):
            for side, pair in (("lhs", (result.lhs_num, result.lhs_den)),
                               ("rhs", (result.rhs_num, result.rhs_den)),
                               ("slack", result.slack_pair)):
                value = getattr(result, side)
                assert entry[side] == format_rational(value)
                assert entry[f"{side}_approx"] == float(value)
                seen["zero"] |= value == 0
                seen["negative"] |= value < 0
                seen["unreduced"] |= gcd(*pair) != 1

    def test_every_graph_up_to_five_vertices_and_ws14(self, small_check_documents):
        seen = dict.fromkeys(("zero", "negative", "unreduced"), False)
        for g, doc in small_check_documents:
            entries = json.loads(doc)["payload"]["results"]
            self.check_fields(evaluate_all(g), entries, seen)
        assert all(seen.values()), seen


class TestCheckDocumentLayout:
    """``check``'s rows are written straight from its results; the document
    must still be laid out as ``json.dumps(..., indent=2)`` lays it out."""

    def test_every_graph_up_to_five_vertices_and_ws14(self, small_check_documents):
        for _, doc in small_check_documents:
            assert_round_trips(doc)

    @pytest.mark.parametrize("g", [
        watts_strogatz_graph(150, 4, 0.1, seed=0),
        gnp_graph(60, 0.3, seed=0),
        path_graph(12),
    ], ids=["ws150", "gnp60", "P12"])
    def test_larger_hosts(self, g):
        code, doc = check_document(g)
        assert code == EXIT_OK
        assert_round_trips(doc)

    def test_relation_subset(self):
        code, doc = check_document(watts_strogatz_graph(14, 4, 0.1, seed=0),
                                   "--relations", "R12,R6")
        assert code == EXIT_OK
        assert_round_trips(doc)
        assert {r["relation"] for r in json.loads(doc)["payload"]["results"]} == {"R6", "R12"}


def witness_entry(w, sides=True):
    """A witness entry as a dict: the form ``mine`` built before it wrote its
    rows by templates."""
    subject = w.subject
    if subject is not None:
        subject = {"vertex": subject} if isinstance(subject, int) else {"subset": list(subject)}
    entry = {"n": w.n, "edges": [list(edge) for edge in w.edges], "subject": subject}
    if sides:
        for side in ("lhs", "rhs"):
            value = getattr(w, side)
            entry[side] = format_rational(value)
            entry[f"{side}_approx"] = float(value)
    return entry


def mine_document(argv, report):
    """``mine``'s JSON document of ``report`` as ``json.dumps`` lays it out."""
    audit = report.geodetic_audit
    non_audit, audit_violations = report.violations
    payload = {
        "population": report.population,
        "graphs_evaluated": report.graphs_evaluated,
        "witness_cap": report.witness_cap,
        "relations": {rid: {
            "kind": relation(rid).kind,
            "holds": tally.holds,
            "equality": tally.equality,
            "violated": tally.violated,
            "skipped": tally.skipped,
            "witnesses": [witness_entry(w) for w in tally.witnesses],
        } for rid, tally in ((rid, report.tallies[rid]) for rid in report.relation_ids)},
        "geodetic_audit": {
            "graphs": audit.graphs,
            "ecf_and_geodetic": audit.ecf_and_geodetic,
            "geodetic_not_ecf": audit.geodetic_not_ecf,
            "ecf_not_geodetic": audit.ecf_not_geodetic,
            "neither": audit.neither,
            "geodetic_not_ecf_witnesses": [
                witness_entry(w, False) for w in audit.geodetic_not_ecf_witnesses],
            "ecf_not_geodetic_witnesses": [
                witness_entry(w, False) for w in audit.ecf_not_geodetic_witnesses],
        },
        "non_audit_violations": non_audit,
        "audit_violations": audit_violations,
    }
    doc = {"schema_version": 1, "command": argv, "payload": payload}
    return json.dumps(doc, indent=2) + "\n"


def mined_document(argv, report):
    """The document ``mine`` writes for ``argv``, an exhaustive mine, when its
    miner returns ``report``."""
    with mock.patch.object(cli, "mine_exhaustive", lambda *args, **kwargs: report):
        code, out, err = run(argv)
    assert code == (EXIT_OK if report.ok else EXIT_VIOLATION) and err == ""
    return out


MINE_ARGV = ["mine", "--n-max", "4", "--format", "json"]
# a numerator past the interpreter's default int-to-str limit of 4300 digits
LONG_SIDE = F(3**10479, 3**10479 + 2**64)
EXHAUSTIVE = {"kind": "exhaustive", "n_min": 2, "n_max": 4}
C4_EDGES = ((0, 1), (0, 3), (1, 2), (2, 3))
K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class TestMineDocumentLayout:
    """``mine``'s tallies and witnesses are written by row templates; the
    document must still be laid out as ``json.dumps(..., indent=2)`` lays it
    out."""

    def test_every_subject_kind_and_long_side(self):
        witnesses = [
            Witness(4, C4_EDGES, None, F(5, 3), F(-7, 2)),
            Witness(4, C4_EDGES, 2, F(0), F(1)),
            Witness(4, K4_EDGES, (0, 1, 3), LONG_SIDE, -LONG_SIDE),
        ]
        tallies = {"R12": RelationTally(3, 0, 1, 0, witnesses[:1]),
                   "R4": RelationTally(10, 2, 1, 0, witnesses[1:2]),
                   "R6": RelationTally(2**70, 5, 1, 7, witnesses[2:])}
        audit = GeodeticAudit(11, 1, 4, 3, 3, [Witness(4, K4_EDGES, None, F(0), F(0))] * 2,
                              [Witness(4, C4_EDGES, None, F(0), F(0))])
        report = MiningReport(EXHAUSTIVE, ("R12", "R4", "R6"), 16, 11, tallies, audit)
        assert mined_document(MINE_ARGV, report) == mine_document(MINE_ARGV, report)

    def test_long_side_digits(self):
        digits = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
        assert len(format_rational(LONG_SIDE).partition("/")[0]) > digits

    def test_witness_cap_zero(self):
        tallies = {rid: RelationTally(1, 2, 3, 4) for rid in RELATION_IDS}
        report = MiningReport({"kind": "random", "model": "watts_strogatz",
                               "params": {"k": 4, "n": 24, "p": 0.1}, "trials": 6, "seed": 1},
                              RELATION_IDS, 0, 6, tallies, GeodeticAudit(6, 1, 2, 3, 0))
        doc = mined_document(MINE_ARGV, report)
        assert doc == mine_document(MINE_ARGV, report)
        assert '"witnesses": [],' not in doc and '"witnesses": []\n' in doc

    def test_no_relations(self):
        report = MiningReport(EXHAUSTIVE, (), 16, 0, {}, GeodeticAudit())
        doc = mined_document(MINE_ARGV, report)
        assert doc == mine_document(MINE_ARGV, report)
        assert '"relations": {},' in doc

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_json_dumps(self, data):
        draw = data.draw
        count = st.integers(0, 2**70)
        cap = draw(st.integers(0, 3))

        def witnesses(sides):
            @st.composite
            def witness(draw):
                n = draw(st.integers(2, 30))
                vertex = st.integers(0, n - 1)
                edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] < e[1]),
                                      min_size=1, max_size=6, unique=True))
                if not sides:
                    return Witness(n, tuple(sorted(edges)), None, F(0), F(0))
                subject = draw(st.one_of(st.none(), vertex, st.lists(
                    vertex, min_size=2, max_size=n, unique=True).map(lambda s: tuple(sorted(s)))))
                lhs, rhs = (F(*draw(RATIONAL_PAIRS)) for _ in range(2))
                return Witness(n, tuple(sorted(edges)), subject, lhs, rhs)
            return st.lists(witness(), max_size=cap)

        ids = tuple(draw(st.lists(st.sampled_from(RELATION_IDS), unique=True)))
        tallies = {rid: RelationTally(*(draw(count) for _ in range(4)), draw(witnesses(True)))
                   for rid in ids}
        audit = GeodeticAudit(*(draw(count) for _ in range(5)),
                              draw(witnesses(False)), draw(witnesses(False)))
        report = MiningReport(EXHAUSTIVE, ids, cap, draw(count), tallies, audit)
        assert mined_document(MINE_ARGV, report) == mine_document(MINE_ARGV, report)


def result_entry(result):
    """A result entry as a dict, laid out by the generic writer below: the
    form ``check`` built before it wrote its rows itself."""
    spec = relation(result.relation_id)
    subject = result.subject
    if subject is not None:
        subject = {"vertex": subject} if isinstance(subject, int) else {"subset": list(subject)}
    entry = {"relation": spec.id, "kind": spec.kind, "audit": spec.audit,
             "subject": subject, "status": result.status}
    for side in ("lhs", "rhs", "slack"):
        value = getattr(result, side)
        entry[side] = format_rational(value)
        entry[f"{side}_approx"] = float(value)
    return entry


RATIONAL_INTS = st.one_of(st.integers(-60, 60), st.integers(2**64, 2**200),
                          st.integers(-(2**200), -(2**64)))
# the scale makes a pair unreduced
RATIONAL_PAIRS = st.tuples(RATIONAL_INTS, RATIONAL_INTS.filter(bool),
                           st.sampled_from([1, 1, 2, 6, 2**70])).map(
    lambda t: (t[0] * t[2], t[1] * t[2]))


@st.composite
def result_lists(draw):
    """(n, results) for a graph of n vertices, every catalog id among them."""
    n = draw(st.integers(2, 200))
    vertex = st.integers(0, n - 1)
    subject = st.one_of(
        st.none(), vertex,
        st.lists(vertex, min_size=2, max_size=min(150, n), unique=True).map(
            lambda s: tuple(sorted(s))),
    )
    extra = draw(st.lists(st.sampled_from(RELATION_IDS), max_size=8))
    ids = draw(st.permutations(list(RELATION_IDS) + extra))
    status = st.sampled_from([HOLDS, EQUALITY, VIOLATED, SKIPPED])
    return n, [RelationResult(rid, draw(subject), draw(status), relation(rid).sense,
                              *draw(RATIONAL_PAIRS), *draw(RATIONAL_PAIRS))
               for rid in ids]


class TestResultRows:
    @given(result_lists(), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    @example((3, []), 2)
    def test_matches_generic_writer(self, case, depth):
        n, results = case
        pad = "  " * depth
        parts = []
        cli._result_rows(results, n, pad, parts.append)
        assert "".join(parts) == rendered([result_entry(r) for r in results], pad)


SPECIAL_STRINGS = ["", "\"", "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "ñ€😀",
                   "\u2028", "\ud800", "a\"b\\c/d"]
SPECIAL_FLOATS = [-0.0, 0.0, 1e-7, 1e22, 1e16, 0.1, -2.5, float("nan"),
                  float("inf"), float("-inf"), 5e-324, 1.7976931348623157e308]
BIG_INTS = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200),
                     st.integers(max_value=-(2**64)))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), BIG_INTS, st.floats(), st.sampled_from(SPECIAL_FLOATS),
    st.text(), st.sampled_from(SPECIAL_STRINGS),
)
JSON_KEYS = st.one_of(st.text(), st.sampled_from(SPECIAL_STRINGS))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(BIG_INTS, max_size=5),
        st.lists(BIG_INTS, max_size=5).map(tuple),
        st.dictionaries(JSON_KEYS, inner, max_size=5),
    ),
    max_leaves=40,
)


def rendered(value, pad=""):
    parts = []
    cli._write_json(value, pad, parts.append)
    return "".join(parts)


class TestJsonRenderer:
    @given(JSON_VALUES)
    @settings(max_examples=300)
    @example({"a": [], "b": {}, "c": (), "d": [1, -2, 2**70], "e": [True, 1, None]})
    @example([[], {}, [[]], {"": {"": []}}, (1, (2, 3)), [0.0, -0.0, 1]])
    @example({"s": SPECIAL_STRINGS, "f": SPECIAL_FLOATS, "k": {s: s for s in SPECIAL_STRINGS}})
    def test_matches_json_dumps(self, value):
        assert rendered(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, {"a": [{True: 1}]},
                                       {("a",): 1}])
    def test_non_str_key_raises(self, value):
        with pytest.raises(TypeError):
            rendered(value)

    @pytest.mark.parametrize("value", [F(1, 2), {"a": {1, 2}}, [b"x"], {"a": [1, object()]},
                                       {"a": [1, 1.5, F(1)]}])
    def test_unsupported_type_raises(self, value):
        with pytest.raises(TypeError):
            rendered(value)

    def test_escaped_command_end_to_end(self, tmp_path):
        path = tmp_path / 'ñ "star".edges'
        path.write_text(STAR)
        argv = ["check", str(path), "--format", "json"]
        code, stdout, _ = run(argv)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["command"] == argv
        assert stdout == json.dumps(doc, indent=2) + "\n"
        assert json.dumps(str(path)) in stdout
        assert '\\u00f1 \\"star\\".edges' in stdout


class TestGen:
    def test_star_stdout(self):
        code, stdout, _ = run(["gen", "--model", "star", "--leaves", "3"])
        assert code == EXIT_OK
        assert stdout == "0 1\n0 2\n0 3\n"

    def test_cycle_sorted_edges(self):
        code, stdout, _ = run(["gen", "--model", "cycle", "--n", "5"])
        assert code == EXIT_OK
        assert stdout == "0 1\n0 4\n1 2\n2 3\n3 4\n"

    def test_ws_ring_lattice(self):
        code, stdout, _ = run(["gen", "--model", "watts_strogatz", "--n", "10",
                               "--k", "4", "--p", "0", "--seed", "1"])
        assert code == EXIT_OK
        lines = stdout.strip().split("\n")
        assert len(lines) == 20  # n * k / 2 edges
        degree = [0] * 10
        for line in lines:
            u, v = map(int, line.split())
            degree[u] += 1
            degree[v] += 1
        assert set(degree) == {4}

    def test_output_file_round_trips(self, tmp_path):
        target = tmp_path / "out.edges"
        code, _, _ = run(["gen", "--model", "complete", "--n", "4", str(target)])
        assert code == EXIT_OK
        code2, payload = run_json(["compute", str(target), "--format", "json"])
        assert code2 == EXIT_OK
        assert payload["L"] == "1/1"

    def test_gen_compute_pipeline_reproduces_star_values(self, tmp_path):
        target = tmp_path / "star.edges"
        run(["gen", "--model", "star", "--leaves", "3", str(target)])
        _, payload = run_json(["compute", str(target), "--format", "json"])
        assert payload["L"] == "3/2"
        assert payload["C_WS"] == "0/1"
        assert payload["geodetic"] is True
        assert payload["vertices"][0]["stress"] == 6

    def test_invalid_params_exit_2(self):
        code, _, _ = run(["gen", "--model", "cycle", "--n", "2"])
        assert code == EXIT_USAGE
        code, _, _ = run(["gen", "--model", "star", "--n", "4"])
        assert code == EXIT_USAGE  # star takes --leaves, not --n

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_every_model_accepted(self, model):
        flags = {"n": ["--n", "6"], "leaves": ["--leaves", "5"], "k": ["--k", "2"],
                 "p": ["--p", "0.5"]}
        argv = ["gen", "--model", model, "--seed", "1"]
        for name in MODELS[model][1]:
            argv += flags[name]
        code, stdout, _ = run(argv)
        assert code == EXIT_OK and stdout

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["gen", "--model", "star", "--bogus", "1"])
        assert excinfo.value.code == 2

    def test_negative_seed_exits_2(self):
        # Random(-3) draws the stream of Random(3); a negative seed is refused
        code, stdout, err = run(["gen", "--model", "gnp", "--n", "8", "--p", "0.4",
                                 "--seed", "-3"])
        assert code == EXIT_USAGE and stdout == ""
        assert "seed must be >= 0" in err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["compute", "-", "--format", "json"],
        ["check", "-", "--format", "json"],
        ["check", "-", "--format", "text"],
    ])
    def test_stdin_commands_byte_identical(self, argv, monkeypatch):
        outputs = []
        for _ in range(2):
            monkeypatch.setattr(sys, "stdin", io.StringIO(STAR))
            outputs.append(run(argv))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", [
        ["mine", "--n-max", "4", "--format", "json"],
        ["mine", "--n-max", "4", "--format", "text"],
        ["mine", "--n-max", "4", "--workers", "2", "--format", "json"],
        ["mine", "--model", "gnp", "--n", "9", "--p", "0.5", "--trials", "10",
         "--seed", "7", "--format", "json"],
        ["gen", "--model", "watts_strogatz", "--n", "12", "--k", "4", "--p", "0.3",
         "--seed", "9"],
    ])
    def test_repeat_invocations_byte_identical(self, argv):
        assert run(argv) == run(argv)

    def test_workers_do_not_change_payload(self):
        argv = ["mine", "--n-max", "4", "--relations", "R10,R12", "--format", "json"]
        _, single = run_json(argv)
        _, multi = run_json(argv + ["--workers", "2"])
        assert single == multi

    def test_one_parser_serves_every_call(self, src_env, monkeypatch, capsys):
        """In one process, a usage error, ``--help`` and then a call of each
        command give the bytes and exit codes of separate processes."""
        calls = [  # (argv, stdin, exit code)
            (["mine", "--n-max", "3", "--bogus"], "", EXIT_USAGE),
            (["--help"], "", EXIT_OK),
            (["compute", "-", "--format", "json"], STAR, EXIT_OK),
            (["check", "-"], C4, EXIT_OK),
            (["mine", "--n-max", "4", "--relations", "R11,R12"], "", EXIT_OK),
            (["gen", "--model", "cycle", "--n", "5"], "", EXIT_OK),
        ]
        monkeypatch.setenv("COLUMNS", "80")  # the help text's width
        env = {**src_env, "COLUMNS": "80"}
        for argv, stdin, expected in calls:
            alone = subprocess.run([sys.executable, "-m", "centaudit", *argv], input=stdin,
                                   capture_output=True, text=True, env=env)
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (
                alone.returncode, alone.stdout, alone.stderr), argv
            assert code == expected and captured.out + captured.err

    def test_subprocess_byte_identical(self, src_env):
        argv = [sys.executable, "-m", "centaudit", "mine", "--n-max", "4",
                "--relations", "R12", "--workers", "2", "--format", "json"]
        first = subprocess.run(argv, capture_output=True, env=src_env)
        second = subprocess.run(argv, capture_output=True, env=src_env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
