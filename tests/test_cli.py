import io
import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from centaudit import cli, mining
from centaudit.graphs import MODELS
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

    def test_unknown_relation_exit_2(self, star_file):
        code, _, err = run(["check", star_file, "--relations", "R99"])
        assert code == EXIT_USAGE and "unknown relation" in err

    def test_non_audit_violation_exit_4(self, star_file, monkeypatch):
        # proven relations never violate on real graphs; fabricate one result
        # to pin the exit-code contract
        from centaudit.relations import RelationResult

        def fake_evaluate_all(g, relation_ids=None):
            return [RelationResult("R8", None, "violated", F(1), F(2), F(-1))]

        monkeypatch.setattr(cli.rel, "evaluate_all", fake_evaluate_all)
        code, payload = run_json(["check", star_file, "--format", "json"])
        assert code == EXIT_VIOLATION
        assert payload["non_audit_violations"] == 1

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
    ])
    def test_invalid_values_exit_2_before_mining(self, argv, message, monkeypatch):
        # stubs that refuse to work: nothing may be mined, no pool may start
        def refuse(*args, **kwargs):
            raise AssertionError("mining started")

        monkeypatch.setattr(mining, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(mining, "enumerate_connected_range", refuse)
        monkeypatch.setattr(mining, "generate", refuse)
        code, out, err = run(["mine"] + argv)
        assert code == EXIT_USAGE and out == ""
        assert message in err

    def test_sparse_model_retry_error(self):
        code, _, err = run(["mine", "--model", "gnp", "--n", "5", "--p", "0",
                            "--trials", "1"])
        assert code == EXIT_USAGE and "no connected graph" in err


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

    def test_subprocess_byte_identical(self):
        argv = [sys.executable, "-m", "centaudit", "mine", "--n-max", "4",
                "--relations", "R12", "--workers", "2", "--format", "json"]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
