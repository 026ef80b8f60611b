"""Golden output: SHA-256 of fixed CLI documents. The first six were recorded
before the subset-view layer was removed, the rest before the relation catalog
became the single table of evaluators and comparisons. Any refactor must leave
these bytes unchanged.

The graphs are fed on stdin so that the echoed ``command`` holds no file path.
"""

import hashlib
import io
import sys

import pytest

from centaudit import complete_graph, cycle_graph, serialize_edge_list, star_graph
from centaudit import watts_strogatz_graph
from centaudit.cli import main

GRAPHS = {
    "star3": star_graph(3),
    "cycle5": cycle_graph(5),
    "complete4": complete_graph(4),
    "ws14": watts_strogatz_graph(14, 4, 0.1, seed=0),
}

GOLDEN = {
    "mine-n5-json": "c465db0bd6f0c802c00cb35981de35796362215d16c8541d3a42704e43830035",
    "mine-n5-text": "c2e434e8110143c02fd8761a10f0f8fefa57b9ef96d18a404774fa469cb3f0d4",
    "check-star3-json": "37df1c1f0e1ca9c34eab4bfbf2b908f5dccc62f1b94250ded239d4579a0a02d2",
    "check-cycle5-json": "1d05259d23d5515a8bfdefaa87ebd4c4b50b28e4d6ef787533e864cf7794e6cb",
    "check-complete4-json": "819b92633eed7008158bb06f515c3e8737911233b1692c274a90655ddc0bda24",
    "check-ws14-json": "6111e5cd012fc425ec5e03720363f11f63d678dd836995b415117174458c1974",
    "check-ws14-text": "1760b90f3673484786d3f7cb9f478a66b7eeec0bf4f235da4d2a5c103a58cba1",
    "compute-star3-json": "1a22807088f51d5ae0053a794b04b2f61ce0ff961ba94bdd23b622f64d9533d9",
    "compute-star3-text": "01b35d2324f7eed1cf977f8e6d40783b7a8465c6346eab84a6f8b886f3c6ad96",
    "compute-ws14-json": "91ef53c6fd9e3969f1d3e333ccb9401b0de93160013bc1a19deef72837c76bc0",
    "compute-ws14-text": "7128330cd4e94f074ba599b484f915235611bc2955815938f7d4333efb2969f9",
    # one worker; six trials cover the trial shard and R6's 512-subject budget
    "mine-ws24-json": "0011fcaa42280519dcc1001c32b19703b56424e526bf0c43395de1f6f2cd565b",
}

MINE_ARGV = {
    "n5": ["mine", "--n-max", "5"],
    "ws24": ["mine", "--model", "watts_strogatz", "--n", "24", "--k", "4",
             "--p", "0.1", "--trials", "6", "--seed", "1"],
}


def _argv_and_stdin(name):
    command, subject, fmt = name.split("-")
    tail = ["--format", "json"] if fmt == "json" else []
    if command == "mine":
        return MINE_ARGV[subject] + tail, ""
    return [command, "-"] + tail, serialize_edge_list(GRAPHS[subject])


def document(name):
    """Exit code and output text of the named invocation."""
    argv, stdin = _argv_and_stdin(name)
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        code = main(argv, out=out, err=io.StringIO())
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_document_bytes_unchanged(name):
    code, text = document(name)
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]

