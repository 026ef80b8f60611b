"""Golden output: SHA-256 of fixed CLI documents. The first six were recorded
before the subset-view layer was removed, the next seven before the relation
catalog became the single table of evaluators and comparisons, the two
Watts-Strogatz compute documents at n = 150 and 400 before stress moved to
Brandes accumulation, the two-worker n = 6 mining document before R6 moved
to a subset-mask table, the Watts-Strogatz n = 150 check document, whose
1000 sampled R6 subjects span four distance bits, before R6 on sampled hosts
moved to digit rows, and the Watts-Strogatz n = 400 check document (4.3 MB,
R6 on plain bit planes) and the n = 150 check text before JSON documents
were written by the CLI's own renderer instead of ``json.dumps``. The
compute documents of K2 (global clustering undefined) and of a seeded
G(12, 0.3) graph with degrees 1..7 (clustering over six denominators) were
recorded before the profile kept its quantities as integers. The three
random mines of G(40, 0.15), P72 (R6 alone) and WS(73, 4, 0.1) were recorded
before the miner counted R6 on sampled hosts of at most 72 vertices on subset
lanes: the first two on its 16- and 32-bit lanes, the third on the digit
rows just above that bound, which later rose to 149 vertices and put it on
16-bit lanes too. The one-worker n = 6 mining document, and the
n = 7 one (1,866,256 graphs, a few seconds), were recorded before exhaustive
shards evaluated one graph per isomorphism class. The n = 150 and n = 400
check documents' R6 pair sums have since moved to subset lanes, now the only
pair-sum kernel for sampled hosts: the n = 150 one's from digit rows, onto
16-bit pair counts, the n = 400 one's from bit planes. The documents of hosts
with at most 10 vertices were recorded while R6 filled a subset-mask table
by inclusion-exclusion there, which the same lanes, and in the miner the
per-size certificate, have since replaced. The n = 6 mining document with a
witness cap of 1000, whose 108 R12 witnesses all come from labeled copies,
was recorded before a later copy's per-graph witness reused its class's
rows instead of evaluating the copy again. Any refactor must leave these
bytes unchanged.

The graphs are fed on stdin so that the echoed ``command`` holds no file path.
"""

import hashlib
import io
import sys

import pytest

from centaudit import complete_graph, cycle_graph, gnp_graph, path_graph
from centaudit import serialize_edge_list, star_graph, watts_strogatz_graph
from centaudit.cli import main

GRAPHS = {
    "star3": star_graph(3),
    "cycle5": cycle_graph(5),
    "complete4": complete_graph(4),
    "k2": path_graph(2),
    "gnp12": gnp_graph(12, 0.3, seed=5),
    "ws14": watts_strogatz_graph(14, 4, 0.1, seed=0),
    "ws150": watts_strogatz_graph(150, 4, 0.1, seed=0),
    "ws400": watts_strogatz_graph(400, 6, 0.1, seed=0),
}

GOLDEN = {
    "mine-n5-json": "c465db0bd6f0c802c00cb35981de35796362215d16c8541d3a42704e43830035",
    "mine-n5-text": "c2e434e8110143c02fd8761a10f0f8fefa57b9ef96d18a404774fa469cb3f0d4",
    "check-star3-json": "37df1c1f0e1ca9c34eab4bfbf2b908f5dccc62f1b94250ded239d4579a0a02d2",
    "check-cycle5-json": "1d05259d23d5515a8bfdefaa87ebd4c4b50b28e4d6ef787533e864cf7794e6cb",
    "check-complete4-json": "819b92633eed7008158bb06f515c3e8737911233b1692c274a90655ddc0bda24",
    "check-ws14-json": "6111e5cd012fc425ec5e03720363f11f63d678dd836995b415117174458c1974",
    "check-ws14-text": "1760b90f3673484786d3f7cb9f478a66b7eeec0bf4f235da4d2a5c103a58cba1",
    "check-ws150-json": "4a590ef9c2e678c74dc80071b1162057c0dc3d3ef97b9d235da3fc6e301140bd",
    "check-ws150-text": "4dab1e2b9da380dd8cab3d5790047c3937b2fc6c4948e349a44c09608b3273d0",
    "check-ws400-json": "7a07306863e695a067d2ccc9b4fac000c25fcf7e93d5524990230ed007a6e64c",
    "compute-star3-json": "1a22807088f51d5ae0053a794b04b2f61ce0ff961ba94bdd23b622f64d9533d9",
    "compute-star3-text": "01b35d2324f7eed1cf977f8e6d40783b7a8465c6346eab84a6f8b886f3c6ad96",
    "compute-ws14-json": "91ef53c6fd9e3969f1d3e333ccb9401b0de93160013bc1a19deef72837c76bc0",
    "compute-ws14-text": "7128330cd4e94f074ba599b484f915235611bc2955815938f7d4333efb2969f9",
    "compute-ws150-json": "9baf46f301852896f2d00fc9aa82d84c36d1a1211af5346fe53b4e704cf370d6",
    "compute-ws400-json": "8c25b318e174c8c9b0160cd255ae46d46d8f59e9e6fcc075802e826ba85558b1",
    "compute-k2-json": "203ab50c76e29265e3971fe330f9b6c4f8f17ad23d7e5067dec4cd12000e6aab",
    "compute-k2-text": "ffda514c2f32a01b7569191059707ea1645fecd858f902a592709aeccaab9aa7",
    "compute-gnp12-json": "cd5c2fa629adfec375b6bd80e289e7316722d0c697f050d31eadfd083f2203c9",
    "compute-gnp12-text": "cf63026866f40e896809cd109840d20c5735a0c3537c934012e13325c949f167",
    # one worker; six trials cover the trial shard and R6's 512-subject budget
    "mine-ws24-json": "0011fcaa42280519dcc1001c32b19703b56424e526bf0c43395de1f6f2cd565b",
    # every labeled connected graph on up to 6 vertices, one and two shards per n
    "mine-n6-json": "1f64dce07282bb303f9b9bbea3fc69f3989337a1d95c04964b8485e99696a432",
    "mine-n6w2-json": "8406239124d86064bd424cf1ec9b52be4b56dabcb82c450385b493f7623dbd4c",
    # all 108 R12 violations at n <= 6 kept: every labeled copy of a violating
    # class gives a witness
    "mine-n6cap1000-json": "62f529051c3a1502c759b3d157e9716fd8a52759dc2f3f8a873b65661c9673ac",
    "mine-gnp40-json": "7d716f6817ab4f075365a5cf492d781c0a566f66714df2fac318640d441d5e2a",
    "mine-path72-json": "72e392bbc2fae34333407c4bc595caa6456cca032f5eb50a911269f04883b249",
    "mine-ws73-json": "12a995c87c0584fedd833e13c6db2066b8f75adf39883f7a65809bc84280043d",
}

MINE_ARGV = {
    "n5": ["mine", "--n-max", "5"],
    "n6": ["mine", "--n-max", "6"],
    "n6w2": ["mine", "--n-max", "6", "--workers", "2"],
    "n6cap1000": ["mine", "--n-max", "6", "--witness-cap", "1000"],
    "ws24": ["mine", "--model", "watts_strogatz", "--n", "24", "--k", "4",
             "--p", "0.1", "--trials", "6", "--seed", "1"],
    "gnp40": ["mine", "--model", "gnp", "--n", "40", "--p", "0.15", "--trials", "8",
              "--seed", "2"],
    "path72": ["mine", "--model", "path", "--n", "72", "--trials", "1", "--relations", "R6"],
    "ws73": ["mine", "--model", "watts_strogatz", "--n", "73", "--k", "4", "--p", "0.1",
             "--trials", "3", "--seed", "3"],
}


def _argv_and_stdin(name):
    command, subject, fmt = name.split("-")
    tail = ["--format", "json"] if fmt == "json" else []
    if command == "mine":
        return MINE_ARGV[subject] + tail, ""
    return [command, "-"] + tail, serialize_edge_list(GRAPHS[subject])


def run(name, out):
    """Exit code of the named invocation, which writes to ``out``."""
    argv, stdin = _argv_and_stdin(name)
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        return main(argv, out=out, err=io.StringIO())
    finally:
        sys.stdin = saved


def document(name):
    """Exit code and output text of the named invocation."""
    out = io.StringIO()
    return run(name, out), out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_document_bytes_unchanged(name):
    code, text = document(name)
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]


class RecordedWrites:
    """An output that keeps each text passed to its ``write``."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize("name", ["check-ws150-json", "compute-ws150-json", "mine-ws24-json"])
def test_json_document_is_written_as_it_is_laid_out(name):
    """Each command writes its JSON document to the output in pieces, with
    no joined copy of the whole text, and the pieces are the golden bytes."""
    out = RecordedWrites()
    assert run(name, out) == 0
    assert len(out.writes) > 1
    text = "".join(out.writes)
    assert max(map(len, out.writes)) < len(text) // 10
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]


MINE_N7_JSON = "bffa34c5429612aefa3f1566094b34966fcefa03b50c1b16f8c97826582180d8"


def test_mine_n7_document_bytes_unchanged():
    out = io.StringIO()
    assert main(["mine", "--n-max", "7", "--format", "json"], out=out, err=io.StringIO()) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == MINE_N7_JSON
