"""Golden output: SHA-256 of fixed CLI documents, recorded before the
subset-view layer was removed. Any refactor must leave these bytes unchanged.

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
}


def _argv_and_stdin(name):
    if name == "mine-n5-json":
        return ["mine", "--n-max", "5", "--format", "json"], ""
    if name == "mine-n5-text":
        return ["mine", "--n-max", "5"], ""
    graph = GRAPHS[name.split("-")[1]]
    return ["check", "-", "--format", "json"], serialize_edge_list(graph)


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

