"""The benchmark's correctness gate (``perfbench/gate.py``) keeps its own copies
of the catalog ids and scopes and of R6's subject counts, from which it
derives the subject count every document must report. These tests keep those
copies equal to the library's values, so that the gate checks this program.
``perfbench/`` is only read here, never modified.
"""

import importlib
import sys
from pathlib import Path

import pytest

from centaudit import catalog, graphs, mining, relations

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def gate(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("gate")
    yield module
    sys.modules.pop("gate", None)


def test_subset_counts_match_the_library(gate):
    assert gate.SUBSET_ENUMERATION_MAX_N == graphs.SUBSET_ENUMERATION_MAX_N
    assert gate.SUBSET_SAMPLE_COUNT == graphs.SUBSET_SAMPLE_COUNT
    assert gate.MINER_SUBSET_BUDGET == mining.SUBSET_BUDGET_PER_GRAPH


def test_catalog_ids_and_scopes_match_the_library(gate):
    assert gate.RELATION_IDS == relations.RELATION_IDS
    assert gate.PER_VERTEX == tuple(s.id for s in catalog() if s.scope == relations.PER_VERTEX)
    assert gate.PER_SUBGRAPH == tuple(s.id for s in catalog() if s.scope == relations.PER_SUBGRAPH)
    assert gate.AUDIT_IDS == tuple(s.id for s in catalog() if s.audit)
