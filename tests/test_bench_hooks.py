"""The benchmark's tracer wraps program functions at the module attributes
their callers look them up by (``perfbench/spans.py``). These tests keep those
hooks live: every wrapped attribute must exist and be callable, a traced
``compute`` must report the stress layer, which ``profile`` enters once per
graph, and a traced ``mine`` reports no relation span: the miner counts each
relation's rows with ``relations.tally``, which calls no ``evaluate``, so its
subjects are counted through the payload. ``perfbench/`` is only read here,
never modified.

Random mining evaluates every graph. Exhaustive mining evaluates one graph
per isomorphism class, and re-reads a later one only for the witnesses of a
per-vertex or per-subgraph relation, so its evaluations are counted from the
oracles (:func:`class_memo_reads`).
"""

import importlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from centaudit import (
    RELATION_IDS,
    Graph,
    apsp,
    metrics,
    profile,
    relation,
    serialize_edge_list,
    star_graph,
    watts_strogatz_graph,
)
from centaudit.cli import main
from centaudit.mining import DEFAULT_WITNESS_CAP
from centaudit.relations import PER_GRAPH, PER_VERTEX
from oracles import SENSE, canonical_mask, labeled_connected_masks, relation_sides, relation_status

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RANDOM_MINE = ["mine", "--model", "gnp", "--n", "6", "--p", "0.5", "--trials", "4", "--seed", "1"]


def class_memo_reads(n_max, relation_ids, cap=DEFAULT_WITNESS_CAP):
    """What one-worker exhaustive mining must evaluate: each relation on the
    first labeled graph of every isomorphism class, and a per-vertex or
    per-subgraph relation again on a later graph of a class that violates
    it while fewer than ``cap`` of its witnesses are kept; a per-graph
    relation's witnesses reuse its class's rows. Returns (graphs evaluated,
    evaluations per relation), from the oracles' canonical forms and
    relation statuses."""
    graphs, evaluations = 0, Counter()
    for n in range(2, n_max + 1):
        seen, kept = set(), Counter()  # one shard per n
        for mask, edges in labeled_connected_masks(n):
            sides = relation_sides(Graph.from_edges(n, edges))
            key = canonical_mask(n, mask)
            first = key not in seen
            seen.add(key)
            read = False
            for rid in relation_ids:
                violated = sum(relation_status(SENSE[rid], *s)[0] == "violated"
                               for s in sides[rid].values())
                reread = violated and kept[rid] < cap and relation(rid).scope != PER_GRAPH
                if first or reread:
                    read = True
                    evaluations[rid] += 1
                kept[rid] = min(cap, kept[rid] + violated)
            graphs += first or read
    return graphs, dict(evaluations)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("spans")
    yield module
    sys.modules.pop("spans", None)


@pytest.fixture
def stress_calls(monkeypatch):
    calls = []
    original = metrics.stress

    def counting(g, d):
        calls.append(g.n)
        return original(g, d)

    monkeypatch.setattr(metrics, "stress", counting)
    return calls


def test_every_wrapped_attribute_is_callable(spans):
    assert spans.WRAPPED
    for module, attr, _ in spans.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_compute_reports_stress_span(spans):
    g = watts_strogatz_graph(12, 4, 0.1, seed=0)
    sys.stdin, saved = io.StringIO(serialize_edge_list(g)), sys.stdin
    tracer = spans.Tracer()
    try:
        with spans.traced(tracer):
            root = tracer.open(tracer.ROOT)
            assert main(["compute", "-"], out=io.StringIO()) == 0
            tracer.close(root)
    finally:
        sys.stdin = saved
    assert not spans.nesting_errors(tracer.spans)
    assert tracer.counts["metrics.stress"] == 1
    (parent,) = [tracer.spans[s[1]][0] for s in tracer.spans if s[0] == "metrics.stress"]
    assert parent == "metrics.profile"


def subjects(tally):
    return tally["holds"] + tally["equality"] + tally["violated"] + tally["skipped"]


def traced_mine(spans, argv):
    """The tracer and JSON payload of one traced ``mine`` call, which has no
    relation span, while every relation has subjects."""
    tracer = spans.Tracer()
    out = io.StringIO()
    with spans.traced(tracer):
        root = tracer.open(tracer.ROOT)
        assert main(argv + ["--format", "json"], out=out) == 0
        tracer.close(root)
    assert not spans.nesting_errors(tracer.spans)
    assert not [name for name, *_ in tracer.spans if name.startswith("relations.")]
    assert not [name for name in tracer.counts if name.startswith("relations.")]
    payload = json.loads(out.getvalue())["payload"]
    assert all(subjects(tally) > 0 for tally in payload["relations"].values())
    return tracer, payload


def test_traced_mine_reports_relation_spans(spans):
    """A traced mine reports no relation span, random or exhaustive, and its
    subject counts come from the payload: each relation's subjects on every
    graph evaluated."""
    _, payload = traced_mine(spans, RANDOM_MINE)
    tallies = payload["relations"]
    assert payload["graphs_evaluated"] == 4
    assert subjects(tallies["R6"]) == 4 * (2 ** 6 - 6 - 1)  # every subset of each host
    per_graph = [rid for rid in RELATION_IDS if relation(rid).scope == PER_GRAPH]
    assert {rid: subjects(tallies[rid]) for rid in per_graph} == {rid: 4 for rid in per_graph}
    assert all(subjects(tallies[rid]) == 4 * 6 for rid in RELATION_IDS
               if relation(rid).scope == PER_VERTEX)

    _, payload = traced_mine(spans, ["mine", "--n-max", "3"])
    labeled = {2: 1, 3: 4}  # labeled connected graphs on n vertices
    assert payload["graphs_evaluated"] == sum(labeled.values())
    for rid in RELATION_IDS:
        scope = relation(rid).scope
        expected = sum(count * (1 if scope == PER_GRAPH else n if scope == PER_VERTEX
                                else 2 ** n - n - 1) for n, count in labeled.items())
        assert subjects(payload["relations"][rid]) == expected, rid


def test_profile_calls_stress_once(stress_calls):
    g = star_graph(4)
    profile(g, apsp(g))
    profile(g)
    assert stress_calls == [5, 5]


def test_mining_calls_stress_once_per_graph(stress_calls):
    out = io.StringIO()
    assert main(RANDOM_MINE + ["--format", "json"], out=out) == 0
    payload = json.loads(out.getvalue())["payload"]
    assert len(stress_calls) == payload["graphs_evaluated"] == 4

    stress_calls.clear()
    out = io.StringIO()
    assert main(["mine", "--n-max", "4", "--relations", "R12", "--format", "json"],
                out=out) == 0
    payload = json.loads(out.getvalue())["payload"]
    assert payload["graphs_evaluated"] == 43
    assert payload["relations"]["R12"]["witnesses"]
    # once per connected class: R12 is per-graph, so the later graphs that
    # give its witnesses reuse their class's rows
    graphs, evaluations = class_memo_reads(4, ["R12"])
    assert len(stress_calls) == graphs == evaluations["R12"] == 1 + 2 + 6
