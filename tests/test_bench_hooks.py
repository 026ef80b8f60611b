"""The benchmark's tracer wraps program functions at the module attributes
their callers look them up by (``perfbench/spans.py``). These tests keep those
hooks live: every wrapped attribute must exist and be callable, a traced
``compute`` must report the stress layer, which ``profile`` enters once per
graph, and a traced ``mine`` must report one span per relation evaluation,
whose sized result counts the subjects. ``perfbench/`` is only read here, never
modified.
"""

import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from centaudit import (
    apsp,
    metrics,
    profile,
    serialize_edge_list,
    star_graph,
    watts_strogatz_graph,
)
from centaudit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_traced_mine_reports_relation_spans(spans):
    tracer = spans.Tracer()
    out = io.StringIO()
    with spans.traced(tracer):
        root = tracer.open(tracer.ROOT)
        assert main(["mine", "--n-max", "3", "--format", "json"], out=out) == 0
        tracer.close(root)
    assert not spans.nesting_errors(tracer.spans)
    parents = {tracer.spans[parent][0] for name, parent, *_ in tracer.spans
               if name.startswith("relations.")}
    assert parents == {"mining"}
    payload = json.loads(out.getvalue())["payload"]
    tallies = payload["relations"].values()
    assert tracer.counts["relations.subjects"] == sum(
        t["holds"] + t["equality"] + t["violated"] + t["skipped"] for t in tallies
    )
    assert {name for name, *_ in tracer.spans if name.startswith("relations.")} == {
        f"relations.{rid}" for rid in payload["relations"]
    }


def test_profile_calls_stress_once(stress_calls):
    g = star_graph(4)
    profile(g, apsp(g))
    profile(g)
    assert stress_calls == [5, 5]


def test_mining_calls_stress_once_per_graph(stress_calls):
    out = io.StringIO()
    assert main(["mine", "--n-max", "4", "--relations", "R12", "--format", "json"],
                out=out) == 0
    payload = json.loads(out.getvalue())["payload"]
    assert len(stress_calls) == payload["graphs_evaluated"] == 43
