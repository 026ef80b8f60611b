"""Per-layer measurement from outside the program: spans and call counts.

Spans: the public functions of centaudit's modules are wrapped at the module
attributes their callers look them up by, so a traced call records one span
per layer boundary (name, parent, start, end) without any change to the
program. A layer's self time is its span's duration minus the part of that
interval covered by its child spans. All spans of a traced call live in one
process, so traced runs use a single worker.

Counts: a separate run under cProfile counts Fraction constructions, credited
to the centaudit module that asked for them, and calls to apsp and
mean_pair_distance.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

import centaudit.cli
import centaudit.metrics
import centaudit.mining
import centaudit.relations

# (module, attribute, span name); None names the span after the relation id.
WRAPPED = (
    (centaudit.cli, "parse_edge_list", "graphs.parse"),
    (centaudit.cli, "apsp", "metrics.apsp"),
    (centaudit.cli, "profile", "metrics.profile"),
    (centaudit.cli, "mine_exhaustive", "mining"),
    (centaudit.cli, "mine_random", "mining"),
    (centaudit.mining, "enumerate_connected_range", "graphs.enumerate"),
    (centaudit.mining, "generate", "graphs.generate"),
    (centaudit.mining, "apsp", "metrics.apsp"),
    (centaudit.mining, "profile", "metrics.profile"),
    (centaudit.relations, "apsp", "metrics.apsp"),
    (centaudit.relations, "profile", "metrics.profile"),
    (centaudit.relations, "evaluate", None),
    (centaudit.metrics, "apsp", "metrics.apsp"),
    (centaudit.metrics, "stress", "metrics.stress"),
    (centaudit.metrics, "local_clustering", "metrics.clustering"),
    (centaudit.metrics, "global_clustering", "metrics.clustering"),
    (centaudit.metrics, "is_even_cycle_free", "metrics.blocks"),
)
GENERATORS = {"graphs.enumerate"}


class Tracer:
    """Spans of one traced call, kept in memory as [name, parent, start, end]
    with integer nanosecond times, plus per-name counters."""

    ROOT = "cli"  # the caller opens it around each cli.main call

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")


def _wrap(fn, name, tracer: Tracer):
    if name in GENERATORS:
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                span = tracer.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                tracer.counts[name] += 1
                yield item
        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = name or f"relations.{args[0].id}"
        span = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        tracer.counts[label] += 1
        if name is None:
            tracer.counts["relations.subjects"] += len(result)
        return result
    return traced


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers for the duration of the block, then restore."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
    try:
        for (module, attr, name), (_, _, fn) in zip(WRAPPED, originals):
            setattr(module, attr, _wrap(fn, name, tracer))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def self_times(spans: list[list]) -> dict[str, int]:
    """Self time in nanoseconds per span name: duration minus the union of the
    child intervals, each clipped to its parent."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, int] = defaultdict(int)
    for index, (name, _, start, end) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return totals


def nesting_errors(spans: list[list]) -> list[str]:
    """Self-test of one traced call: a single root, every child inside its
    parent, siblings disjoint and in order, self times non-negative and
    summing exactly to the root's duration."""
    errors = []
    roots = [s for s in spans if s[1] < 0]
    if len(roots) != 1 or roots[0][0] != Tracer.ROOT:
        return [f"expected one {Tracer.ROOT} root span, got {[s[0] for s in roots]}"]
    last_end: dict[int, int] = {}
    for name, parent, start, end in spans:
        if end < start:
            errors.append(f"{name} ends before it starts")
        if parent < 0:
            continue
        _, _, p_start, p_end = spans[parent]
        if start < p_start or end > p_end:
            errors.append(f"{name} lies outside its parent {spans[parent][0]}")
        if start < last_end.get(parent, p_start):
            errors.append(f"{name} overlaps an earlier sibling")
        last_end[parent] = end
    totals = self_times(spans)
    if any(value < 0 for value in totals.values()):
        errors.append("negative self time")
    wall = roots[0][3] - roots[0][2]
    if sum(totals.values()) != wall:
        errors.append(f"self times sum to {sum(totals.values())} ns, root lasts {wall} ns")
    return errors


# ---------------------------------------------------------------------------
# counted run
# ---------------------------------------------------------------------------

_MODULE_FILES = {
    os.path.abspath(module.__file__): module.__name__.rpartition(".")[2]
    for module in (centaudit.cli, centaudit.metrics, centaudit.mining,
                   centaudit.relations, centaudit.graphs)
}


def _owner(key) -> str | None:
    return _MODULE_FILES.get(os.path.abspath(key[0])) if key[0] != "~" else None


def counted(call):
    """Run ``call()`` under cProfile; return (its call counts, its result).

    Fraction.__new__ calls are credited to the nearest centaudit module up the
    caller chain; calls made inside fractions.py or builtins such as sum()
    pass their count up to their own callers in proportion to how often each
    called them. The counts are exact integers that repeat run to run.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    counts: dict[str, int] = {"metrics.apsp.calls": 0, "metrics.mean_pair_distance.calls": 0}
    for key, (_, calls, *_rest) in stats.items():
        if _owner(key) == "metrics" and key[2] in ("apsp", "mean_pair_distance"):
            counts[f"metrics.{key[2]}.calls"] += calls
    credit: dict[str, Fraction] = defaultdict(Fraction)

    def attribute(key, amount: Fraction, depth: int) -> None:
        owner = _owner(key)
        if owner is not None:
            credit[owner] += amount
            return
        callers = stats.get(key, (0, 0, 0, 0, {}))[4]
        total = sum(c[1] for c in callers.values())
        if not total or depth > 32:
            credit["other"] += amount
            return
        for caller, c in callers.items():
            attribute(caller, amount * c[1] / total, depth + 1)

    for key, (_, calls, _, _, _) in stats.items():
        if key[2] == "__new__" and key[0].endswith("fractions.py"):
            attribute(key, Fraction(calls), 0)
    for module in ("metrics", "relations"):
        counts[f"{module}.fractions_built"] = round(credit[module])
    return counts, result
