"""Exhaustive and randomized verification of the relation catalog.

The miner walks a graph population (every labeled connected graph up to a
size bound, or seeded random samples), evaluates the selected relations on
each graph, tallies outcomes, keeps capped violation witnesses that can be
replayed exactly, and audits the implication between the even-cycle-free and
geodetic predicates.

Work is embarrassingly parallel: the enumeration bitmask range (or the trial
range) is split into contiguous chunks, each a graph source mined as one
shard, and shard reports merge in a fixed order, so multi-worker runs are
byte-identical to single-worker runs.

An exhaustive shard evaluates one graph per isomorphism class
(:func:`graphs.mask_classes`): every status count, and both audit
predicates, are the same on all relabelled copies of a graph, whose subject
statuses are a permutation of each other's. The other graphs of a class
reuse its counts, in a memo that lives for one shard. Witnesses are kept per
labeled graph, so a graph whose class violates a relation that still has
witness room is evaluated again for that relation, and reports stay
byte-identical to evaluating every graph. Random shards evaluate every graph.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Iterable, Iterator, Mapping, Sequence

from . import relations as rel
from .graphs import (
    Graph,
    adjacency_mask,
    enumerate_connected_range,
    generate,
    mask_classes,
    model_row,
)
from .metrics import apsp, profile
from .relations import RelationSpec, Subject

DEFAULT_WITNESS_CAP = 16
SUBSET_BUDGET_PER_GRAPH = 512  # at most this many R6 subsets per graph
CONNECTIVITY_RETRY_CAP = 1000
MAX_RETRY_CAP = 1 << 20  # the attempt index fills 20 bits of a derived seed
# largest exhaustive n: n = 8 has 251,548,592 labeled connected graphs to walk
# and a 2^28-entry class table; an exact n = 8 audit needs isomorph-free
# generation instead
EXHAUSTIVE_N_MAX = 7
# Exhaustive shards reuse one graph's counts for all its relabelled copies.
# For R6 that is exact only while the budget covers every vertex subset of a
# host, 2^n - n - 1 of them (n <= 9), so that relabelling permutes them.
assert (1 << EXHAUSTIVE_N_MAX) - EXHAUSTIVE_N_MAX - 1 <= SUBSET_BUDGET_PER_GRAPH


def _check_n_max(n_max: int) -> None:
    if not 2 <= n_max <= EXHAUSTIVE_N_MAX:
        raise ValueError(
            f"n_max must be in 2..{EXHAUSTIVE_N_MAX}, got {n_max} "
            '(see "Notes on scale" in README.md)'
        )


class ConnectivityRetryError(RuntimeError):
    """A random model failed to produce a connected graph within the retry cap."""


@dataclass(frozen=True)
class Witness:
    """A replayable violation: the graph, the subject, and both exact sides."""

    n: int
    edges: tuple[tuple[int, int], ...]
    subject: Subject
    lhs: Fraction
    rhs: Fraction

    def graph(self) -> Graph:
        return Graph.from_edges(self.n, self.edges)


@dataclass
class RelationTally:
    holds: int = 0
    equality: int = 0
    violated: int = 0
    skipped: int = 0
    witnesses: list[Witness] = field(default_factory=list)

    @property
    def subjects(self) -> int:
        return self.holds + self.equality + self.violated + self.skipped

    def add(self, holds: int, equality: int, violated: int, skipped: int) -> None:
        self.holds += holds
        self.equality += equality
        self.violated += violated
        self.skipped += skipped

    def fold(self, spec: RelationSpec, counts: tuple, g: Graph, cap: int) -> None:
        """Add one graph's :func:`relations.tally` of ``spec`` and keep its
        violations as witnesses while fewer than ``cap`` are kept."""
        *statuses, violations = counts
        self.add(*statuses)
        self.keep(spec, violations, g, cap)

    def keep(self, spec: RelationSpec, violations: list, g: Graph, cap: int) -> None:
        """Keep g's violated outcomes of ``spec`` as witnesses while fewer
        than ``cap`` are kept."""
        for status, row in violations[:cap - len(self.witnesses)]:
            result = rel.make_result(spec, status, row)
            self.witnesses.append(Witness(g.n, g.edges, result.subject, result.lhs, result.rhs))

    def merge(self, other: "RelationTally", cap: int) -> None:
        self.add(other.holds, other.equality, other.violated, other.skipped)
        room = cap - len(self.witnesses)
        if room > 0:
            self.witnesses.extend(other.witnesses[:room])


# both sides of a geodetic-audit witness, which has no relation to report
_NO_SIDE = Fraction(0)


@dataclass
class GeodeticAudit:
    """Tally of the (even-cycle-free, geodetic) predicate pairs.

    The interesting directions: even-cycle-free graphs that are *not* geodetic
    would refute the sound implication (none are expected); geodetic graphs
    with an even cycle refute the converse (K4 is the smallest witness).
    """

    graphs: int = 0
    ecf_and_geodetic: int = 0
    geodetic_not_ecf: int = 0
    ecf_not_geodetic: int = 0
    neither: int = 0
    geodetic_not_ecf_witnesses: list[Witness] = field(default_factory=list)
    ecf_not_geodetic_witnesses: list[Witness] = field(default_factory=list)

    def record(self, g: Graph, geodetic: bool, ecf: bool, cap: int) -> None:
        self.graphs += 1
        if ecf and geodetic:
            self.ecf_and_geodetic += 1
        elif geodetic:
            self.geodetic_not_ecf += 1
            if len(self.geodetic_not_ecf_witnesses) < cap:
                self.geodetic_not_ecf_witnesses.append(
                    Witness(g.n, g.edges, None, _NO_SIDE, _NO_SIDE)
                )
        elif ecf:
            self.ecf_not_geodetic += 1
            if len(self.ecf_not_geodetic_witnesses) < cap:
                self.ecf_not_geodetic_witnesses.append(
                    Witness(g.n, g.edges, None, _NO_SIDE, _NO_SIDE)
                )
        else:
            self.neither += 1

    def merge(self, other: "GeodeticAudit", cap: int) -> None:
        self.graphs += other.graphs
        self.ecf_and_geodetic += other.ecf_and_geodetic
        self.geodetic_not_ecf += other.geodetic_not_ecf
        self.ecf_not_geodetic += other.ecf_not_geodetic
        self.neither += other.neither
        for mine, theirs in (
            (self.geodetic_not_ecf_witnesses, other.geodetic_not_ecf_witnesses),
            (self.ecf_not_geodetic_witnesses, other.ecf_not_geodetic_witnesses),
        ):
            room = cap - len(mine)
            if room > 0:
                mine.extend(theirs[:room])


@dataclass
class MiningReport:
    population: dict[str, object]
    relation_ids: tuple[str, ...]
    witness_cap: int
    graphs_evaluated: int
    tallies: dict[str, RelationTally]
    geodetic_audit: GeodeticAudit

    @property
    def violations(self) -> tuple[int, int]:
        """(non-audit, audit) violation counts."""
        return rel.violation_counts((rid, t.violated) for rid, t in self.tallies.items())

    @property
    def non_audit_violations(self) -> int:
        return self.violations[0]

    @property
    def audit_violations(self) -> int:
        return self.violations[1]

    @property
    def ok(self) -> bool:
        """False exactly when a non-audit relation was violated (hard failure)."""
        return self.non_audit_violations == 0


@dataclass
class _Shard:
    graphs: int
    tallies: dict[str, RelationTally]
    audit: GeodeticAudit


def _evaluate_into(
    g: Graph,
    specs: Sequence[RelationSpec],
    tallies: Sequence[RelationTally],
    audit: GeodeticAudit,
    cap: int,
) -> tuple[bool, bool, list[tuple[int, int, int, int]]]:
    """Fold g's tally of each spec into the tally at the same index, record
    g in the audit, and return g's (geodetic, even_cycle_free, per-spec
    (holds, equality, violated, skipped))."""
    d = apsp(g)
    prof = profile(g, d)
    audit.record(g, prof.geodetic, prof.even_cycle_free, cap)
    counts = []
    for spec, tally in zip(specs, tallies):
        graph_tally = rel.tally(spec, g, prof, d, SUBSET_BUDGET_PER_GRAPH)
        tally.fold(spec, graph_tally, g, cap)
        counts.append(graph_tally[:4])
    return prof.geodetic, prof.even_cycle_free, counts


def _mine_classes(
    graphs: Iterable[Graph],
    n: int,
    specs: Sequence[RelationSpec],
    tallies: Sequence[RelationTally],
    shard: "_Shard",
    cap: int,
) -> None:
    """Mine labeled graphs on n vertices, evaluating the first graph of each
    isomorphism class; the class's later graphs add its counts. A later
    graph is evaluated again only for the relations its class violates that
    still have witness room, and keeps the same witnesses as when every
    graph is evaluated."""
    classes = mask_classes(n)
    # class -> (geodetic, even_cycle_free, per-spec counts, the (spec, tally)
    # pairs of the relations it violates), from its first graph
    memo: dict[int, tuple] = {}
    copies: Counter[int] = Counter()  # class -> graphs after its first
    for g in graphs:
        shard.graphs += 1
        key = classes[adjacency_mask(g)]
        known = memo.get(key)
        if known is None:
            geodetic, even_cycle_free, counts = _evaluate_into(g, specs, tallies, shard.audit, cap)
            violated = [(spec, tally) for spec, tally, graph_counts in zip(specs, tallies, counts)
                        if graph_counts[2]]
            memo[key] = geodetic, even_cycle_free, counts, violated
            continue
        copies[key] += 1
        geodetic, even_cycle_free, _, violated = known
        shard.audit.record(g, geodetic, even_cycle_free, cap)
        reread = [(spec, tally) for spec, tally in violated if len(tally.witnesses) < cap]
        if reread:
            d = apsp(g)
            prof = profile(g, d)
            for spec, tally in reread:
                tally.keep(spec, rel.tally(spec, g, prof, d, SUBSET_BUDGET_PER_GRAPH)[4], g, cap)
    for key, times in copies.items():
        for tally, graph_counts in zip(tallies, memo[key][2]):
            tally.add(*(times * count for count in graph_counts))


def _new_tallies(relation_ids: tuple[str, ...]) -> dict[str, RelationTally]:
    return {rid: RelationTally() for rid in relation_ids}


def _mine_shard(args) -> _Shard:
    """Mine one source, a picklable zero-argument callable yielding graphs.
    ``n`` is the vertex count of an exhaustive source, mined once per
    isomorphism class, and None for a random one, whose every graph is
    evaluated."""
    source, relation_ids, cap, n = args
    specs = [rel.relation(rid) for rid in relation_ids]
    shard = _Shard(0, _new_tallies(relation_ids), GeodeticAudit())
    tallies = [shard.tallies[rid] for rid in relation_ids]
    if n is not None:
        _mine_classes(source(), n, specs, tallies, shard, cap)
        return shard
    for g in source():
        shard.graphs += 1
        _evaluate_into(g, specs, tallies, shard.audit, cap)
    return shard


def _trial_graphs(model, params, seed, start, stop, attempts) -> Iterator[Graph]:
    for trial in range(start, stop):
        yield _connected_sample(model, params, seed, trial, attempts)


def _connected_sample(
    model: str, params: Mapping[str, object], seed: int, trial: int, attempts: int
) -> Graph:
    for attempt in range(attempts):
        # distinct derived seed per (seed, trial, attempt)
        derived = (seed << 56) + (trial << 20) + attempt
        g = generate(model, params, derived)
        if g.n >= 2 and g.is_connected():
            return g
    raise ConnectivityRetryError(
        f"model {model!r} produced no connected graph on >= 2 vertices in "
        f"{attempts} attempt{'s' if attempts != 1 else ''} (trial {trial}, seed {seed})"
    )


def _merge_shards(
    shards: Sequence[_Shard], relation_ids: tuple[str, ...], cap: int
) -> _Shard:
    merged = _Shard(0, _new_tallies(relation_ids), GeodeticAudit())
    for shard in shards:
        merged.graphs += shard.graphs
        for rid in relation_ids:
            merged.tallies[rid].merge(shard.tallies[rid], cap)
        merged.audit.merge(shard.audit, cap)
    return merged


def _run_tasks(tasks, workers: int) -> list[_Shard]:
    if workers <= 1:
        return [_mine_shard(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_mine_shard, tasks))


def _check_limits(witness_cap: int, workers: int) -> int:
    """Reject a negative witness cap or fewer than one worker; return
    ``workers`` capped at the CPU count."""
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be >= 0, got {witness_cap}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def _report(population, sources, ids, cap, workers) -> MiningReport:
    """Mine each ``(graph source, n)`` pair as one shard (see
    :func:`_mine_shard`) and merge the shards in order."""
    shards = _run_tasks([(source, ids, cap, n) for source, n in sources], workers)
    merged = _merge_shards(shards, ids, cap)
    return MiningReport(
        population=population,
        relation_ids=ids,
        witness_cap=cap,
        graphs_evaluated=merged.graphs,
        tallies=merged.tallies,
        geodetic_audit=merged.audit,
    )


def mine_exhaustive(
    n_max: int,
    relation_ids: Sequence[str] | None = None,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    workers: int = 1,
) -> MiningReport:
    """Evaluate the selected relations on every labeled connected graph with
    2..n_max vertices. Deterministic; reports carry replayable witnesses.
    ``workers`` is capped at the CPU count."""
    _check_n_max(n_max)
    workers = _check_limits(witness_cap, workers)
    ids = rel.select_ids(relation_ids)
    sources = []
    for n in range(2, n_max + 1):
        total = 1 << (n * (n - 1) // 2)
        chunk = -(-total // workers)
        for lo in range(0, total, chunk):
            sources.append((partial(enumerate_connected_range, n, lo, min(lo + chunk, total)), n))
    population = {"kind": "exhaustive", "n_min": 2, "n_max": n_max}
    return _report(population, sources, ids, witness_cap, workers)


def mine_random(
    model: str,
    params: Mapping[str, object],
    trials: int,
    seed: int = 0,
    relation_ids: Sequence[str] | None = None,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    workers: int = 1,
    retry_cap: int = CONNECTIVITY_RETRY_CAP,
) -> MiningReport:
    """Evaluate the selected relations on seeded random connected graphs.

    Each trial of a seeded model redraws (up to ``retry_cap`` times) until
    the sample is connected; every draw has its own derived seed, so runs are
    deterministic for a fixed (model, params, trials, seed) regardless of
    worker count. A seedless model (path, cycle, star, complete) draws the
    same graph every time, so its first failed draw is final.
    ``workers`` is capped at the CPU count; ``retry_cap`` must be in
    1..``MAX_RETRY_CAP``; ``seed`` must be >= 0.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 1 <= retry_cap <= MAX_RETRY_CAP:
        raise ValueError(f"retry_cap must be in 1..{MAX_RETRY_CAP}, got {retry_cap}")
    workers = _check_limits(witness_cap, workers)
    ids = rel.select_ids(relation_ids)
    attempts = retry_cap if model_row(model)[2] else 1
    params = {key: params[key] for key in sorted(params)}
    chunk = -(-trials // workers)
    sources = [
        (partial(_trial_graphs, model, params, seed, lo, min(lo + chunk, trials), attempts), None)
        for lo in range(0, trials, chunk)
    ]
    population = {
        "kind": "random",
        "model": model,
        "params": params,
        "trials": trials,
        "seed": seed,
    }
    return _report(population, sources, ids, witness_cap, workers)


def equality_census(
    relation_id: str, n_max: int
) -> Iterator[tuple[Graph, Subject]]:
    """Stream every (graph, subject) with an exact-equality outcome for one
    relation over all labeled connected graphs with 2..n_max vertices."""
    spec = rel.relation(relation_id)
    _check_n_max(n_max)
    for n in range(2, n_max + 1):
        for g in enumerate_connected_range(n, 0, None):
            d = apsp(g)
            prof = profile(g, d)
            for status, row in rel.evaluate(spec, g, prof, d, SUBSET_BUDGET_PER_GRAPH):
                if status == rel.EQUALITY:
                    yield g, row[0]
