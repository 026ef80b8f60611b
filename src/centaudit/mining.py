"""Exhaustive and randomized verification of the relation catalog.

The miner walks a graph population (every labeled connected graph up to a
size bound, or seeded random samples), evaluates the selected relations on
each graph, tallies outcomes, keeps capped violation witnesses that can be
replayed exactly, and audits the implication between the even-cycle-free and
geodetic predicates.

Work is embarrassingly parallel: the enumeration bitmask range (or the trial
range) is split into contiguous chunks, and chunk reports merge in a fixed
order, so multi-worker runs are byte-identical to single-worker runs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from . import relations as rel
from .graphs import Graph, enumerate_connected_range, generate
from .metrics import apsp, profile
from .relations import RelationResult, Subject

DEFAULT_WITNESS_CAP = 16
SUBSET_BUDGET_PER_GRAPH = 512  # at most this many R6 subsets per graph
CONNECTIVITY_RETRY_CAP = 1000


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

    def record(self, result: RelationResult, g: Graph, cap: int) -> None:
        if result.status == rel.HOLDS:
            self.holds += 1
        elif result.status == rel.EQUALITY:
            self.equality += 1
        elif result.status == rel.VIOLATED:
            self.violated += 1
            if len(self.witnesses) < cap:
                self.witnesses.append(
                    Witness(g.n, g.edges, result.subject, result.lhs, result.rhs)
                )
        else:
            self.skipped += 1

    def merge(self, other: "RelationTally", cap: int) -> None:
        self.holds += other.holds
        self.equality += other.equality
        self.violated += other.violated
        self.skipped += other.skipped
        room = cap - len(self.witnesses)
        if room > 0:
            self.witnesses.extend(other.witnesses[:room])


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
                    Witness(g.n, g.edges, None, Fraction(0), Fraction(0))
                )
        elif ecf:
            self.ecf_not_geodetic += 1
            if len(self.ecf_not_geodetic_witnesses) < cap:
                self.ecf_not_geodetic_witnesses.append(
                    Witness(g.n, g.edges, None, Fraction(0), Fraction(0))
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
    duration_seconds: float  # informational; not part of the serialized report

    @property
    def non_audit_violations(self) -> int:
        return sum(
            t.violated
            for rid, t in self.tallies.items()
            if not rel.relation(rid).audit
        )

    @property
    def audit_violations(self) -> int:
        return sum(
            t.violated for rid, t in self.tallies.items() if rel.relation(rid).audit
        )

    @property
    def ok(self) -> bool:
        """False exactly when a non-audit relation was violated (hard failure)."""
        return self.non_audit_violations == 0


@dataclass
class _Shard:
    graphs: int
    tallies: dict[str, RelationTally]
    audit: GeodeticAudit


def _validate_relation_ids(relation_ids: Sequence[str] | None) -> tuple[str, ...]:
    if relation_ids is None:
        return rel.RELATION_IDS
    ids = tuple(relation_ids)
    for rid in ids:
        rel.relation(rid)  # raises on unknown ids
    # evaluate in catalog order regardless of the order given
    return tuple(rid for rid in rel.RELATION_IDS if rid in set(ids))


def _evaluate_into(
    g: Graph,
    relation_ids: tuple[str, ...],
    tallies: dict[str, RelationTally],
    audit: GeodeticAudit,
    cap: int,
) -> None:
    d = apsp(g)
    prof = profile(g, d)
    audit.record(g, prof.geodetic, prof.even_cycle_free, cap)
    for rid in relation_ids:
        spec = rel.relation(rid)
        for result in rel.evaluate(spec, g, prof, d, SUBSET_BUDGET_PER_GRAPH):
            tallies[rid].record(result, g, cap)


def _new_tallies(relation_ids: tuple[str, ...]) -> dict[str, RelationTally]:
    return {rid: RelationTally() for rid in relation_ids}


def _mine_mask_range(args) -> _Shard:
    n, start, stop, relation_ids, cap = args
    tallies = _new_tallies(relation_ids)
    audit = GeodeticAudit()
    graphs = 0
    for g in enumerate_connected_range(n, start, stop):
        graphs += 1
        _evaluate_into(g, relation_ids, tallies, audit, cap)
    return _Shard(graphs, tallies, audit)


def _mine_trial_range(args) -> _Shard:
    model, params, trial_start, trial_stop, seed, relation_ids, cap, retry_cap = args
    tallies = _new_tallies(relation_ids)
    audit = GeodeticAudit()
    graphs = 0
    for trial in range(trial_start, trial_stop):
        g = _connected_sample(model, params, seed, trial, retry_cap)
        graphs += 1
        _evaluate_into(g, relation_ids, tallies, audit, cap)
    return _Shard(graphs, tallies, audit)


def _connected_sample(
    model: str, params: Mapping[str, object], seed: int, trial: int, retry_cap: int
) -> Graph:
    for attempt in range(min(retry_cap, 1 << 20)):
        # distinct derived seed per (seed, trial, attempt)
        derived = (seed << 56) + (trial << 20) + attempt
        g = generate(model, params, derived)
        if g.n >= 2 and g.is_connected():
            return g
    raise ConnectivityRetryError(
        f"model {model!r} produced no connected graph on >= 2 vertices in "
        f"{retry_cap} attempts (trial {trial}, seed {seed})"
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


def _run_tasks(tasks, worker, workers: int) -> list[_Shard]:
    if workers <= 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def mine_exhaustive(
    n_max: int,
    relation_ids: Sequence[str] | None = None,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    workers: int = 1,
) -> MiningReport:
    """Evaluate the selected relations on every labeled connected graph with
    2..n_max vertices. Deterministic; reports carry replayable witnesses.
    ``workers`` is capped at the CPU count."""
    if not 2 <= n_max <= 8:
        raise ValueError(f"n_max must be in 2..8, got {n_max}")
    workers = min(workers, os.cpu_count() or 1)
    ids = _validate_relation_ids(relation_ids)
    started = time.perf_counter()
    tasks = []
    for n in range(2, n_max + 1):
        total = 1 << (n * (n - 1) // 2)
        chunk = -(-total // max(workers, 1))
        for lo in range(0, total, chunk):
            tasks.append((n, lo, min(lo + chunk, total), ids, witness_cap))
    shards = _run_tasks(tasks, _mine_mask_range, workers)
    merged = _merge_shards(shards, ids, witness_cap)
    return MiningReport(
        population={"kind": "exhaustive", "n_min": 2, "n_max": n_max},
        relation_ids=ids,
        witness_cap=witness_cap,
        graphs_evaluated=merged.graphs,
        tallies=merged.tallies,
        geodetic_audit=merged.audit,
        duration_seconds=time.perf_counter() - started,
    )


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

    Each trial redraws (up to ``retry_cap`` times) until the sample is
    connected; every draw has its own derived seed, so runs are deterministic
    for a fixed (model, params, trials, seed) regardless of worker count.
    ``workers`` is capped at the CPU count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    workers = min(workers, os.cpu_count() or 1)
    ids = _validate_relation_ids(relation_ids)
    params = {key: params[key] for key in sorted(params)}
    started = time.perf_counter()
    chunk = -(-trials // max(workers, 1))
    tasks = [
        (model, params, lo, min(lo + chunk, trials), seed, ids, witness_cap, retry_cap)
        for lo in range(0, trials, chunk)
    ]
    shards = _run_tasks(tasks, _mine_trial_range, workers)
    merged = _merge_shards(shards, ids, witness_cap)
    return MiningReport(
        population={
            "kind": "random",
            "model": model,
            "params": params,
            "trials": trials,
            "seed": seed,
        },
        relation_ids=ids,
        witness_cap=witness_cap,
        graphs_evaluated=merged.graphs,
        tallies=merged.tallies,
        geodetic_audit=merged.audit,
        duration_seconds=time.perf_counter() - started,
    )


def equality_census(
    relation_id: str, n_max: int
) -> Iterator[tuple[Graph, Subject]]:
    """Stream every (graph, subject) with an exact-equality outcome for one
    relation over all labeled connected graphs with 2..n_max vertices."""
    spec = rel.relation(relation_id)
    if not 2 <= n_max <= 7:
        raise ValueError(f"n_max must be in 2..7, got {n_max}")
    for n in range(2, n_max + 1):
        for g in enumerate_connected_range(n, 0, None):
            d = apsp(g)
            prof = profile(g, d)
            for result in rel.evaluate(spec, g, prof, d, SUBSET_BUDGET_PER_GRAPH):
                if result.status == rel.EQUALITY:
                    yield g, result.subject
