"""Exhaustive and randomized verification of the relation catalog.

The miner walks a graph population (every labeled connected graph up to a
size bound, or seeded random samples), evaluates the selected relations on
each graph, tallies outcomes, keeps capped violation witnesses that can be
replayed exactly, and audits the implication between the even-cycle-free and
geodetic predicates.

Work is embarrassingly parallel: each n's adjacency bitmask range (or the
trial range) is split into one contiguous chunk per worker, each mined as
one shard, and shard reports merge in a fixed order, so multi-worker runs
are byte-identical to single-worker runs. With several workers the shards
are dealt round robin into one share per worker: the calling process mines
the first share, and each other share runs in one child process that pipes
its shards back. A child's failure is raised in the caller, and no child
outlives the call.

An exhaustive shard walks its masks in ascending order against
:func:`graphs.mask_classes` and evaluates one graph per isomorphism class:
every status count, and both audit predicates, are the same on all
relabelled copies of a graph, whose subject statuses are a permutation of
each other's. A class's first mask is decoded, and that graph decides the
class's connectivity and, when connected, is evaluated once on the
adjacency that test built: its counts go into the tallies times the
number of the class's masks in the shard. A later labeled graph is decoded
only where one is read: one whose class violates a relation that still has
witness room or falls in an audit category that does. A per-graph
relation's row has no subject and sides that are class invariants, so such
a graph's witness reuses its class's violated rows; only a per-vertex or
per-subgraph relation, whose subjects follow the labels, is evaluated again
on it. A memo from class to predicates and violated rows lives for one
shard. So witnesses, and the whole report, stay byte-identical to
evaluating every graph. ``mine --n-max 7`` (1,866,256 graphs) takes about
2.6 s and 29 MB in one process on a 2-vCPU Xeon, about 1 s of it building
the n = 7 class table. Random shards evaluate every graph.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from multiprocessing import Pipe, Process
from typing import Iterator, Mapping, Sequence

from . import relations as rel
from .graphs import (
    MASK_CLASSES_MAX_N,
    Graph,
    generate,
    mask_classes,
    mask_graph,
    model_row,
)
# wrapped by perfbench's graphs.enumerate span, pinned by tests/test_bench_hooks.py
from .graphs import enumerate_connected_range  # noqa: F401
from .metrics import apsp, profile
from .relations import RelationSpec, Subject

DEFAULT_WITNESS_CAP = 16
SUBSET_BUDGET_PER_GRAPH = 512  # at most this many R6 subsets per graph
CONNECTIVITY_RETRY_CAP = 1000
MAX_RETRY_CAP = 1 << 20  # the attempt index fills 20 bits of a derived seed
# The largest exhaustive n is the class table's, MASK_CLASSES_MAX_N: n = 8 has
# 251,548,592 labeled connected graphs to walk and a 2^28-entry class table;
# an exact n = 8 audit needs isomorph-free generation instead.
# Exhaustive shards reuse one graph's counts for all its relabelled copies.
# For R6 that is exact only while the budget covers every vertex subset of a
# host, 2^n - n - 1 of them (n <= 9), so that relabelling permutes them.
assert (1 << MASK_CLASSES_MAX_N) - MASK_CLASSES_MAX_N - 1 <= SUBSET_BUDGET_PER_GRAPH


def _check_n_max(n_max: int) -> None:
    if not 2 <= n_max <= MASK_CLASSES_MAX_N:
        raise ValueError(
            f"n_max must be in 2..{MASK_CLASSES_MAX_N}, got {n_max} "
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

    def keep(self, spec: RelationSpec, violations: list, g: Graph, cap: int) -> None:
        """Keep g's violated outcomes of ``spec`` as witnesses while fewer
        than ``cap`` are kept."""
        for status, row in violations[:cap - len(self.witnesses)]:
            result = rel.make_result(spec, status, row)
            self.witnesses.append(Witness(g.n, g.edges, result.subject, result.lhs, result.rhs))

    def merge(self, other: "RelationTally", cap: int) -> None:
        self.holds += other.holds
        self.equality += other.equality
        self.violated += other.violated
        self.skipped += other.skipped
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

    def add(self, geodetic: bool, ecf: bool, times: int) -> None:
        """Count ``times`` graphs with these predicates."""
        self.graphs += times
        if ecf and geodetic:
            self.ecf_and_geodetic += times
        elif geodetic:
            self.geodetic_not_ecf += times
        elif ecf:
            self.ecf_not_geodetic += times
        else:
            self.neither += times

    def _witnesses(self, geodetic: bool, ecf: bool) -> list[Witness] | None:
        """The witness list of the category of these predicates; None for the
        two categories that keep no witnesses."""
        if geodetic == ecf:
            return None
        return self.geodetic_not_ecf_witnesses if geodetic else self.ecf_not_geodetic_witnesses

    def room(self, geodetic: bool, ecf: bool, cap: int) -> bool:
        """True iff the category of these predicates keeps witnesses and has
        fewer than ``cap`` of them."""
        witnesses = self._witnesses(geodetic, ecf)
        return witnesses is not None and len(witnesses) < cap

    def keep(self, g: Graph, geodetic: bool, ecf: bool, cap: int) -> None:
        """Keep g as a witness of its category while that has room."""
        if self.room(geodetic, ecf, cap):
            self._witnesses(geodetic, ecf).append(Witness(g.n, g.edges, None, _NO_SIDE, _NO_SIDE))

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
    times: int,
) -> tuple[bool, bool, list[tuple[RelationSpec, RelationTally, list]]]:
    """Add ``times`` copies of g's :func:`relations.tally` of each spec to
    the tally at the same index and of g's predicates to the audit, keep g's
    violations and audit category as witnesses while their lists have fewer
    than ``cap``, and return g's (geodetic, even_cycle_free, the (spec,
    tally, violated outcomes) of each spec it violates)."""
    d = apsp(g)
    prof = profile(g, d)
    geodetic, even_cycle_free = prof.geodetic, prof.even_cycle_free
    audit.add(geodetic, even_cycle_free, times)
    audit.keep(g, geodetic, even_cycle_free, cap)
    violated = []
    for spec, tally in zip(specs, tallies):
        holds, equality, violations_count, skipped, violations = rel.tally(
            spec, g, prof, d, SUBSET_BUDGET_PER_GRAPH)
        tally.holds += times * holds
        tally.equality += times * equality
        tally.violated += times * violations_count
        tally.skipped += times * skipped
        if violations:
            tally.keep(spec, violations, g, cap)
            violated.append((spec, tally, violations))
    return geodetic, even_cycle_free, violated


def _mine_masks(
    n: int,
    lo: int,
    hi: int,
    specs: Sequence[RelationSpec],
    tallies: Sequence[RelationTally],
    shard: "_Shard",
    cap: int,
) -> None:
    """Mine the connected graphs on n vertices whose adjacency bitmasks lie
    in [lo, hi), walking the masks in ascending order against
    :func:`graphs.mask_classes`.

    A class's first mask is decoded and its graph asked whether it is
    connected; a connected class's first graph is then evaluated once, and
    its counts go into the tallies times the class's masks in the range. A
    later mask is decoded to a graph only while its class violates a
    relation that still has witness room or its audit category does, so it
    keeps the same witnesses as when every graph is evaluated. A per-graph
    relation's row has no subject and sides that are class invariants, so
    the class's violated rows are that graph's witnesses too; only a
    per-vertex or per-subgraph relation is evaluated again on it."""
    classes = mask_classes(n)
    sizes = Counter(classes[lo:hi])
    # connected class -> (geodetic, even_cycle_free, the (spec, tally,
    # violated outcomes) of the relations it violates), from its first graph
    memo: dict[int, tuple] = {}
    # classes whose later masks need no graph: disconnected ones, and those
    # with nothing left to witness (witness room only shrinks)
    done: set[int] = set()
    for mask, key in zip(range(lo, hi), classes[lo:hi]):
        if key in done:
            continue
        known = memo.get(key)
        if known is None:
            g = mask_graph(n, mask)
            if not g.is_connected():
                done.add(key)
                continue
            shard.graphs += sizes[key]
            memo[key] = _evaluate_into(g, specs, tallies, shard.audit, cap, sizes[key])
            continue
        geodetic, even_cycle_free, violated = known
        room = [(spec, tally, violations) for spec, tally, violations in violated
                if len(tally.witnesses) < cap]
        audit_room = shard.audit.room(geodetic, even_cycle_free, cap)
        if not (room or audit_room):
            done.add(key)
            continue
        g = mask_graph(n, mask)
        shard.audit.keep(g, geodetic, even_cycle_free, cap)
        if any(spec.scope != rel.PER_GRAPH for spec, _, _ in room):
            d = apsp(g)
            prof = profile(g, d)
        for spec, tally, violations in room:
            if spec.scope != rel.PER_GRAPH:
                violations = rel.tally(spec, g, prof, d, SUBSET_BUDGET_PER_GRAPH)[4]
            tally.keep(spec, violations, g, cap)


def _mine_trials(
    model: str,
    params: Mapping[str, object],
    seed: int,
    start: int,
    stop: int,
    attempts: int,
    specs: Sequence[RelationSpec],
    tallies: Sequence[RelationTally],
    shard: "_Shard",
    cap: int,
) -> None:
    """Mine the connected samples of trials [start, stop), evaluating every
    graph."""
    for trial in range(start, stop):
        g = _connected_sample(model, params, seed, trial, attempts)
        shard.graphs += 1
        _evaluate_into(g, specs, tallies, shard.audit, cap, 1)


def _new_tallies(relation_ids: tuple[str, ...]) -> dict[str, RelationTally]:
    return {rid: RelationTally() for rid in relation_ids}


def _mine_shard(args) -> _Shard:
    """Mine one shard: ``walk`` is a picklable callable, :func:`_mine_masks`
    or :func:`_mine_trials` bound to its range, that mines it into the given
    (specs, tallies, shard, cap)."""
    walk, relation_ids, cap = args
    specs = [rel.relation(rid) for rid in relation_ids]
    shard = _Shard(0, _new_tallies(relation_ids), GeodeticAudit())
    walk(specs, [shard.tallies[rid] for rid in relation_ids], shard, cap)
    return shard


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


def _mine_share(share, conn) -> None:
    """A child's whole work: mine each task of ``share`` and send back
    ``(True, shards)``, or ``(False, exception)`` on the first failure."""
    try:
        reply = True, [_mine_shard(task) for task in share]
    except Exception as exc:
        reply = False, exc
    conn.send(reply)
    conn.close()


def _run_tasks(tasks, workers: int) -> list[_Shard]:
    """Mine each task into a shard, in task order. With several workers the
    tasks are dealt round robin into ``workers`` shares: this process mines
    share 0, and each other non-empty share runs in one child that pipes its
    shards back. No child outlives the call."""
    if workers <= 1:
        return [_mine_shard(task) for task in tasks]
    children = []  # (share index, process, read end)
    try:
        for index in range(1, min(workers, len(tasks))):
            reader, writer = Pipe(duplex=False)
            child = Process(target=_mine_share, args=(tasks[index::workers], writer))
            try:
                child.start()
            finally:
                writer.close()  # the child's copy is its only writer
            children.append((index, child, reader))
        shards = [None] * len(tasks)
        shards[0::workers] = [_mine_shard(task) for task in tasks[0::workers]]
        for index, child, reader in children:
            try:
                ok, reply = reader.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"mining child exited with code {child.exitcode} before replying"
                ) from None
            if not ok:
                raise reply
            shards[index::workers] = reply
        return shards
    finally:
        for _, child, reader in children:
            reader.close()
            if child.is_alive():
                child.terminate()
            child.join()


def _check_limits(witness_cap: int, workers: int) -> int:
    """Reject a negative witness cap or fewer than one worker; return
    ``workers`` capped at the CPU count."""
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be >= 0, got {witness_cap}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def _report(population, walks, ids, cap, workers) -> MiningReport:
    """Mine each walk as one shard (see :func:`_mine_shard`) and merge the
    shards in order."""
    shards = _run_tasks([(walk, ids, cap) for walk in walks], workers)
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
    walks = []
    for n in range(2, n_max + 1):
        total = 1 << (n * (n - 1) // 2)
        chunk = -(-total // workers)
        for lo in range(0, total, chunk):
            walks.append(partial(_mine_masks, n, lo, min(lo + chunk, total)))
        if workers > 1:
            # built before the first child starts, so that forked children
            # share one read-only table per n instead of each building its own
            mask_classes(n)
    population = {"kind": "exhaustive", "n_min": 2, "n_max": n_max}
    return _report(population, walks, ids, witness_cap, workers)


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
    walks = [
        partial(_mine_trials, model, params, seed, lo, min(lo + chunk, trials), attempts)
        for lo in range(0, trials, chunk)
    ]
    population = {
        "kind": "random",
        "model": model,
        "params": params,
        "trials": trials,
        "seed": seed,
    }
    return _report(population, walks, ids, witness_cap, workers)


def equality_census(
    relation_id: str, n_max: int
) -> Iterator[tuple[Graph, Subject]]:
    """Stream every (graph, subject) with an exact-equality outcome for one
    relation over all labeled connected graphs with 2..n_max vertices, in
    ascending adjacency-bitmask order and then subject order.

    Masks are walked against :func:`graphs.mask_classes`: a class's first
    graph is evaluated once, and a later mask is decoded only when that
    graph has an equality outcome. A per-graph relation's outcome is then
    the same on the copy; a per-vertex or per-subgraph relation's subjects
    follow the labels, so the copy is evaluated again."""
    spec = rel.relation(relation_id)
    _check_n_max(n_max)
    per_graph = spec.scope == rel.PER_GRAPH
    for n in range(2, n_max + 1):
        # class -> whether its graphs are connected and have an equality outcome
        tight: dict[int, bool] = {}
        for mask, key in enumerate(mask_classes(n)):
            known = tight.get(key)
            if known is False:
                continue
            g = mask_graph(n, mask)
            if known is None:
                subjects = _equality_subjects(spec, g) if g.is_connected() else []
                tight[key] = bool(subjects)
            elif per_graph:
                subjects = [None]
            else:
                subjects = _equality_subjects(spec, g)
            for subject in subjects:
                yield g, subject


def _equality_subjects(spec: RelationSpec, g: Graph) -> list[Subject]:
    """The subjects of the connected graph g's equality outcomes of ``spec``,
    in subject order."""
    d = apsp(g)
    return [row[0] for status, row in rel.evaluate(
        spec, g, profile(g, d), d, SUBSET_BUDGET_PER_GRAPH) if status == rel.EQUALITY]
