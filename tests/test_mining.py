import io
import multiprocessing
import os
import pickle
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from centaudit import mining, relations
from centaudit.cli import main
from centaudit.relations import INEQUALITY, PER_VERTEX, RelationSpec, tally
from centaudit import (
    EQUALITY,
    VIOLATED,
    ConnectivityRetryError,
    Graph,
    RELATION_IDS,
    apsp,
    complete_graph,
    cycle_graph,
    enumerate_connected,
    equality_census,
    evaluate,
    evaluate_all,
    make_result,
    mine_exhaustive,
    mine_random,
    path_graph,
    profile,
    relation,
    star_graph,
)
from centaudit.mining import DEFAULT_WITNESS_CAP
from oracles import (
    SENSE,
    brute_force_geodetic,
    canonical_mask,
    has_even_cycle,
    labeled_connected_masks,
    mask_edges,
    relation_sides,
    relation_status,
    union_find_connected,
)

TWELVE_PROVED = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R10", "R10b", "R11", "R11b")


def report_fingerprint(report):
    """Everything that must be reproducible (wall-clock time excluded)."""
    return (
        report.population,
        report.relation_ids,
        report.graphs_evaluated,
        {rid: (t.holds, t.equality, t.violated, t.skipped, tuple(t.witnesses))
         for rid, t in report.tallies.items()},
        (
            report.geodetic_audit.graphs,
            report.geodetic_audit.ecf_and_geodetic,
            report.geodetic_audit.geodetic_not_ecf,
            report.geodetic_audit.ecf_not_geodetic,
            report.geodetic_audit.neither,
            tuple(report.geodetic_audit.geodetic_not_ecf_witnesses),
            tuple(report.geodetic_audit.ecf_not_geodetic_witnesses),
        ),
    )


def replay(relation_id, witness):
    """Re-run one relation on a witness graph and return the matching result."""
    g = witness.graph()
    d = apsp(g)
    prof = profile(g, d)
    spec = relation(relation_id)
    for status, row in evaluate(spec, g, prof, d):
        result = make_result(spec, status, row)
        if result.subject == witness.subject:
            return result
    raise AssertionError(f"subject {witness.subject} not found on replay")


@pytest.fixture
def children(monkeypatch):
    """An in-process stand-in for the mining children on a 2-CPU machine:
    each child records its share of tasks when it starts and then runs its
    target here, on a pickle round trip of target and share (as under spawn
    or forkserver), into a stand-in pipe, so no process is started."""
    shares = []

    class PipeEnd:
        """Both ends of one stand-in one-way pipe."""

        def __init__(self):
            self.sent = []

        def send(self, obj):
            self.sent.append(obj)

        def recv(self):
            return self.sent.pop(0)

        def close(self):
            pass

    def pipe(duplex=True):
        assert not duplex
        end = PipeEnd()
        return end, end

    class InProcessChild:
        def __init__(self, target, args):
            self.target, (self.share, self.conn) = target, args

        def start(self):
            shares.append(self.share)
            target, share = pickle.loads(pickle.dumps((self.target, self.share)))
            target(share, self.conn)

        def is_alive(self):
            return False

        def join(self):
            pass

    monkeypatch.setattr(mining, "Process", InProcessChild)
    monkeypatch.setattr(mining, "Pipe", pipe)
    monkeypatch.setattr(mining.os, "cpu_count", lambda: 2)
    return shares


class TestMineExhaustive:
    def test_population_size_at_n5(self):
        report = mine_exhaustive(5, relation_ids=("R8",))
        assert report.graphs_evaluated == 1 + 4 + 38 + 728
        assert report.tallies["R8"].equality == 771

    def test_proved_relations_have_no_violations_n5(self):
        report = mine_exhaustive(5, relation_ids=TWELVE_PROVED)
        assert report.non_audit_violations == 0
        assert report.ok

    def test_r10_equality_exactly_on_geodetic_graphs(self):
        report = mine_exhaustive(4, relation_ids=("R10",))
        geodetic = report.geodetic_audit.ecf_and_geodetic + report.geodetic_audit.geodetic_not_ecf
        tally = report.tallies["R10"]
        assert tally.equality == geodetic
        assert tally.violated == 0
        assert tally.skipped == report.graphs_evaluated - geodetic

    def test_r12_star_witness_found(self):
        report = mine_exhaustive(4, relation_ids=("R12",))
        assert relation("R12").audit
        assert report.tallies["R12"].violated > 0
        assert report.ok  # audit violations never hard-fail
        star = star_graph(3)
        matches = [
            w for w in report.tallies["R12"].witnesses
            if (w.n, w.edges) == (star.n, star.edges)
        ]
        assert matches and matches[0].lhs == F(1) and matches[0].rhs == F(13, 16)

    def test_witness_cap_bounds_list_not_tally(self):
        capped = mine_exhaustive(4, relation_ids=("R12",), witness_cap=2)
        full = mine_exhaustive(4, relation_ids=("R12",), witness_cap=100)
        assert len(capped.tallies["R12"].witnesses) == 2
        assert capped.tallies["R12"].violated == full.tallies["R12"].violated == 7

    def test_witnesses_replay_to_violations(self):
        report = mine_exhaustive(4, relation_ids=("R12",))
        for witness in report.tallies["R12"].witnesses:
            result = replay("R12", witness)
            assert result.status == VIOLATED
            assert (result.lhs, result.rhs) == (witness.lhs, witness.rhs)

    def test_determinism(self):
        a = mine_exhaustive(4)
        b = mine_exhaustive(4)
        assert report_fingerprint(a) == report_fingerprint(b)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_partition_soundness(self, workers):
        single = mine_exhaustive(4, relation_ids=("R1", "R10", "R12"))
        multi = mine_exhaustive(4, relation_ids=("R1", "R10", "R12"), workers=workers)
        assert report_fingerprint(single) == report_fingerprint(multi)

    def test_tallies_cover_all_subjects(self):
        report = mine_exhaustive(4)
        for rid in ("R2", "R7", "R8", "R10", "R10b", "R11", "R11b", "R12", "R9"):
            assert report.tallies[rid].subjects == report.graphs_evaluated

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            mine_exhaustive(1)
        with pytest.raises(ValueError):
            mine_exhaustive(9)

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            mine_exhaustive(3, relation_ids=("R99",))

    def test_tallies_fold_the_check_results(self):
        """Counts and witnesses equal those of evaluate_all over the same
        graphs in enumeration order."""
        report = mine_exhaustive(5, witness_cap=5)
        counts = {rid: Counter() for rid in RELATION_IDS}
        violated = {rid: [] for rid in RELATION_IDS}
        for n in range(2, 6):
            for g in enumerate_connected(n):
                for r in evaluate_all(g):
                    counts[r.relation_id][r.status] += 1
                    if r.status == VIOLATED:
                        violated[r.relation_id].append((g.n, g.edges, r.subject, r.lhs, r.rhs))
        assert len(violated["R12"]) > 5  # the cap truncates
        for rid, t in report.tallies.items():
            c = counts[rid]
            assert (t.holds, t.equality, t.violated, t.skipped) == (
                c["holds"], c["equality"], c["violated"], c["skipped-precondition"]), rid
            assert [(w.n, w.edges, w.subject, w.lhs, w.rhs) for w in t.witnesses] == \
                violated[rid][:report.witness_cap], rid


def _eval_pendant(g, prof):
    # degree against 2: violated at every pendant vertex, an equality at
    # degree 2, and holding above it
    for i, deg in enumerate(prof.degrees):
        yield i, deg, 1, 2, 1, True


# a doctored per-vertex relation: only R12, a per-graph one, is violated by
# real data at n <= 7, so no catalog relation reaches the miner's per-vertex
# re-read of a later labeled copy
PENDANT = RelationSpec("RP", "degree is at least 2", (), INEQUALITY, PER_VERTEX, ">=",
                       _eval_pendant)


def per_graph_tallies(n_max, specs):
    """(graph, geodetic, even-cycle-free, tally per spec) of every labeled
    connected graph on 2..n_max vertices, in enumeration order."""
    rows = []
    for n in range(2, n_max + 1):
        for g in enumerate_connected(n):
            d = apsp(g)
            prof = profile(g, d)
            rows.append((g, prof.geodetic, prof.even_cycle_free, [
                tally(spec, g, prof, d, mining.SUBSET_BUDGET_PER_GRAPH) for spec in specs
            ]))
    return rows


class TestClassMemo:
    """Exhaustive shards evaluate one graph per isomorphism class and reuse
    its counts for the others. Their reports must equal a fold of
    relations.tally over every labeled graph, in enumeration order."""

    @pytest.fixture(scope="class")
    def per_graph(self):
        """Every labeled connected graph on 2..6 vertices, with its tally of
        every relation."""
        return per_graph_tallies(6, [relation(rid) for rid in RELATION_IDS])

    @staticmethod
    def fold(per_graph, cap, relation_ids=RELATION_IDS, n_max=6):
        """The report fingerprint of folding every graph's tallies in order,
        keeping the first ``cap`` witnesses of each list."""
        counts = {rid: [0, 0, 0, 0] for rid in relation_ids}
        witnesses = {rid: [] for rid in relation_ids}
        audit = Counter()
        audit_witnesses = {True: [], False: []}  # keyed by geodetic
        for g, geodetic, ecf, tallies in per_graph:
            audit[geodetic, ecf] += 1
            if geodetic != ecf and len(audit_witnesses[geodetic]) < cap:
                audit_witnesses[geodetic].append(mining.Witness(g.n, g.edges, None, 0, 0))
            for rid, (*statuses, violations) in zip(relation_ids, tallies):
                counts[rid] = [a + b for a, b in zip(counts[rid], statuses)]
                for status, row in violations:
                    if len(witnesses[rid]) < cap:
                        r = make_result(relation(rid), status, row)
                        witnesses[rid].append(mining.Witness(g.n, g.edges, r.subject, r.lhs, r.rhs))
        return (
            {"kind": "exhaustive", "n_min": 2, "n_max": n_max},
            tuple(relation_ids),
            len(per_graph),
            {rid: (*counts[rid], tuple(witnesses[rid])) for rid in relation_ids},
            (len(per_graph), audit[True, True], audit[True, False], audit[False, True],
             audit[False, False], tuple(audit_witnesses[True]), tuple(audit_witnesses[False])),
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cap", [0, 1, 3, 16])
    def test_equals_a_fold_over_every_graph(self, per_graph, cap, workers):
        report = mine_exhaustive(6, witness_cap=cap, workers=workers)
        expected = self.fold(per_graph, cap)
        assert report_fingerprint(report) == expected
        if cap:
            assert report.tallies["R12"].witnesses and report.geodetic_audit.geodetic_not_ecf_witnesses

    @pytest.fixture
    def pendant(self, monkeypatch):
        """PENDANT, in the catalog as relation "RP" for one test."""
        monkeypatch.setattr(relations, "RELATION_IDS", relations.RELATION_IDS + ("RP",))
        monkeypatch.setitem(relations._BY_ID, "RP", PENDANT)
        return PENDANT

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cap", [0, 1, 3, 16])
    def test_per_vertex_witnesses_reread_later_copies(self, pendant, cap, workers, monkeypatch):
        """A per-vertex relation violated at every pendant vertex, mined with
        R12, a per-graph one: a later labeled copy of a violating class is
        evaluated again for its per-vertex witnesses, whose subjects depend
        on the labels, and the report still equals the fold over every
        labeled graph. One worker re-reads copies once a kept list has room
        after its class's first graph (cap 3 and 16), and never at caps 0
        and 1, where P2's two pendants fill each n's first list."""
        calls = []
        counted_apsp = mining.apsp
        monkeypatch.setattr(mining, "apsp", lambda g: calls.append(g.n) or counted_apsp(g))
        report = mine_exhaustive(5, relation_ids=["RP", "R12"], witness_cap=cap,
                                 workers=workers)
        per_graph = per_graph_tallies(5, [relation("R12"), pendant])
        assert report_fingerprint(report) == self.fold(per_graph, cap, ("R12", "RP"), 5)
        assert report.tallies["RP"].violated > 0
        if workers == 1:
            classes = 1 + 2 + 6 + 21  # connected classes on 2..5 vertices
            assert (len(calls) > classes) == (cap >= 3), (len(calls), cap)

    def test_one_evaluation_per_connected_class(self, monkeypatch):
        """At the default cap, mine --n-max 5 evaluates each of the 30
        connected classes on 2..5 vertices once: R12, the only relation
        violated there, is per-graph, so the later graphs that give its
        witnesses are not evaluated again."""
        calls = []
        counted_apsp = mining.apsp
        monkeypatch.setattr(mining, "apsp", lambda g: calls.append(g.n) or counted_apsp(g))
        assert main(["mine", "--n-max", "5", "--format", "json"], out=io.StringIO()) == 0
        assert Counter(calls) == {2: 1, 3: 2, 4: 6, 5: 21}


def walk_decodes(shards, cap):
    """How many graphs exhaustive shards over the (n, lo, hi) mask ranges
    must decode, each shard with its own class memo and witness room: the
    first mask of each isomorphism class, whose graph decides the class's
    connectivity, and a later one whose connected class violates a relation,
    or falls in an audit category, that still has fewer than ``cap``
    witnesses. From the oracles' connectivity, canonical forms, relation
    statuses and predicates."""
    decodes = 0
    facts = {}  # (n, class) -> the witnesses a graph of it gives, per list
    for n, lo, hi in shards:
        decodes += len({canonical_mask(n, mask) for mask in range(lo, hi)
                        if not union_find_connected(n, mask_edges(n, mask))})
        seen, kept = set(), Counter()
        for mask, edges in labeled_connected_masks(n):
            if not lo <= mask < hi:
                continue
            key = canonical_mask(n, mask)
            if (n, key) not in facts:
                g = Graph.from_edges(n, edges)
                sides = relation_sides(g)
                witnesses = Counter({rid: sum(relation_status(SENSE[rid], *s)[0] == "violated"
                                              for s in sides[rid].values())
                                     for rid in RELATION_IDS})
                geodetic, ecf = brute_force_geodetic(g), not has_even_cycle(g)
                witnesses["audit", geodetic] += geodetic != ecf
                facts[n, key] = +witnesses
            witnesses = facts[n, key]
            decodes += key not in seen or any(kept[name] < cap for name in witnesses)
            seen.add(key)
            kept.update(witnesses)
    return decodes


class TestMaskWalk:
    """Exhaustive shards walk adjacency masks against the class table and
    decode a labeled graph only where one is read."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cap", [0, DEFAULT_WITNESS_CAP])
    def test_decodes_only_the_graphs_it_reads(self, children, monkeypatch, cap, workers):
        decoded = []
        original = mining.mask_graph

        def counting(n, mask):
            decoded.append((n, mask))
            return original(n, mask)

        monkeypatch.setattr(mining, "mask_graph", counting)
        report = mine_exhaustive(5, witness_cap=cap, workers=workers)
        shards = []
        for n in range(2, 6):
            total = 1 << n * (n - 1) // 2
            chunk = -(-total // workers)
            shards += [(n, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        # min(workers, shards) - 1 children, each mining every workers-th shard
        assert [len(share) for share in children] == (
            [] if workers == 1 else [len(shards[1::workers])])
        assert report.graphs_evaluated == 771
        assert len(decoded) == walk_decodes(shards, cap)

        def share(n, mask):
            return next(i for i, (m, lo, hi) in enumerate(shards)
                        if m == n and lo <= mask < hi) % workers

        # each mask once, ascending within each share; the stand-in children
        # mine their shares when they start, before the caller mines share 0
        assert decoded == sorted(set(decoded), key=lambda nm: ((share(*nm) - 1) % workers, nm))

    def test_class_tables_are_built_before_any_child_starts(self, children, monkeypatch):
        """With several workers the caller builds every n's class table
        first, so that forked children share it instead of each building its
        own."""
        asked = []  # (n, children started when the table was asked for)
        original = mining.mask_classes
        monkeypatch.setattr(mining, "mask_classes", lambda n: (
            asked.append((n, len(children))) or original(n)))
        mine_exhaustive(5, workers=2)
        first = {}
        for n, started in asked:
            first.setdefault(n, started)
        assert first == {n: 0 for n in range(2, 6)}
        assert len(children) == 1


class TestFractionsBuilt:
    """The miner decides every status on integers: it builds Fractions only
    for the two sides of each violation witness it keeps."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        original = F.__new__

        def counting(cls, *args, **kwargs):
            calls.append(cls)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting)
        return calls

    def test_none_without_witnesses(self, built):
        ids = [rid for rid in RELATION_IDS if rid != "R12"]
        report = mine_exhaustive(5, relation_ids=ids)
        assert report.graphs_evaluated == 771
        assert not any(t.witnesses for t in report.tallies.values())
        assert report.geodetic_audit.geodetic_not_ecf_witnesses
        assert len(built) == 0

    def test_two_per_kept_witness(self, built):
        report = mine_exhaustive(5, relation_ids=["R12"])
        witnesses = report.tallies["R12"].witnesses
        assert len(witnesses) == report.tallies["R12"].violated == 12
        assert len(built) == 2 * len(witnesses)


class TestMineRandom:
    def test_identities_hold_on_gnp(self):
        report = mine_random("gnp", {"n": 12, "p": 0.4}, trials=25, seed=7,
                             relation_ids=("R8",))
        assert report.graphs_evaluated == 25
        assert report.tallies["R8"].equality == 25

    def test_stress_bound_on_watts_strogatz(self):
        report = mine_random("watts_strogatz", {"n": 20, "k": 4, "p": 0.1},
                             trials=20, seed=11, relation_ids=("R10b",))
        assert report.tallies["R10b"].violated == 0

    def test_proved_relations_on_gnp(self):
        report = mine_random("gnp", {"n": 8, "p": 0.5}, trials=50, seed=3,
                             relation_ids=("R7", "R4", "R11b"))
        assert report.non_audit_violations == 0

    def test_determinism_and_worker_independence(self):
        kwargs = dict(trials=12, seed=5, relation_ids=("R8", "R10b"))
        a = mine_random("gnp", {"n": 9, "p": 0.45}, **kwargs)
        b = mine_random("gnp", {"n": 9, "p": 0.45}, **kwargs)
        c = mine_random("gnp", {"n": 9, "p": 0.45}, workers=2, **kwargs)
        assert report_fingerprint(a) == report_fingerprint(b) == report_fingerprint(c)

    def test_tallies_fold_evaluate_on_sampled_hosts(self):
        """On WS(24) hosts, where R6 is counted on subset lanes, the counts
        and witnesses equal a fold over evaluate's outcomes, trial by trial
        (no relation is violated on these hosts; witnesses kept from a
        count path are checked in test_relations.TestTally)."""
        params = {"n": 24, "k": 4, "p": 0.1}
        report = mine_random("watts_strogatz", params, trials=10, seed=4, witness_cap=3)
        counts = {rid: Counter() for rid in RELATION_IDS}
        violated = {rid: [] for rid in RELATION_IDS}
        for trial in range(10):
            g = mining._connected_sample("watts_strogatz", params, 4, trial,
                                         mining.CONNECTIVITY_RETRY_CAP)
            d = apsp(g)
            prof = profile(g, d)
            for rid in RELATION_IDS:
                spec = relation(rid)
                for status, row in evaluate(spec, g, prof, d, mining.SUBSET_BUDGET_PER_GRAPH):
                    counts[rid][status] += 1
                    if status == VIOLATED:
                        r = make_result(spec, status, row)
                        violated[rid].append((g.n, g.edges, r.subject, r.lhs, r.rhs))
        assert counts["R6"]["holds"] == 10 * mining.SUBSET_BUDGET_PER_GRAPH
        for rid, t in report.tallies.items():
            c = counts[rid]
            assert (t.holds, t.equality, t.violated, t.skipped) == (
                c["holds"], c["equality"], c["violated"], c["skipped-precondition"]), rid
            assert [(w.n, w.edges, w.subject, w.lhs, w.rhs) for w in t.witnesses] == \
                violated[rid][:report.witness_cap], rid

    def test_different_seeds_differ(self):
        a = mine_random("gnp", {"n": 10, "p": 0.5}, trials=5, seed=1, relation_ids=("R8",))
        b = mine_random("gnp", {"n": 10, "p": 0.5}, trials=5, seed=2, relation_ids=("R8",))
        assert report_fingerprint(a) != report_fingerprint(b)

    def test_retry_cap_exhausted(self):
        with pytest.raises(ConnectivityRetryError):
            mine_random("gnp", {"n": 4, "p": 0.0}, trials=1, seed=0, retry_cap=10)

    @pytest.mark.parametrize("model,params", [
        ("path", {"n": 1}),
        ("complete", {"n": 1}),
        ("star", {"leaves": 0}),
    ], ids=["path", "complete", "star"])
    def test_seedless_model_draws_once(self, monkeypatch, model, params):
        """A model that ignores the seed builds the same graph every draw, so
        one failed draw is final."""
        calls = []
        original = mining.generate

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mining, "generate", counting)
        with pytest.raises(ConnectivityRetryError, match="in 1 attempt "):
            mine_random(model, params, trials=1)
        assert len(calls) == 1

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            mine_random("gnp", {"n": 4, "p": 0.5}, trials=0)


class TestWorkerBound:
    """``workers`` is capped at the CPU count; an in-process stand-in for the
    mining children records each child's share, so no process is started."""

    def test_exhaustive_clamped(self, children):
        report = mine_exhaustive(3, workers=10**6)
        # 2 workers, so 2 shards for each of n = 2 and n = 3, and one child
        # mining the second shard of each
        assert [len(share) for share in children] == [2]
        assert report_fingerprint(report) == report_fingerprint(mine_exhaustive(3))

    def test_random_clamped(self, children):
        report = mine_random("gnp", {"n": 5, "p": 0.6}, trials=6, workers=10**6)
        assert [len(share) for share in children] == [1]
        single = mine_random("gnp", {"n": 5, "p": 0.6}, trials=6)
        assert report_fingerprint(report) == report_fingerprint(single)

    def test_no_child_for_a_single_shard(self, children):
        report = mine_random("gnp", {"n": 5, "p": 0.6}, trials=1, workers=2)
        assert children == []
        single = mine_random("gnp", {"n": 5, "p": 0.6}, trials=1)
        assert report_fingerprint(report) == report_fingerprint(single)

    @pytest.mark.parametrize("mine", [
        lambda workers: mine_exhaustive(4, workers=workers),
        lambda workers: mine_random("watts_strogatz", {"n": 8, "k": 2, "p": 0.3}, trials=5,
                                    seed=7, workers=workers),
    ])
    def test_child_target_and_share_pickle(self, children, mine):
        """Under spawn or forkserver (Python 3.14's default on Linux) a child
        receives its target and share by pickle; the stand-in children mine
        what a pickle round trip gives back."""
        assert pickle.loads(pickle.dumps(mining._mine_share)) is mining._mine_share
        assert report_fingerprint(mine(2)) == report_fingerprint(mine(1))
        assert len(children) == 1


FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the child must inherit this test's monkeypatch, which only fork passes on")


class TestChildFailures:
    """Real children: a failure in any share reaches the caller, and no
    child outlives the call."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(mining.os, "cpu_count", lambda: 2)

    @FORK_ONLY
    def test_child_error_reaches_the_caller(self, monkeypatch):
        caller = os.getpid()
        original = mining._connected_sample

        def failing(model, params, seed, trial, attempts):
            if os.getpid() != caller:
                raise ConnectivityRetryError(f"no sample for trial {trial} in the child")
            return original(model, params, seed, trial, attempts)

        monkeypatch.setattr(mining, "_connected_sample", failing)
        # trials 0..2 are the caller's shard, 3..5 the child's
        with pytest.raises(ConnectivityRetryError, match=r"^no sample for trial 3 in the child$"):
            mine_random("gnp", {"n": 5, "p": 0.6}, trials=6, workers=2)
        assert multiprocessing.active_children() == []

    @FORK_ONLY
    def test_child_that_exits_without_replying(self, monkeypatch):
        caller = os.getpid()
        original = mining._mine_shard

        def dying(task):
            if os.getpid() != caller:
                os._exit(1)
            return original(task)

        monkeypatch.setattr(mining, "_mine_shard", dying)
        with pytest.raises(RuntimeError, match="exited with code 1 "):
            mine_exhaustive(4, workers=2)
        assert multiprocessing.active_children() == []

    def test_caller_error_reaps_every_child(self, monkeypatch):
        caller = os.getpid()
        original = mining._mine_shard

        def failing(task):
            if os.getpid() == caller:
                raise ValueError("the caller's share failed")
            time.sleep(60)  # a forked child is still mining when the caller fails
            return original(task)

        monkeypatch.setattr(mining, "_mine_shard", failing)
        start = time.monotonic()
        with pytest.raises(ValueError, match="the caller's share failed"):
            mine_exhaustive(4, workers=2)
        assert time.monotonic() - start < 30  # terminated, not waited for
        assert multiprocessing.active_children() == []


class TestLimits:
    """Out-of-range budgets raise ValueError before any graph is mined; the
    child process and its pipe, the enumerator, the class table the
    exhaustive walk starts from and the generator are stubs that refuse to
    work, so nothing is started."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mining started")

        monkeypatch.setattr(mining, "Process", refuse)
        monkeypatch.setattr(mining, "Pipe", refuse)
        monkeypatch.setattr(mining, "enumerate_connected_range", refuse)
        monkeypatch.setattr(mining, "mask_classes", refuse)
        monkeypatch.setattr(mining, "generate", refuse)

    @pytest.mark.parametrize("kwargs,message", [
        ({"witness_cap": -1}, "witness_cap"),
        ({"workers": 0}, "workers"),
        ({"workers": -4}, "workers"),
    ])
    def test_exhaustive(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            mine_exhaustive(3, **kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"witness_cap": -1}, "witness_cap"),
        ({"workers": 0}, "workers"),
        ({"workers": -4}, "workers"),
        ({"retry_cap": 0}, "retry_cap"),
        ({"retry_cap": -3}, "retry_cap"),
        ({"retry_cap": (1 << 20) + 1}, "retry_cap"),
        ({"seed": -1}, "seed"),
    ])
    def test_random(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            mine_random("gnp", {"n": 5, "p": 0.6}, trials=2, **kwargs)


class TestGeodeticAudit:
    def test_k4_is_a_witness_at_n4(self):
        report = mine_exhaustive(4, relation_ids=())
        k4 = complete_graph(4)
        assert report.geodetic_audit.ecf_not_geodetic == 0
        found = [
            w for w in report.geodetic_audit.geodetic_not_ecf_witnesses
            if (w.n, w.edges) == (k4.n, k4.edges)
        ]
        assert found

    def test_no_counterexamples_at_n3(self):
        report = mine_exhaustive(3, relation_ids=())
        assert report.geodetic_audit.graphs == 5
        assert report.geodetic_audit.geodetic_not_ecf == 0
        assert report.geodetic_audit.ecf_not_geodetic == 0
        assert report.geodetic_audit.ecf_and_geodetic == 5

    def test_tallies_empty_without_relations(self):
        report = mine_exhaustive(3, relation_ids=())
        assert report.relation_ids == ()
        assert report.tallies == {}


class TestEqualityCensus:
    def test_r11_census_includes_c4(self):
        entries = list(equality_census("R11", 4))
        assert (cycle_graph(4), None) in entries
        assert len(entries) == 11  # K3 plus the pendant-free diameter-2 graphs on 4 vertices

    def test_r4_census_at_n3_is_path_centers(self):
        entries = list(equality_census("R4", 3))
        assert (path_graph(3), 1) in entries
        assert all(g.m == 2 for g, _ in entries)  # only paths are tight at n=3
        assert len(entries) == 3

    def test_r8_census_covers_every_graph(self):
        assert sum(1 for _ in equality_census("R8", 3)) == 5

    def test_census_entries_replay(self):
        for g, subject in equality_census("R11", 4):
            d = apsp(g)
            prof = profile(g, d)
            spec = relation("R11")
            results = [make_result(spec, *outcome) for outcome in evaluate(spec, g, prof, d)]
            results = [r for r in results if r.subject == subject]
            assert results and results[0].status == EQUALITY

    def test_census_bounds(self):
        with pytest.raises(ValueError):
            list(equality_census("R8", 8))
        with pytest.raises(ValueError):
            list(equality_census("R99", 4))

    def test_census_equals_evaluating_every_graph(self):
        """For every relation, the census is ``evaluate``'s equality outcomes
        on each labeled connected graph with n <= 5, in the same order."""
        expected = {rid: [] for rid in RELATION_IDS}
        for n in range(2, 6):
            for g in enumerate_connected(n):
                d = apsp(g)
                prof = profile(g, d)
                for rid in RELATION_IDS:
                    outcomes = evaluate(relation(rid), g, prof, d, mining.SUBSET_BUDGET_PER_GRAPH)
                    expected[rid] += [(g, row[0]) for status, row in outcomes
                                      if status == EQUALITY]
        for rid in RELATION_IDS:
            assert list(equality_census(rid, 5)) == expected[rid], rid

    def test_census_evaluates_a_per_graph_relation_once_per_class(self, monkeypatch):
        """R8 is an equality on every graph; each of the 30 connected classes
        on 2..5 vertices (1 + 2 + 6 + 21) is evaluated once, and its 771
        labeled graphs are all yielded."""
        calls = []
        evaluate = relations.evaluate
        monkeypatch.setattr(relations, "evaluate",
                            lambda spec, g, *args: calls.append(g.n) or evaluate(spec, g, *args))
        entries = list(equality_census("R8", 5))
        assert Counter(calls) == {2: 1, 3: 2, 4: 6, 5: 21}
        assert len(entries) == 771
        assert [g for g, _ in entries] == [g for n in range(2, 6) for g in enumerate_connected(n)]
        assert {subject for _, subject in entries} == {None}
