"""Command-line interface: compute, check, mine, and gen.

Output is a stable report document (text or JSON) suitable for scripting and
regression testing: identical invocations produce byte-identical documents.
Rationals are serialized as "numerator/denominator" strings in lowest terms;
the accompanying ``*_approx`` decimal fields are display-only.

JSON is laid out as ``json.dumps(document, indent=2)`` would lay it out.
Each command writes its text lines and its JSON rows straight from what it
computed, the rows by string templates: ``check`` from the ``(status,
row)`` outcomes of ``relations.evaluate``, one call per selected relation,
with no ``RelationResult`` built, ``compute`` from the profile's integer
columns and ``mine`` from its ``MiningReport``. ``check`` builds ``apsp``'s
distance rows only when R6, the one relation that reads them, is selected
(``relations.reads_distance_rows``).
``_write_json`` lays out only each document's small head. A JSON document
goes to the output a piece at a time as it is laid out. The argument parser
is built once, at import, and serves every call of :func:`main`.

Exit codes: 0 success (audit findings included), 2 usage or parse error,
3 disconnected input graph, 4 violation of a non-audit relation.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from decimal import Decimal
from functools import partial
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter
from typing import Sequence

from . import relations as rel
from .graphs import (
    MODEL_PARAMS,
    MODELS,
    EdgeListError,
    Graph,
    generate,
    parse_edge_list,
    serialize_edge_list,
)
from .metrics import DisconnectedGraphError, apsp, profile
from .mining import (
    DEFAULT_WITNESS_CAP,
    ConnectivityRetryError,
    MiningReport,
    Witness,
    mine_exhaustive,
    mine_random,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DISCONNECTED = 3
EXIT_VIOLATION = 4


# CPython (3.11, and 3.10.7 on) refuses str() and int() on ints past a digit
# limit, 4300 digits by default. Exact rationals outgrow it (R7's right side
# near n = 3600 on Watts-Strogatz hosts). The C decimal module converts ints
# both ways without that limit, so the CLI writes and reads them through Decimal.


def _integer(text: str) -> int:
    """``int(text)``, also past the limit for an optional sign and ASCII digits."""
    digits = text[text[:1] in ("+", "-"):]
    return int(Decimal(text)) if digits.isascii() and digits.isdigit() else int(text)


def format_rational(value: Fraction) -> str:
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational` (also accepts bare integers), at any length."""
    num, _, den = text.partition("/")
    return Fraction(_integer(num), _integer(den)) if den else Fraction(_integer(num))


def _rational(num: int, den: int) -> tuple[str, float]:
    """The rational num/den as ``format_rational(Fraction(num, den))`` and
    ``float(Fraction(num, den))``, without building it: the float is
    ``num / den`` in lowest terms, and formats as json writes it."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    num, den = num // g, den // g
    try:  # converting every side through Decimal cost check-smallworld 9 % of its graphs/s
        return f"{num}/{den}", num / den
    except ValueError:  # a side past the interpreter's int-to-str limit
        return f"{Decimal(num)}/{Decimal(den)}", num / den


def _put_rational(entry: dict, name: str, num: int, den: int) -> None:
    """Set ``entry[name]`` and ``entry[name + "_approx"]`` for num/den."""
    entry[name], entry[name + "_approx"] = _rational(num, den)


# ---------------------------------------------------------------------------
# document heads and row templates
# ---------------------------------------------------------------------------

_FLAG = ("false", "true")


def _profile_head(g: Graph, prof) -> dict:
    """The ``compute`` payload's graph-level entries, formatted from the
    profile's integer pairs."""
    n = g.n
    head: dict[str, object] = {"n": n, "m": g.m, "diameter": prof.diameter}
    _put_rational(head, "L", prof.distance_total, n * (n - 1))
    _put_rational(head, "C_WS", *prof.average_clustering_pair)
    if prof.global_clustering_pair is None:
        head["C_global"] = None
        head["C_global_approx"] = None
    else:
        _put_rational(head, "C_global", *prof.global_clustering_pair)
    head["geodetic"] = prof.geodetic
    head["even_cycle_free"] = prof.even_cycle_free
    return head


def _vertex_columns(prof):
    """Per vertex: (id, degree, clustering, closeness, radiality, stress,
    pendant, complete_neighborhood), each rational as its integer pair."""
    return zip(
        range(prof.n), prof.degrees, prof.clustering_pairs(), prof.closeness_pairs(),
        prof.radiality_pairs(), prof.stress, prof.pendant, prof.complete_neighborhood,
    )


def _int_text(value: int) -> str:
    """``str(value)``, also past the interpreter's int-to-str limit."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


def _vertex_rows(prof, pad: str, out) -> None:
    """Pass ``compute``'s per-vertex entries to ``out`` as :func:`_write_json`
    lays them out in a list indented by ``pad``: one string per vertex, from
    the profile's integer columns."""
    row = pad + "  "  # each entry's braces
    key = row + "  "  # an entry's keys
    sep = ",\n" + key
    text = ("{\n" + key + '"id": %d' + sep + '"degree": %d'
            + sep + '"clustering": "%s"' + sep + '"clustering_approx": %r'
            + sep + '"closeness": "%s"' + sep + '"closeness_approx": %r'
            + sep + '"radiality": "%s"' + sep + '"radiality_approx": %r'
            + sep + '"stress": %s' + sep + '"pendant": %s'
            + sep + '"complete_neighborhood": %s\n' + row + "}")
    lead = "[\n" + row
    for v, deg, clustering, closeness, radiality, stress, pendant, complete in (
            _vertex_columns(prof)):
        out(lead + text % (
            v, deg, *_rational(*clustering), *_rational(*closeness), *_rational(*radiality),
            _int_text(stress), _FLAG[pendant], _FLAG[complete],
        ))
        lead = ",\n" + row
    out("\n" + pad + "]")  # a profile has at least two vertices


def _witness_rows(witnesses: Sequence[Witness], sides: bool, pad: str, out) -> None:
    """Pass ``witnesses`` to ``out`` as :func:`_write_json` lays out their
    entries in a list indented by ``pad``: one string per witness, from its
    n, its edge pairs, its subject and, with ``sides``, both sides' numerators
    and denominators."""
    if not witnesses:
        out("[]")
        return
    row = pad + "  "  # each witness's braces
    key = row + "  "  # a witness's keys
    sub = key + "  "  # its edge pairs and its subject's key
    item = sub + "  "  # an edge's ends and a subset's members
    sep = ",\n" + key
    edge = "[\n" + item + "%d,\n" + item + "%d\n" + sub + "]"
    edge_sep = ",\n" + sub
    member_sep = ",\n" + item
    vertex = "{\n" + sub + '"vertex": %d\n' + key + "}"
    subset = "{\n" + sub + '"subset": [\n' + item + "%s\n" + sub + "]\n" + key + "}"
    head = "{\n" + key + '"n": %d' + sep + '"edges": [\n' + sub
    edges_tail = "\n" + key + "]" + sep + '"subject": '
    both_sides = (sep + '"lhs": "%s"' + sep + '"lhs_approx": %r'
                  + sep + '"rhs": "%s"' + sep + '"rhs_approx": %r')
    lead = "[\n" + row
    for w in witnesses:
        # a witness graph is connected on at least two vertices, so it has
        # edges, and a subset subject has at least two members
        text = lead + head % w.n + edge_sep.join([edge % pair for pair in w.edges]) + edges_tail
        subject = w.subject
        if subject is None:
            text += "null"
        elif type(subject) is int:
            text += vertex % subject
        else:
            text += subset % member_sep.join(map(str, subject))
        if sides:
            lhs, rhs = w.lhs, w.rhs
            text += both_sides % (*_rational(lhs.numerator, lhs.denominator),
                                  *_rational(rhs.numerator, rhs.denominator))
        out(text + "\n" + row + "}")
        lead = ",\n" + row
    out("\n" + pad + "]")


def _relation_rows(report: MiningReport, pad: str, out) -> None:
    """Pass ``mine``'s tallies to ``out`` as :func:`_write_json` lays out
    their dict, keyed by relation id, indented by ``pad``: per relation one
    string from its fixed head and its four counts, then its witnesses by
    :func:`_witness_rows`."""
    if not report.relation_ids:
        out("{}")
        return
    name = pad + "  "  # each relation's id
    key = name + "  "  # its tally's keys
    sep = ",\n" + key
    counts = (sep + '"holds": %d' + sep + '"equality": %d' + sep + '"violated": %d'
              + sep + '"skipped": %d' + sep + '"witnesses": ')
    lead = "{\n" + name
    for rid in report.relation_ids:
        tally = report.tallies[rid]
        out(lead + encode_basestring_ascii(rid) + ": {\n" + key + '"kind": '
            + encode_basestring_ascii(rel.relation(rid).kind)
            + counts % (tally.holds, tally.equality, tally.violated, tally.skipped))
        _witness_rows(tally.witnesses, True, key, out)
        lead = "\n" + name + "},\n" + name
    out("\n" + name + "}\n" + pad + "}")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _document(argv: Sequence[str], payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": list(argv), "payload": payload}


def _write_document(argv: Sequence[str], payload: dict, out) -> None:
    """Write ``json.dumps(document, indent=2) + "\\n"`` to ``out`` piece by
    piece as it is laid out, so that no copy of the whole text is built; a
    ``partial`` in the payload stands for the list or dict whose text it
    writes by a row template."""
    _write_json(_document(argv, payload), "", out.write)
    out.write("\n")


_INFINITY = float("inf")


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return repr(value)


def _write_json(value, pad: str, out) -> None:
    """Pass ``value`` to ``out`` in pieces, laid out as ``json.dumps`` lays it
    out with ``indent=2`` when the value starts on a line indented by ``pad``.

    Takes the types the document heads hold: dicts with str keys, lists,
    tuples, str, int, float, bool and None. A ``functools.partial`` writes
    itself: it is called with ``pad`` and ``out``, and its text is passed
    through verbatim. Anything else raises TypeError instead of being
    converted, so the layout cannot drift from json's.
    """
    kind = type(value)
    if kind is str:
        out(encode_basestring_ascii(value))
    elif kind is int:
        out(str(Decimal(value)))
    elif kind is float:
        out(_json_float(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif kind is dict or kind is list or kind is tuple:
        if not value:
            out("{}" if kind is dict else "[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if kind is dict:
            lead = "{\n" + inner
            for key, item in value.items():
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                out(lead + encode_basestring_ascii(key) + ": ")
                _write_json(item, inner, out)
                lead = sep
            out("\n" + pad + "}")
        else:
            lead = "[\n" + inner
            for item in value:
                out(lead)
                _write_json(item, inner, out)
                lead = sep
            out("\n" + pad + "]")
    elif kind is partial:
        value(pad, out)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _fmt_value(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render_profile_text(head: dict, prof) -> str:
    lines = [
        f"# centaudit compute (schema {SCHEMA_VERSION})",
        f"graph: n={head['n']} m={head['m']}",
        f"diameter: {head['diameter']}",
        f"L: {head['L']}",
        f"C_WS: {head['C_WS']}",
        f"C_global: {_fmt_value(head['C_global'])}",
        f"geodetic: {_fmt_value(head['geodetic'])}",
        f"even_cycle_free: {_fmt_value(head['even_cycle_free'])}",
    ]
    for v, deg, clustering, closeness, radiality, stress, pendant, complete in (
            _vertex_columns(prof)):
        lines.append(
            f"vertex {v}: degree={deg} clustering={_rational(*clustering)[0]} "
            f"closeness={_rational(*closeness)[0]} radiality={_rational(*radiality)[0]} "
            f"stress={Decimal(stress)} pendant={_fmt_value(pendant)} "
            f"complete_neighborhood={_fmt_value(complete)}"
        )
    return "".join(line + "\n" for line in lines)


def _outcome_sides(spec: rel.RelationSpec, outcomes: list[rel.Outcome]):
    """Per ``(status, row)`` outcome of ``spec``: its status, its subject and
    its lhs, rhs and slack as :func:`_rational` pairs, the slack oriented by
    the comparison. A left side equal to the row before's is formatted once:
    R6's is L on every row."""
    sense = spec.sense
    last = lhs = None
    for status, (subject, ln, ld, rn, rd, _) in outcomes:
        if (ln, ld) != last:
            last, lhs = (ln, ld), _rational(ln, ld)
        yield (status, subject, lhs, _rational(rn, rd),
               _rational(rel._oriented_difference(sense, ln, ld, rn, rd), ld * rd))


def _result_rows(outcomes, n: int, pad: str, out) -> None:
    """Pass ``check``'s ``outcomes`` on a graph of ``n`` vertices, each
    selected relation's spec with its ``(status, row)`` outcomes, to ``out``
    as :func:`_write_json` lays out their entries in a list indented by
    ``pad``: one string per outcome, from its relation's template, its
    subject, its status and its three rationals."""
    row = pad + "  "  # each row's braces
    key = row + "  "  # a row's keys
    sub = key + "  "  # the subject's key
    sep = ",\n" + key
    # subset members behind their separators: "[" + joined[1:] opens the list
    members = [",\n" + sub + "  " + str(v) for v in range(n)]
    vertex_head = "{\n" + sub + '"vertex": '
    vertex_tail = "\n" + key + "}"
    subset_head = "{\n" + sub + '"subset": ['
    subset_tail = "\n" + sub + "]\n" + key + "}"
    tail = (sep + '"status": %s' + sep + '"lhs": "%s"' + sep + '"lhs_approx": %r'
            + sep + '"rhs": "%s"' + sep + '"rhs_approx": %r' + sep + '"slack": "%s"'
            + sep + '"slack_approx": %r\n' + row + "}")
    lead = "[\n" + row
    for spec, spec_outcomes in outcomes:
        text = ("{\n" + key + '"relation": ' + encode_basestring_ascii(spec.id)
                + sep + '"kind": ' + encode_basestring_ascii(spec.kind)
                + sep + '"audit": ' + _FLAG[spec.audit] + sep + '"subject": %s' + tail)
        for status, subject, lhs, rhs, slack in _outcome_sides(spec, spec_outcomes):
            if subject is None:
                subject_text = "null"
            elif type(subject) is int:
                subject_text = vertex_head + str(subject) + vertex_tail
            else:  # a subset has at least two members
                subject_text = (subset_head + "".join(itemgetter(*subject)(members))[1:]
                                + subset_tail)
            out(lead + text % (subject_text, encode_basestring_ascii(status),
                               *lhs, *rhs, *slack))
            lead = ",\n" + row
    out("\n" + pad + "]" if any(spec_outcomes for _, spec_outcomes in outcomes) else "[]")


def _render_check_text(g: Graph, outcomes, non_audit: int, audit: int) -> str:
    lines = [f"# centaudit check (schema {SCHEMA_VERSION})", f"graph: n={g.n} m={g.m}"]
    for spec, spec_outcomes in outcomes:
        text = (spec.id + " %s: %s lhs=%s rhs=%s slack=%s"
                + (" [audit]" if spec.audit else ""))
        lines += [text % (_subject_text(subject), status, lhs[0], rhs[0], slack[0])
                  for status, subject, lhs, rhs, slack in _outcome_sides(spec, spec_outcomes)]
    lines.append(f"violations: non_audit={non_audit} audit={audit}")
    return "".join(line + "\n" for line in lines)


def _subject_text(subject: rel.Subject) -> str:
    if subject is None:
        return "graph"
    if isinstance(subject, int):
        return f"vertex {subject}"
    return "subset {" + ",".join(map(str, subject)) + "}"


def _edges_text(edges) -> str:
    return ",".join(f"{u}-{v}" for u, v in edges)


def _render_mine_text(report: MiningReport) -> str:
    pop = report.population
    if pop["kind"] == "exhaustive":
        pop_text = f"exhaustive n={pop['n_min']}..{pop['n_max']}"
    else:
        params = " ".join(f"{k}={v}" for k, v in pop["params"].items())
        pop_text = (
            f"random model={pop['model']} {params} trials={pop['trials']} "
            f"seed={pop['seed']}"
        )
    lines = [
        f"# centaudit mine (schema {SCHEMA_VERSION})",
        f"population: {pop_text}",
        f"graphs: {report.graphs_evaluated}",
    ]
    for rid in report.relation_ids:
        tally = report.tallies[rid]
        flag = " [audit]" if rel.relation(rid).audit else ""
        lines.append(
            f"{rid}: holds={tally.holds} equality={tally.equality} "
            f"violated={tally.violated} skipped={tally.skipped}{flag}"
        )
        for w in tally.witnesses:
            lines.append(
                f"  witness n={w.n} edges={_edges_text(w.edges)} "
                f"subject={_subject_text(w.subject)} "
                f"lhs={format_rational(w.lhs)} rhs={format_rational(w.rhs)}"
            )
    audit = report.geodetic_audit
    lines.append(
        f"geodetic_audit: ecf_and_geodetic={audit.ecf_and_geodetic} "
        f"geodetic_not_ecf={audit.geodetic_not_ecf} "
        f"ecf_not_geodetic={audit.ecf_not_geodetic} neither={audit.neither}"
    )
    for kind, witnesses in (("geodetic_not_ecf", audit.geodetic_not_ecf_witnesses),
                            ("ecf_not_geodetic", audit.ecf_not_geodetic_witnesses)):
        for w in witnesses:
            lines.append(f"  {kind} witness n={w.n} edges={_edges_text(w.edges)}")
    non_audit, audit_violations = report.violations
    lines.append(f"violations: non_audit={non_audit} audit={audit_violations}")
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _read_graph(path: str) -> Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    g = parse_edge_list(text)
    # checked before any per-vertex structure is built, so a huge header
    # over a few edges fails at once
    if g.n > g.m + 1:
        raise DisconnectedGraphError(
            f"graph is disconnected: {g.n} vertices but only {g.m} edges"
        )
    return g


def _cmd_compute(args, argv, out) -> int:
    g = _read_graph(args.input)
    prof = profile(g)
    head = _profile_head(g, prof)
    if args.format == "json":
        _write_document(argv, {**head, "vertices": partial(_vertex_rows, prof)}, out)
    else:
        out.write(_render_profile_text(head, prof))
    return EXIT_OK


def _parse_relation_ids(text: str) -> tuple[str, ...]:
    if text == "all":
        return rel.RELATION_IDS
    ids = [token.strip() for token in text.split(",") if token.strip()]
    if not ids:
        raise ValueError("no relation ids given")
    return rel.select_ids(ids)


def _cmd_check(args, argv, out) -> int:
    specs = [rel.relation(rid) for rid in _parse_relation_ids(args.relations)]
    g = _read_graph(args.input)
    prof = profile(g, apsp(g)) if rel.reads_distance_rows(specs) else profile(g)
    outcomes = [(spec, rel.evaluate(spec, prof)) for spec in specs]
    non_audit, audit = rel.violation_counts(
        (spec.id, sum(status == rel.VIOLATED for status, _ in spec_outcomes))
        for spec, spec_outcomes in outcomes
    )
    if args.format == "json":
        _write_document(argv, {
            "graph": {"n": g.n, "m": g.m},
            "results": partial(_result_rows, outcomes, g.n),
            "non_audit_violations": non_audit,
            "audit_violations": audit,
        }, out)
    else:
        out.write(_render_check_text(g, outcomes, non_audit, audit))
    return EXIT_OK if non_audit == 0 else EXIT_VIOLATION


def _model_params(args) -> dict:
    given = {key: getattr(args, key) for key in MODEL_PARAMS}
    params = {key: value for key, value in given.items() if value is not None}
    model = args.model
    required = set(MODELS[model][1])
    missing = required - set(params)
    if missing:
        raise ValueError(f"model {model!r} requires {sorted(missing)}")
    extra = set(params) - required
    if extra:
        raise ValueError(f"model {model!r} does not take {sorted(extra)}")
    return params


def _cmd_mine(args, argv, out) -> int:
    relation_ids = _parse_relation_ids(args.relations)
    if (args.n_max is None) == (args.model is None):
        raise ValueError("give exactly one of --n-max (exhaustive) or --model (random)")
    if args.n_max is not None:
        ignored = [
            f"--{key}"
            for key in ("trials", "seed", *MODEL_PARAMS)
            if getattr(args, key) is not None
        ]
        if ignored:
            raise ValueError(f"--n-max mining takes no {', '.join(ignored)}")
        report = mine_exhaustive(
            args.n_max,
            relation_ids=relation_ids,
            witness_cap=args.witness_cap,
            workers=args.workers,
        )
    else:
        if args.trials is None:
            raise ValueError("--model mining requires --trials")
        report = mine_random(
            args.model,
            _model_params(args),
            trials=args.trials,
            seed=0 if args.seed is None else args.seed,
            relation_ids=relation_ids,
            witness_cap=args.witness_cap,
            workers=args.workers,
        )
    if args.format == "json":
        audit = report.geodetic_audit
        non_audit, audit_violations = report.violations
        _write_document(argv, {
            "population": report.population,
            "graphs_evaluated": report.graphs_evaluated,
            "witness_cap": report.witness_cap,
            "relations": partial(_relation_rows, report),
            "geodetic_audit": {
                "graphs": audit.graphs,
                "ecf_and_geodetic": audit.ecf_and_geodetic,
                "geodetic_not_ecf": audit.geodetic_not_ecf,
                "ecf_not_geodetic": audit.ecf_not_geodetic,
                "neither": audit.neither,
                "geodetic_not_ecf_witnesses": partial(
                    _witness_rows, audit.geodetic_not_ecf_witnesses, False),
                "ecf_not_geodetic_witnesses": partial(
                    _witness_rows, audit.ecf_not_geodetic_witnesses, False),
            },
            "non_audit_violations": non_audit,
            "audit_violations": audit_violations,
        }, out)
    else:
        out.write(_render_mine_text(report))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_gen(args, argv, out) -> int:
    g = generate(args.model, _model_params(args), args.seed)
    text = serialize_edge_list(g)
    if args.output == "-":
        out.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    for name, kind in MODEL_PARAMS.items():
        parser.add_argument(f"--{name}", type=kind, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centaudit",
        description="Exact graph centralities, relation checking, and counterexample mining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="centrality profile of one graph")
    compute.add_argument("input", help="edge-list file, or - for stdin")
    compute.add_argument("--format", choices=("text", "json"), default="text")
    compute.set_defaults(func=_cmd_compute)

    check = sub.add_parser("check", help="evaluate catalog relations on one graph")
    check.add_argument("input", help="edge-list file, or - for stdin")
    check.add_argument("--relations", default="all", help="comma-separated ids or 'all'")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.set_defaults(func=_cmd_check)

    mine = sub.add_parser("mine", help="verify relations over a graph population")
    mine.add_argument("--n-max", type=int, default=None, dest="n_max",
                      help="exhaustive mining over all connected graphs with 2..N vertices, N <= 7")
    mine.add_argument("--model", choices=tuple(MODELS), default=None)
    mine.add_argument("--trials", type=int, default=None)
    mine.add_argument("--seed", type=int, default=None,
                      help="random mining seed (default 0)")
    _add_model_flags(mine)
    mine.add_argument("--relations", default="all")
    mine.add_argument("--witness-cap", type=int, default=DEFAULT_WITNESS_CAP)
    mine.add_argument("--workers", type=int, default=1)
    mine.add_argument("--format", choices=("text", "json"), default="text")
    mine.set_defaults(func=_cmd_mine)

    gen = sub.add_parser("gen", help="write a generated graph as an edge list")
    gen.add_argument("--model", required=True, choices=tuple(MODELS))
    _add_model_flags(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("output", nargs="?", default="-", help="output path, or - for stdout")
    gen.set_defaults(func=_cmd_gen)

    return parser


# built once, at import, and reused by every call of :func:`main`
PARSER = build_parser()


def main(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = out or sys.stdout
    err = err or sys.stderr
    args = PARSER.parse_args(argv)
    try:
        return args.func(args, argv, out)
    except EdgeListError as exc:
        print(f"centaudit: parse error: {exc}", file=err)
        return EXIT_USAGE
    except DisconnectedGraphError as exc:
        print(f"centaudit: {exc}", file=err)
        return EXIT_DISCONNECTED
    except (ValueError, ConnectivityRetryError) as exc:
        print(f"centaudit: {exc}", file=err)
        return EXIT_USAGE
    except OSError as exc:
        print(f"centaudit: {exc}", file=err)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
