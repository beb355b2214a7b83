"""CSV ingestion, constraint parsing, orchestration, and reporting.

Exact rationals are the source of truth in reports; decimal fields are
derived display values. Fractions are intentionally unreduced (count over
row total), e.g. "2/4" for removing two of four rows.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

from . import generators
from .constraints import (
    Constraint,
    ConstraintVerdict,
    MeasureResult,
    Nmvd,
    SpCj,
    SpFd,
    SpKey,
    SpMvd,
)
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ConstraintParseError,
    PreconditionError,
    SpcheckError,
    TableLoadError,
)
from .oracle import oracle_check, oracle_g3, oracle_g5, world_count
from .spfd import check_spfd, g3_spfd, g5_spfd
from .spkey import KeyAnalysis, check_spkey, g3_spkey, g4_spkey, g5_spkey
from .table import SSYMB, IncompleteTable, Schema
from .tuplegen import (
    MvdAnalysis,
    check_nmvd,
    check_spcj,
    check_spmvd,
    g3_spcj,
    g3_spmvd,
    g5_spcj,
    g5_spmvd,
)

ORACLE_MAX_ROWS = 8
ORACLE_MAX_COLS = 4
ORACLE_MAX_WORLDS = 1_000_000


# ---------------------------------------------------------------------------
# Ingestion


_TABLES_KEPT = 2
_tables: dict = {}  # (bytes, null_token, has_header) -> table, oldest first


def load_csv(path, null_token: str = "", has_header: bool = True) -> IncompleteTable:
    """Read a rectangular CSV; cells equal to ``null_token`` become NULL,
    every other cell is taken verbatim (no trimming) and interned.

    The bytes are read on every call; the tables of the last
    ``_TABLES_KEPT`` distinct (bytes, null token, header flag) are kept
    and returned again unparsed, so a file rewritten in place is never
    answered from its old table. Only in-process callers gain: a one-shot
    ``spcheck`` run parses once. A parse joins the records' fields to one
    flat list, then cuts the rows from it, each distinct cell text mapped
    once. A file that is not UTF-8, that ``csv`` cannot parse, or whose
    first line has no fields is a ``TableLoadError``."""
    try:
        key = (Path(path).read_bytes(), null_token, has_header)
        if (table := _tables.get(key)) is not None:
            return table
        reader = csv.reader(io.StringIO(key[0].decode("utf-8-sig"), newline=""))
        first = next(reader, None)
        if first is None:
            raise TableLoadError(f"{path}: empty file")
        if not first:
            raise TableLoadError(f"{path}: no columns (the first line is blank)")
        if has_header:
            header, cells = first, []
            if len(set(header)) != len(header):
                raise TableLoadError(f"{path}: duplicate header names")
            if not all(header):
                raise TableLoadError(f"{path}: empty header name")
        else:
            header, cells = [f"A{i + 1}" for i in range(len(first))], first
        arity = len(header)
        for lineno, record in enumerate(reader, start=2):
            if len(record) != arity:
                if record or arity != 1:
                    raise TableLoadError(
                        f"{path}: row {lineno} has {len(record)} fields, expected {arity}")
                record = [""]  # a blank line is one empty field
            cells += record
    except OSError as err:
        raise TableLoadError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        # Lines end in \n, \r\n or \r, as csv counts them; none is inside a character.
        line = len((err.object[:err.start] + b".").splitlines())
        raise TableLoadError(f"{path}: line {line}: not UTF-8 text ({err.reason})") from None
    except csv.Error as err:
        raise TableLoadError(f"{path}: line {reader.line_num}: {err}") from None
    memo = {text: sys.intern(text) for text in set(cells)}
    memo[null_token] = None
    # zip draws from one iterator arity times, so each row takes the
    # next arity cells.
    rows = tuple(zip(*[map(memo.__getitem__, cells)] * arity))
    _tables[key] = table = IncompleteTable(Schema(tuple(header)), rows, null_token)
    for old in list(_tables)[:-_TABLES_KEPT]:  # each step one dict operation: threads need no lock
        _tables.pop(old, None)
    return table


def write_csv(table: IncompleteTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.attributes)
        for row in table.rows:
            writer.writerow([table.null_token if c is None else c for c in row])


# ---------------------------------------------------------------------------
# Constraint specifications


_SPEC_RE = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$", re.DOTALL)


def _attr_list(text: str, schema: Schema, spec: str) -> frozenset:
    names = [name.strip() for name in text.split(",")]
    if not any(names) or "" in names:
        raise ConstraintParseError(f"{spec!r}: empty attribute list")
    try:
        return schema.positions(names)
    except KeyError as err:
        raise ConstraintParseError(f"{spec!r}: {err.args[0]}") from None


_KINDS = {cls.keyword: cls for cls in Constraint.__subclasses__()}


def parse_constraint(spec: str, schema: Schema) -> Constraint:
    """Grammar: kind "(" attrs ( "->" | "->>" | "x" attrs )? ")".

    Whitespace-insensitive; attribute lists are comma-separated. For
    cross joins the standalone word ``x`` separates the two sides.
    """
    match = _SPEC_RE.match(spec)
    if not match:
        raise ConstraintParseError(f"{spec!r}: expected kind(...)")
    kind, body = match.group(1).lower(), match.group(2)
    cls = _KINDS.get(kind)
    if cls is None:
        raise ConstraintParseError(f"{spec!r}: unknown constraint kind {kind!r}")
    sep = cls.separator
    if not sep:
        return cls(_attr_list(body, schema, spec))
    if cls is SpFd and "->>" in body:
        raise ConstraintParseError(f"{spec!r}: use spmvd for '->>'")
    word = sep.isalpha()
    sides = re.split(rf"\b{sep}\b" if word else re.escape(sep), body, maxsplit=1)
    if len(sides) != 2:
        raise ConstraintParseError(
            f"{spec!r}: expected {'the separator ' if word else ''}'{sep}'")
    return cls(*(_attr_list(side, schema, spec) for side in sides))


# ---------------------------------------------------------------------------
# Orchestration


@dataclass(frozen=True)
class RunOptions:
    measures: tuple = ("g3", "g5")
    budget: int = DEFAULT_BUDGET
    verify_with_oracle: bool = False


class _Engines(NamedTuple):
    """A constraint kind's check and its measures by name, each called as
    ``f(table, constraint, budget, done)``. ``done`` holds what the
    constraint entry has computed so far, dropped with the entry: the
    check's verdict under "check", each measure's result under its name
    and under "analysis" the ``KeyAnalysis`` of a key's or a cross
    join's columns (a cross join reads it on two single columns) or an
    spMVD's ``MvdAnalysis``. An engine starts from that work instead of
    repeating it. ``measures`` is None for a kind evaluated on the
    incomplete table itself: it has no measures and no worlds for the
    oracle to enumerate."""

    check: Callable
    measures: dict | None


# The entries look the engine functions up when they are called, so a
# wrapper set on an engine module's attribute after import sees the call.
ENGINES = {
    SpKey: _Engines(lambda t, c, b, d: check_spkey(
        t, c.key, analysis=d.setdefault("analysis", KeyAnalysis(t, c.key))), {
        "g3": lambda t, c, b, d: g3_spkey(t, c.key, analysis=d["analysis"]),
        "g4": lambda t, c, b, d: g4_spkey(t, c.key, analysis=d["analysis"]),
        "g5": lambda t, c, b, d: g5_spkey(t, c.key, analysis=d["analysis"]),
    }),
    SpFd: _Engines(lambda t, c, b, _: check_spfd(t, c.lhs, c.rhs, b), {
        "g3": lambda t, c, b, d: g3_spfd(t, c.lhs, c.rhs, b, verdict=d["check"]),
        "g5": lambda t, c, b, d: g5_spfd(t, c.lhs, c.rhs, b, verdict=d["check"], g3=d.get("g3")),
    }),
    SpMvd: _Engines(lambda t, c, b, d: check_spmvd(
        t, c.lhs, c.rhs, b, analysis=d.setdefault("analysis", MvdAnalysis(t, c.lhs, c.rhs))), {
        "g3": lambda t, c, b, d: g3_spmvd(t, c.lhs, c.rhs, b, verdict=d["check"],
                                          analysis=d["analysis"]),
        "g5": lambda t, c, b, d: g5_spmvd(t, c.lhs, c.rhs, b, verdict=d["check"],
                                          analysis=d["analysis"]),
    }),
    SpCj: _Engines(lambda t, c, b, d: check_spcj(
        t, c.lhs, c.rhs, b, analysis=d.setdefault("analysis", KeyAnalysis(t, c.lhs | c.rhs))), {
        "g3": lambda t, c, b, d: g3_spcj(t, c.lhs, c.rhs, b, verdict=d["check"]),
        "g5": lambda t, c, b, d: g5_spcj(t, c.lhs, c.rhs, b, verdict=d["check"],
                                         analysis=d["analysis"]),
    }),
    Nmvd: _Engines(lambda t, c, b, _: ConstraintVerdict(check_nmvd(t, c.lhs, c.rhs)), None),
}

# The oracle's counterpart of each engine measure, given its results so far.
ORACLE_MEASURES = {
    "g3": lambda t, c, b, found: oracle_g3(t, c, b),
    "g5": lambda t, c, b, found: oracle_g5(t, c, b, g3=found.get("g3")),
}


def _engines(c: Constraint) -> _Engines:
    try:
        return ENGINES[type(c)]
    except KeyError:
        raise TypeError(f"unsupported constraint {type(c).__name__}") from None


class _PlainRows(list):
    """A non-empty world of non-empty rows whose every cell is a str that
    JSON writes as itself in quotes: ``_dump`` joins each row's cells."""

    __slots__ = ()


def _rows_json(rows) -> list:
    """Rows as lists, the reserved symbol written as "ssymb"; a world of
    plain strings keeps its rows, as a ``_PlainRows``."""
    distinct = set(chain.from_iterable(rows))
    if SSYMB in distinct:
        return [["ssymb" if c is SSYMB else c for c in row] if SSYMB in row else list(row)
                for row in rows]
    cells = list(distinct)
    # Escaping only lengthens a string, so the one encoding equals the
    # plain join exactly when no cell is escaped (and never when empty).
    if (_STR.issuperset(map(type, cells)) and all(rows)
            and _encode_flat(cells) == '["' + '"\x01"'.join(cells) + '"]'):
        return _PlainRows(rows)
    return [list(row) for row in rows]


def _measure_json(result: MeasureResult) -> dict:
    payload = {
        "fraction": result.fraction_str,
        "decimal": None if result.ratio is None else float(result.ratio),
        "count": result.numerator,
    }
    if result.removed_rows is not None:
        payload["removed_rows"] = list(result.removed_rows)
    if result.added_rows is not None:
        payload["added_rows"] = _rows_json(result.added_rows)
    if result.witness is not None:
        payload["witness_world"] = _rows_json(result.witness.rows)
        payload["witness_origin"] = list(result.witness.origin)
    return payload


def _oracle_fits(table: IncompleteTable) -> bool:
    return (
        table.row_count <= ORACLE_MAX_ROWS
        and table.arity <= ORACLE_MAX_COLS
        and world_count(table) <= ORACLE_MAX_WORLDS
    )


def _oracle_block(table, c, done: dict, options: RunOptions) -> dict:
    if _engines(c).measures is None or not _oracle_fits(table):
        return {"checked": False}
    block = {"checked": True, "holds": oracle_check(table, c, options.budget).holds}
    agree = block["holds"] == done["check"].holds
    skipped = []
    found: dict = {}
    for name, engine_result in done.items():
        oracle_fn = ORACLE_MEASURES.get(name)
        if oracle_fn is None:
            continue
        try:
            oracle_result = found[name] = oracle_fn(table, c, options.budget, found)
        except BudgetExceededError:
            skipped.append(name)
            continue
        except PreconditionError:  # undefined, as the engine's error is
            oracle_result = MeasureResult(name, None, table.row_count)
        engine_value = None if engine_result is None else engine_result.numerator
        block[name] = oracle_result.fraction_str
        agree &= oracle_result.numerator == engine_value
    block["agree"] = agree
    if skipped:
        block["skipped"] = skipped
    return block


def run(table: IncompleteTable, constraints, options: RunOptions = RunOptions()) -> dict:
    """Evaluate every constraint, returning a JSON-ready report.

    A budget error ends its constraint entry; a measure that is undefined
    on the table or for the entry's kind is recorded under its name. The
    run continues for the remaining measures and specifications.
    A world's rows are sequences, not lists: a world whose cells are all
    strings that JSON writes unescaped keeps the engine's row tuples, and
    any other world's rows are lists. ``json`` writes both as lists.
    """
    report = {
        "table": {
            "rows": table.row_count,
            "attributes": list(table.schema.attributes),
        },
        "options": {
            "measures": list(options.measures),
            "budget": options.budget,
            "oracle": options.verify_with_oracle,
        },
        "constraints": [],
    }
    any_violated = False
    any_budget = False
    for c in constraints:
        spec = c.describe(table.schema)
        entry = {"spec": spec, "kind": type(c).__name__.lower()}
        started = time.perf_counter()
        done: dict = {}  # the previous entry's work is dropped before this one starts
        try:
            engines = _engines(c)
            verdict = done["check"] = engines.check(table, c, options.budget, done)
            entry["holds"] = verdict.holds
            any_violated |= not verdict.holds
            if verdict.witness is not None:
                entry["witness_world"] = _rows_json(verdict.witness.rows)
            if verdict.violation is not None:
                entry["violation_rows"] = list(verdict.violation)
            if engines.measures is not None:
                entry["measures"] = {}
                for name in options.measures:
                    measure = engines.measures.get(name)
                    if measure is None:
                        entry["measures"][name] = {"error": f"measure {name} is not defined "
                                                            f"for {entry['kind']} constraints"}
                        continue
                    try:
                        result = done[name] = measure(table, c, options.budget, done)
                        entry["measures"][name] = _measure_json(result)
                    except PreconditionError as err:
                        done[name] = None
                        entry["measures"][name] = {"error": str(err)}
            if options.verify_with_oracle:
                entry["oracle"] = _oracle_block(table, c, done, options)
            entry["error"] = None
        except BudgetExceededError as err:
            any_budget = True
            entry["error"] = f"budget exceeded: {err}"
        except SpcheckError as err:
            entry["error"] = str(err)
        entry["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        report["constraints"].append(entry)
    report["exit_code"] = 3 if any_budget else (1 if any_violated else 0)
    return report


def _summarize(report: dict, out) -> None:
    table_info = report["table"]
    print(f"table: {table_info['rows']} rows, "
          f"{len(table_info['attributes'])} attributes", file=out)
    for entry in report["constraints"]:
        if entry.get("error") and "holds" not in entry:
            print(f"  {entry['spec']}: ERROR {entry['error']}", file=out)
            continue
        verdict = "holds" if entry["holds"] else "violated"
        line = f"  {entry['spec']}: {verdict}"
        for name, m in entry.get("measures", {}).items():
            if "error" in m:
                line += f" {name}=error({m['error']})"
            else:
                line += f" {name}={m['fraction']}"
        if "oracle" in entry and entry["oracle"].get("checked"):
            line += f" oracle={'agree' if entry['oracle']['agree'] else 'DISAGREE'}"
        if entry.get("error"):
            line += f" [{entry['error']}]"
        print(line, file=out)


# The report's flat lists go through json's C encoder with "\x01" as the
# item separator. JSON escapes every control character inside a string,
# so a raw "\x01" in its output is always a separator; and since no
# scalar's text ends in "]", "]\x01[" only ever joins two inner lists.
_encode_flat = json.JSONEncoder(separators=("\x01", ": "), check_circular=False).encode
_SCALARS = frozenset((str, int, float, bool, type(None)))
_LIST = frozenset((list,))
_STR = frozenset((str,))


def _dump(obj, indent: str, write) -> None:
    """Write the text of ``json.dumps(obj, indent=2)``, nested at
    ``indent``, through ``write``: dicts and mixed lists are walked here,
    a list of scalars or a non-empty list of non-empty lists of scalars
    is encoded in one C call, and a ``_PlainRows`` world is joined."""
    kind = type(obj)
    if kind is str or kind is float:
        write(_encode_flat(obj))
    elif obj is None or kind is bool:
        write("null" if obj is None else "true" if obj else "false")
    elif kind is int:
        write(int.__repr__(obj))  # what json writes, without building an encoder
    elif kind is list:
        if not obj:
            write("[]")
            return
        inner = indent + "  "
        if _SCALARS.issuperset(map(type, obj)):
            write("[\n" + inner)
            write(_encode_flat(obj)[1:-1].replace("\x01", ",\n" + inner))
        elif (_LIST.issuperset(map(type, obj)) and all(obj)
                and _SCALARS.issuperset(map(type, chain.from_iterable(obj)))):
            cell = inner + "  "
            write("[\n" + inner + "[\n" + cell)
            write(_encode_flat(obj)[2:-2]
                  .replace("]\x01[", "\n" + inner + "],\n" + inner + "[\n" + cell)
                  .replace("\x01", ",\n" + cell))
            write("\n" + inner + "]")
        else:
            sep = "[\n" + inner
            for item in obj:
                write(sep)
                _dump(item, inner, write)
                sep = ",\n" + inner
        write("\n" + indent + "]")
    elif kind is _PlainRows:
        inner = indent + "  "
        cell = inner + "  "
        csep = '",\n' + cell + '"'
        rsep = '"\n' + inner + "],\n" + inner + "[\n" + cell + '"'
        sep = "[\n" + inner + "[\n" + cell + '"'
        for start in range(0, len(obj), 1024):  # bounds the text held at once
            write(sep)
            write(rsep.join(map(csep.join, obj[start:start + 1024])))
            sep = rsep
        write('"\n' + inner + "]\n" + indent + "]")
    elif kind is dict and obj and _STR.issuperset(map(type, obj)):
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in obj.items():
            write(sep + _encode_flat(key) + ": ")
            _dump(value, inner, write)
            sep = ",\n" + inner
        write("\n" + indent + "}")
    else:
        # An empty dict, a dict with a non-str key or another type: json.dumps
        # itself, whose only raw newlines are those of the indent.
        write(json.dumps(obj, indent=2).replace("\n", "\n" + indent))


def _write_json(obj, path) -> None:
    """Write ``json.dumps(obj, indent=2) + "\\n"`` to ``path`` as UTF-8,
    byte for byte, without building the whole text."""
    with open(path, "w", encoding="utf-8") as fh:
        _dump(obj, "", fh.write)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Command line


def _add_table_options(parser) -> None:
    parser.add_argument("--table", required=True, help="CSV file to check")
    parser.add_argument("--null", default="", metavar="TOKEN",
                        help="cell content that denotes NULL (default: empty)")
    parser.add_argument("--no-header", action="store_true",
                        help="CSV has no header row; attributes become A1..An")
    parser.add_argument("--constraint", action="append", required=True,
                        metavar="SPEC", help="constraint such as 'spkey(A,B)'; repeatable")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="search/enumeration budget, 0 or more")
    parser.add_argument("--json", metavar="PATH", help="write the JSON report here")


def _unchecked_reason(c: Constraint, entry: dict) -> str:
    """Why ``verify`` has no oracle comparison for a constraint entry."""
    if _engines(c).measures is None:
        return "evaluated on the incomplete table itself, with no worlds to compare"
    if "oracle" not in entry:
        return "the entry stopped with an error"
    return (f"over the oracle's instance limits of {ORACLE_MAX_ROWS} rows, "
            f"{ORACLE_MAX_COLS} columns and {ORACLE_MAX_WORLDS:,} worlds")


def _cmd_table(args, measures) -> int:
    table = load_csv(args.table, args.null, not args.no_header)
    constraints = [parse_constraint(s, table.schema) for s in args.constraint]
    options = RunOptions(
        measures=measures,
        budget=args.budget,
        verify_with_oracle=args.verb == "verify",
    )
    report = run(table, constraints, options)
    _summarize(report, sys.stdout)
    if args.json:
        _write_json(report, args.json)
    if args.verb == "verify":
        disagree = any(
            e.get("oracle", {}).get("checked") and not e["oracle"]["agree"]
            for e in report["constraints"]
        )
        unchecked = [
            f"{e['spec']} ({_unchecked_reason(c, e)})"
            for c, e in zip(constraints, report["constraints"])
            if not e.get("oracle", {}).get("checked", False)
        ]
        skipped = [
            f"{e['spec']}: {name}"
            for e in report["constraints"]
            for name in e.get("oracle", {}).get("skipped", ())
        ]
        if disagree:
            print("oracle disagreement detected", file=sys.stderr)
            return 1
        if unchecked:
            print("the oracle did not check " + "; ".join(unchecked), file=sys.stderr)
        if skipped:
            print("the oracle exceeded its budget and did not compare "
                  + ", ".join(skipped), file=sys.stderr)
    return report["exit_code"]


def _parse_graph(spec: str, n: int):
    edges = []
    if spec:
        for part in spec.split(","):
            u, _, v = part.partition("-")
            try:
                edges.append((int(u), int(v)))
            except ValueError:
                raise SpcheckError(f"--graph edge {part!r} is not u-v") from None
    return generators.graph(n, edges)


def _construct(args) -> generators.GeneratedInstance:
    name = args.construction
    if name in ("prop3", "thm1", "thm3"):
        gen = {"prop3": generators.gen_prop3, "thm1": generators.gen_thm1,
               "thm3": generators.gen_thm3}[name]
        return gen(args.p, args.q, args.c, verify=not args.no_verify)
    if name == "lemma-graph":
        table = generators.graph_to_weak_similarity_table(_parse_graph(args.graph, args.n))
        return generators.GeneratedInstance(
            table, SpKey(frozenset(range(table.arity))), {},
            f"lemma-graph(n={args.n})")
    if name == "maxclique":
        return generators.reduce_maxclique_to_spcj_g3(
            _parse_graph(args.graph, args.n), args.k, verify=not args.no_verify)
    if name == "threecolor":
        return generators.reduce_3color_to_spcj_g5(
            _parse_graph(args.graph, args.n), verify=not args.no_verify)
    if name == "threedm":
        triples = [tuple(t.split(":")) for t in args.triple or []]
        if any(len(t) != 3 for t in triples):
            raise SpcheckError("--triple takes b:c:d")
        return generators.reduce_3dm_to_spcj(
            args.b.split(",") if args.b else [],
            args.cset.split(",") if args.cset else [],
            args.d.split(",") if args.d else [],
            triples, verify=not args.no_verify)
    if name == "random":
        table = generators.random_table(args.rows, args.cols, args.domain,
                                        args.null_rate, args.seed)
        return generators.GeneratedInstance(
            table, SpKey(frozenset(range(table.arity))), {},
            f"random(rows={args.rows}, cols={args.cols}, seed={args.seed})")
    raise SpcheckError(f"unknown construction {name!r}")


def _cmd_generate(args) -> int:
    try:
        instance = _construct(args)
    except ValueError as err:  # a generator's own parameter check
        raise SpcheckError(f"{args.construction}: {err}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{args.prefix}.csv"
    manifest_path = out / f"{args.prefix}.manifest.json"
    write_csv(instance.table, csv_path)
    manifest = {
        "construction": instance.provenance,
        "constraint": instance.constraint.describe(instance.table.schema),
        "expected": {
            key: (str(value) if not isinstance(value, bool) else value)
            for key, value in instance.expected.items()
        },
        "csv": csv_path.name,
        "null_token": "",
    }
    _write_json(manifest, manifest_path)
    print(f"wrote {csv_path} and {manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spcheck",
        description="Strongly possible integrity constraints over incomplete tables",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    _add_table_options(verbs.add_parser("check", help="evaluate constraint satisfaction"))
    for verb, text in (("measure", "compute approximation measures"),
                       ("verify", "measure and cross-check against the brute-force oracle")):
        p_table = verbs.add_parser(verb, help=text)
        _add_table_options(p_table)
        p_table.add_argument("--measures", default="g3,g5",
                             help="comma list from g3,g4,g5 (default g3,g5)")

    p_gen = verbs.add_parser("generate", help="materialize a named construction")
    p_gen.add_argument("construction",
                       choices=["prop3", "thm1", "thm3", "lemma-graph",
                                "maxclique", "threecolor", "threedm", "random"])
    p_gen.add_argument("--p", type=int, default=1)
    p_gen.add_argument("--q", type=int, default=2)
    p_gen.add_argument("--c", type=int, default=1)
    p_gen.add_argument("--n", type=int, default=3, help="graph vertex count")
    p_gen.add_argument("--k", type=int, default=1, help="clique size")
    p_gen.add_argument("--graph", default="", help="edges as '0-1,1-2'")
    p_gen.add_argument("--b", default="", help="3DM first element set, comma separated")
    p_gen.add_argument("--cset", default="", help="3DM second element set")
    p_gen.add_argument("--d", default="", help="3DM third element set")
    p_gen.add_argument("--triple", action="append", help="3DM triple as b:c:d")
    p_gen.add_argument("--rows", type=int, default=100)
    p_gen.add_argument("--cols", type=int, default=4)
    p_gen.add_argument("--domain", type=int, default=10)
    p_gen.add_argument("--null-rate", type=float, default=0.2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=".", help="output directory")
    p_gen.add_argument("--prefix", default="instance")
    p_gen.add_argument("--no-verify", action="store_true",
                       help="skip engine verification of expected values")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """``build_parser()``, made by the first call in the process and
    returned by every later one: only in-process callers of ``main`` save
    a build, as a one-shot ``spcheck`` run makes one either way. Parsing
    leaves a parser as it was (each parse fills a new namespace, and an
    ``append`` option starts from a new list), so nothing may change the
    parser after it is built."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", 0) < 0:
        parser.error(f"argument --budget: must be at least 0, not {args.budget}")
    try:
        if args.verb == "check":
            return _cmd_table(args, measures=())
        if args.verb in ("measure", "verify"):
            # Each name once, in the order first given; spaces around a name
            # are dropped, as the constraint grammar drops them.
            measures = tuple(dict.fromkeys(filter(None, map(str.strip, args.measures.split(",")))))
            for m in measures:
                if m not in ("g3", "g4", "g5"):
                    raise SpcheckError(f"unknown measure {m!r}")
            return _cmd_table(args, measures=measures)
        if args.verb == "generate":
            return _cmd_generate(args)
        raise SpcheckError(f"unknown verb {args.verb!r}")
    except (SpcheckError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err, BudgetExceededError) else 2


if __name__ == "__main__":
    sys.exit(main())
