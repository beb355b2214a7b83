import contextlib
import csv
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spcheck import cli, oracle, spfd, spkey, tuplegen
from spcheck.cli import (
    RunOptions,
    _rows_json,
    _write_json,
    load_csv,
    main,
    parse_constraint,
    run,
    write_csv,
)
from spcheck.constraints import Nmvd, SpCj, SpFd, SpKey, SpMvd
from spcheck.errors import ConstraintParseError, OracleGapError, PreconditionError, TableLoadError
from spcheck.oracle import holds
from spcheck.table import SSYMB, IncompleteTable, Schema

TABLE4_CSV = "a,b\n,1\n2,\n2,\n2,2\n"


@pytest.fixture
def table4_csv(tmp_path):
    path = tmp_path / "t4.csv"
    path.write_text(TABLE4_CSV, encoding="utf-8")
    return path


def test_load_csv_table4(table4_csv):
    t = load_csv(table4_csv)
    assert t.schema.attributes == ("a", "b")
    assert t.rows == ((None, "1"), ("2", None), ("2", None), ("2", "2"))


def test_load_csv_custom_null_token(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\nNULL,1\n,2\n", encoding="utf-8")
    t = load_csv(path, null_token="NULL")
    assert t.rows == ((None, "1"), ("", "2"))


def test_load_csv_equals_build(tmp_path):
    # Quoted cells keep their commas, quotes, spaces and line breaks;
    # only the exact NULL token becomes NULL.
    path = tmp_path / "t.csv"
    path.write_text('a,"b,c"\nNA,"x, y"\n"say ""hi""",NA\n" NA",\n"two\nlines",NA\n',
                    encoding="utf-8")
    t = load_csv(path, null_token="NA")
    rows = [(None, "x, y"), ('say "hi"', None), (" NA", ""), ("two\nlines", None)]
    assert t == IncompleteTable.build(["a", "b,c"], rows, "NA")
    assert all(cell is sys.intern(cell) for row in t.rows for cell in row if cell is not None)


def test_load_csv_no_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,2\n3,4\n", encoding="utf-8")
    t = load_csv(path, has_header=False)
    assert t.schema.attributes == ("A1", "A2")
    assert t.row_count == 2


def test_load_csv_one_column_blank_line_is_null(tmp_path):
    # csv reads a blank line as no fields at all; in a one-column file it
    # is the one empty field, as "" is.
    path = tmp_path / "t.csv"
    path.write_text('a\n1\n\n2\n""\n', encoding="utf-8")
    assert load_csv(path).rows == (("1",), (None,), ("2",), (None,))
    assert load_csv(path, null_token="NA").rows == (("1",), ("",), ("2",), ("",))
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1,2\n\n", encoding="utf-8")
    with pytest.raises(TableLoadError, match="row 3 has 0 fields"):
        load_csv(wide)


def test_load_csv_ignores_a_byte_order_mark(tmp_path):
    # Spreadsheet exports start UTF-8 files with a byte-order mark.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfA,B\n1,\n2,3\n")
    t = load_csv(path)
    assert t.schema.attributes == ("A", "B")
    assert t.rows == (("1", None), ("2", "3"))
    assert main(["check", "--table", str(path), "--constraint", "spkey(A)"]) == 0


def test_load_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(TableLoadError, match="row 3"):
        load_csv(path)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(TableLoadError, match="empty"):
        load_csv(path)


def test_load_csv_duplicate_header(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,a\n1,2\n", encoding="utf-8")
    with pytest.raises(TableLoadError, match="duplicate"):
        load_csv(path)


def _per_cell_load_csv(path, null_token="", has_header=True):
    """The loader before the streaming pass: every record kept in a list,
    then each cell mapped to NULL or interned one at a time."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = list(csv.reader(fh))
    if not records:
        raise TableLoadError(f"{path}: empty file")
    if has_header:
        header, data = records[0], records[1:]
        if len(set(header)) != len(header):
            raise TableLoadError(f"{path}: duplicate header names")
        if any(not name for name in header):
            raise TableLoadError(f"{path}: empty header name")
    else:
        header, data = [f"A{i + 1}" for i in range(len(records[0]))], records
    arity = len(header)
    rows = []
    for lineno, record in enumerate(data, start=2 if has_header else 1):
        if not record and arity == 1:
            record = [""]
        if len(record) != arity:
            raise TableLoadError(
                f"{path}: row {lineno} has {len(record)} fields, expected {arity}")
        rows.append(tuple(None if cell == null_token else sys.intern(cell) for cell in record))
    return IncompleteTable(Schema(tuple(header)), tuple(rows), null_token)


def _random_csv_text(rng):
    """CSV text of one to four columns with quoted commas, quotes and line
    breaks, NULL tokens, blank lines, now and then a ragged row, a
    duplicate or empty header name, and a byte-order mark."""
    arity = rng.randint(1, 4)
    header = [f"h{i}" for i in range(arity)]
    if rng.random() < 0.1:
        header[-1] = rng.choice(["", "h0"])
    tokens = ["", "NA", "1", "2", "x, y", 'say "hi"', "two\nlines", " NA", "é", "a\r\nb"]
    records = [header]
    for _ in range(rng.randint(0, 8)):
        width = arity if rng.random() < 0.9 else rng.randint(0, arity + 1)
        records.append([rng.choice(tokens) for _ in range(width)])
    text = io.StringIO()
    csv.writer(text, lineterminator=rng.choice(["\n", "\r\n"])).writerows(records)
    return ("\ufeff" if rng.random() < 0.2 else "") + text.getvalue()


def test_load_csv_matches_the_per_cell_loader(tmp_path):
    # The same rows, the same interned cell objects, or the same error.
    rng = random.Random(30)
    path = tmp_path / "t.csv"
    for _ in range(400):
        path.write_text(_random_csv_text(rng), encoding="utf-8")
        options = {"null_token": rng.choice(["", "NA"]), "has_header": rng.random() < 0.7}
        try:
            expected = _per_cell_load_csv(path, **options)
        except TableLoadError as err:
            with pytest.raises(TableLoadError) as got:
                load_csv(path, **options)
            assert str(got.value) == str(err)
            continue
        table = load_csv(path, **options)
        assert table == expected
        cells = [cell for row in table.rows for cell in row if cell is not None]
        assert all(cell is sys.intern(cell) for cell in cells)
        assert all(new is old for new, old in zip(
            cells, (cell for row in expected.rows for cell in row if cell is not None)))


@pytest.mark.parametrize("content, message", [
    (b"a,b\n1,\xff\n", "line 2: not UTF-8 text (invalid start byte)"),
    # Past the reader's first 8 KB chunk, lines ended three ways; the
    # byte after \xe9 is no continuation byte.
    (b"a,b\r\n" + b"1,1\n" * 1000 + b"2,2\r" * 1000 + b"3,3\r\n" * 1000 + b"4,\xe9\r\n5,5\n",
     "line 3002: not UTF-8 text (invalid continuation byte)"),
    (b'a,b\n1,"' + b"x" * 140_000 + b'"\n', "line 2: field larger than field limit"),
    (b"\n\n", "no columns"),
    # The decoder strips the mark and counts from the byte after it.
    (b"\xef\xbb\xbfa\n\xff\n", "line 2: not UTF-8 text (invalid start byte)"),
    # The whole file is decoded before any row is read, so the byte is
    # named even past a ragged row.
    (b"a,b\n1\n" + b"2,2\n" * 4000 + b"3,\xff\n", "line 4003: not UTF-8 text (invalid start byte)"),
], ids=["not-utf8", "not-utf8-past-the-first-chunk", "oversized-field", "blank-first-line",
        "not-utf8-after-a-byte-order-mark", "not-utf8-after-a-ragged-row"])
def test_a_malformed_csv_is_a_usage_error(tmp_path, capsys, content, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert main(["check", "--table", str(path), "--constraint", "spkey(A1)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert "Traceback" not in err


def test_load_csv_returns_the_kept_table_for_the_same_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x,y\n1,2\n3,\n")
    b.write_bytes(a.read_bytes())
    first = load_csv(a)
    assert load_csv(a) is first
    assert load_csv(b) is first  # the key is the content, not the path


def test_load_csv_reads_a_same_size_rewrite_with_the_old_times(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n1,2\n3,4\n")
    assert load_csv(path).rows == (("1", "2"), ("3", "4"))
    times = os.stat(path)
    with open(path, "r+") as fh:  # in place: same inode, same size
        fh.write("x,y\n5,6\n7,8\n")
    os.utime(path, ns=(times.st_atime_ns, times.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
        times.st_size, times.st_mtime_ns, times.st_ino)
    assert load_csv(path).rows == (("5", "6"), ("7", "8"))


def test_load_csv_keeps_a_table_per_null_token_and_header_flag(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("NA,1\n2,NA\n")
    plain = load_csv(path)
    na = load_csv(path, null_token="NA")
    headless = load_csv(path, has_header=False)
    assert plain.rows == (("2", "NA"),)
    assert na.rows == (("2", None),)
    assert headless.rows == (("NA", "1"), ("2", "NA"))
    assert len({id(plain), id(na), id(headless)}) == 3
    assert load_csv(path, has_header=False) is headless


@pytest.mark.parametrize("content, message", [
    (b"a,b\n1,2\n3\n", "row 3 has 1 fields, expected 2"),
    (b"a,b\n1,\xff\n", "line 2: not UTF-8 text (invalid start byte)"),
], ids=["ragged-row", "not-utf8"])
def test_load_csv_keeps_no_failed_load(tmp_path, content, message):
    kept = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.csv"
        path.write_text(f"{name}\n1\n")
        kept.append((path, load_csv(path)))
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    for _ in range(3):
        with pytest.raises(TableLoadError) as err:
            load_csv(bad)
        assert str(err.value) == f"{bad}: {message}"
    assert all(load_csv(path) is table for path, table in kept)


def test_load_csv_keeps_the_last_two_tables(tmp_path):
    paths = [tmp_path / f"{n}.csv" for n in range(3)]
    for n, path in enumerate(paths):
        path.write_text(f"a\n{n}\n")
    first, second, third = map(load_csv, paths)
    assert load_csv(paths[2]) is third and load_csv(paths[1]) is second
    again = load_csv(paths[0])
    assert again is not first and again == first
    assert load_csv(paths[2]) is third  # the oldest, second, went instead
    assert load_csv(paths[1]) is not second


def test_load_csv_from_threads_keeps_its_answers_and_its_bound(tmp_path):
    paths = [tmp_path / f"{n}.csv" for n in range(3)]
    for n, path in enumerate(paths):
        path.write_text(f"a\n{n}\n")
    failures = []

    def load(offset):
        try:
            for i in range(3000):
                n = (i + offset) % 3
                assert load_csv(paths[n]).rows == ((str(n),),)
        except Exception as err:  # reported by the main thread
            failures.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and len(cli._tables) <= 2

SCHEMA = Schema(("X1", "X2", "Y", "TeacherID", "CourseID"))


def test_parse_constraints():
    c = parse_constraint("spfd(X1,X2 -> Y)", SCHEMA)
    assert c == SpFd(frozenset({0, 1}), frozenset({2}))
    c = parse_constraint("spcj(TeacherID x CourseID)", SCHEMA)
    assert c == SpCj(frozenset({3}), frozenset({4}))
    c = parse_constraint("spkey( X1 , X2 )", SCHEMA)
    assert c == SpKey(frozenset({0, 1}))
    c = parse_constraint("spmvd(X1 ->> X2,Y)", SCHEMA)
    assert c == SpMvd(frozenset({0}), frozenset({1, 2}))
    c = parse_constraint("nmvd(X1 ->> X2)", SCHEMA)
    assert c == Nmvd(frozenset({0}), frozenset({1}))


@pytest.mark.parametrize(
    "bad",
    ["spkey()", "spfd(X1)", "spfd(X1 -> )", "spfd(X1 ->> X2)", "mystery(X1)",
     "spcj(X1)", "spkey(Nope)", "spkey"],
)
def test_parse_errors(bad):
    with pytest.raises(ConstraintParseError):
        parse_constraint(bad, SCHEMA)


@pytest.mark.parametrize("bad, message", [
    ("spkey", "expected kind(...)"),
    ("mystery(X1)", "unknown constraint kind 'mystery'"),
    ("spkey()", "empty attribute list"),
    ("spfd(X1 ->> X2)", "use spmvd for '->>'"),
    ("spfd(X1)", "expected '->'"),
    ("spmvd(X1 -> X2)", "expected '->>'"),
    ("nmvd(X1)", "expected '->>'"),
    ("spcj(X1)", "expected the separator 'x'"),
])
def test_parse_error_messages(bad, message):
    with pytest.raises(ConstraintParseError) as err:
        parse_constraint(bad, SCHEMA)
    assert str(err.value) == f"{bad!r}: {message}"


def test_describe_writes_what_parse_reads():
    x, y = frozenset({0, 1}), frozenset({2})
    cases = {"spkey(X1,X2)": SpKey(x), "spfd(X1,X2 -> Y)": SpFd(x, y),
             "spmvd(X1,X2 ->> Y)": SpMvd(x, y), "spcj(X1,X2 x Y)": SpCj(x, y),
             "nmvd(X1,X2 ->> Y)": Nmvd(x, y)}
    for spec, c in cases.items():
        assert c.describe(SCHEMA) == spec
        assert parse_constraint(spec, SCHEMA) == c


def test_run_report_table4(table4_csv):
    t = load_csv(table4_csv)
    constraints = [parse_constraint("spkey(a,b)", t.schema)]
    options = RunOptions(measures=("g3", "g5"), verify_with_oracle=True)
    report = run(t, constraints, options)
    entry = report["constraints"][0]
    assert entry["holds"] is False
    assert entry["measures"]["g3"]["fraction"] == "2/4"
    assert entry["measures"]["g5"]["fraction"] == "1/4"
    assert entry["oracle"]["agree"] is True
    assert report["exit_code"] == 1
    # fraction and decimal agree
    for m in entry["measures"].values():
        num, den = m["fraction"].split("/")
        assert abs(m["decimal"] - int(num) / int(den)) < 1e-12


def test_run_report_deterministic(table4_csv):
    t = load_csv(table4_csv)
    constraints = [parse_constraint("spkey(a,b)", t.schema)]
    options = RunOptions(measures=("g3", "g4", "g5"))
    a = run(t, constraints, options)
    b = run(t, constraints, options)
    for report in (a, b):
        for entry in report["constraints"]:
            del entry["elapsed_ms"]
    assert json.dumps(a) == json.dumps(b)


def test_run_witness_replayable(table4_csv):
    t = load_csv(table4_csv)
    report = run(t, [parse_constraint("spkey(a,b)", t.schema)],
                 RunOptions(measures=("g5",)))
    g5 = report["constraints"][0]["measures"]["g5"]
    world = [tuple(row) for row in g5["witness_world"]]
    assert holds(world, SpKey(frozenset({0, 1})))


@pytest.mark.parametrize("measure", ["g4", "g7"])
def test_run_g4_rejected_for_fd(table4_csv, measure):
    t = load_csv(table4_csv)
    constraints = [parse_constraint("spfd(a -> b)", t.schema),
                   parse_constraint("spkey(a,b)", t.schema)]
    report = run(t, constraints, RunOptions(measures=("g3", measure, "g5")))
    first, second = report["constraints"]
    # The undefined measure is recorded under its name, and the entry's
    # later measures still run.
    assert first["error"] is None
    assert first["measures"][measure] == {
        "error": f"measure {measure} is not defined for spfd constraints"}
    assert first["measures"]["g3"]["fraction"] == "1/4"
    assert first["measures"]["g5"]["fraction"] == "1/4"
    assert second["measures"]["g3"]["fraction"] == "2/4"


def test_run_empty_spec_list(table4_csv):
    t = load_csv(table4_csv)
    report = run(t, [])
    assert report["constraints"] == []
    assert report["exit_code"] == 0


def test_run_continues_after_error(table4_csv):
    t = load_csv(table4_csv)
    constraints = [
        parse_constraint("spfd(a -> b)", t.schema),
        parse_constraint("spkey(a,b)", t.schema),
    ]
    report = run(t, constraints, RunOptions(measures=("g4",)))
    assert report["constraints"][0]["measures"]["g4"]["error"]
    assert report["constraints"][1]["measures"]["g4"]["fraction"] == "2/4"


def test_cli_measure_exit_codes(table4_csv, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "measure", "--table", str(table4_csv),
        "--constraint", "spkey(a,b)", "--measures", "g3,g5",
        "--json", str(out),
    ])
    assert code == 1  # violated
    data = json.loads(out.read_text())
    assert data["constraints"][0]["measures"]["g3"]["fraction"] == "2/4"


def test_cli_check_holds_exit_zero(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("a,b\n1,1\n2,2\n", encoding="utf-8")
    assert main(["check", "--table", str(path), "--constraint", "spkey(a,b)"]) == 0


def test_cli_usage_error_exit_two(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("a,b\n1,1\n", encoding="utf-8")
    assert main(["check", "--table", str(path), "--constraint", "nope(a)"]) == 2
    assert main(["check", "--table", str(tmp_path / "missing.csv"),
                 "--constraint", "spkey(a)"]) == 2


@pytest.mark.parametrize("args, named", [pytest.param(*case, id=f"args{i}") for i, case in enumerate([
    (["thm1", "--p", "3", "--q", "2"], "3/2"),
    (["maxclique", "--n", "3", "--k", "5"], "1 <= k <= n"),
    (["threecolor", "--n", "2", "--graph", "0-5"], "(0,5)"),
    (["threecolor", "--n", "2", "--graph", "0-a"], "--graph"),
    (["threecolor", "--n", "2", "--graph", "0-1,1"], "--graph"),
    (["prop3", "--c", "0"], "c must"),
    (["threedm", "--b", "b1,b2", "--cset", "c1", "--d", "d1"], "equal size"),
    (["threedm", "--b", "b1", "--cset", "c1", "--d", "d1", "--triple", "b1:c1"], "--triple"),
    (["random", "--rows", "-1"], "rows must be at least 0, got -1"),
    (["random", "--null-rate", "2"], "0 <= null_rate <= 1, got 2.0"),
    (["random", "--null-rate", "-0.5"], "0 <= null_rate <= 1, got -0.5"),
    (["random", "--domain", "0"], "domain_size must be at least 1, got 0"),
    (["random", "--cols", "0"], "cols must be at least 1, got 0"),
    (["lemma-graph", "--n", "-1"], "n must be at least 1, got -1"),
])])
def test_cli_generate_rejects_invalid_parameters(tmp_path, capsys, args, named):
    # Each ends in exit 2 with a message that names what is wrong.
    assert main(["generate", *args, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert named in err
    assert not (tmp_path / "out").exists()


def test_oracle_comparison_is_verify_only(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("a,b\n1,1\n", encoding="utf-8")
    for verb in ("check", "measure"):
        with pytest.raises(SystemExit) as exit_:
            main([verb, "--table", str(path), "--constraint", "spkey(a)", "--oracle"])
        assert exit_.value.code == 2


def test_cli_budget_exit_three(tmp_path):
    path = tmp_path / "big.csv"
    rows = "\n".join(",".join("" for _ in range(4)) for _ in range(6))
    path.write_text("a,b,c,d\n" + "1,2,3,4\n2,3,4,5\n" + rows + "\n", encoding="utf-8")
    code = main(["measure", "--table", str(path),
                 "--constraint", "spfd(a,b -> c)", "--budget", "3"])
    assert code == 3


def test_cli_budget_must_not_be_negative(tmp_path, capsys):
    path = tmp_path / "ok.csv"
    path.write_text("a,b\n1,1\n", encoding="utf-8")
    argv = ["check", "--table", str(path), "--constraint", "spfd(a -> b)", "--budget"]
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["-1"])
    assert exit_.value.code == 2
    assert "--budget: must be at least 0, not -1" in capsys.readouterr().err
    assert main(argv + ["0"]) == 3  # a budget of 0 is valid, and the search exceeds it


def _grid_csv(path, values: int, width: int, all_null: int) -> None:
    """Rows v,v,...,v for v = 1..values, then ``all_null`` all-NULL rows."""
    rows = [",".join([str(v)] * width) for v in range(1, values + 1)]
    rows += ["," * (width - 1)] * all_null
    path.write_text(",".join("abcdef"[:width]) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def test_cli_g4_spends_no_budget(tmp_path):
    # Each all-NULL row has 36 extensions and the full graph would hold
    # 6 + 4 * 36 = 150 edges; g4 builds no graph, so --budget 50 is moot.
    path = tmp_path / "grid.csv"
    _grid_csv(path, 6, 2, 4)
    out = tmp_path / "report.json"
    for budget in ("50", "150"):
        assert main(["measure", "--table", str(path), "--constraint", "spkey(a,b)",
                     "--measures", "g4", "--budget", budget, "--json", str(out)]) == 0
        assert json.loads(out.read_text())["constraints"][0]["measures"]["g4"]["fraction"] == "0/20"


def test_cli_g4_answers_rows_with_many_extensions(tmp_path):
    # On (a, b) each all-NULL row has 36 extensions, as many as the
    # budget; g4 answers both entries (exit 1: spkey(a) is violated).
    path = tmp_path / "grid.csv"
    _grid_csv(path, 6, 2, 4)
    out = tmp_path / "report.json"
    assert main(["measure", "--table", str(path), "--constraint", "spkey(a,b)",
                 "--constraint", "spkey(a)", "--measures", "g4", "--budget", "36",
                 "--json", str(out)]) == 1
    entries = json.loads(out.read_text())["constraints"]
    assert [e["error"] for e in entries] == [None, None]
    assert [e["measures"]["g4"]["fraction"] for e in entries] == ["0/20", "4/10"]


def test_cli_key_measures_answer_a_row_with_a_million_extensions(tmp_path):
    # The all-NULL row has 11^6 = 1,771,561 key extensions, more than it
    # has rivals, so no measure enumerates them.
    path = tmp_path / "wide.csv"
    _grid_csv(path, 11, 6, 1)
    out = tmp_path / "report.json"
    assert main(["measure", "--table", str(path), "--constraint", "spkey(a,b,c,d,e,f)",
                 "--measures", "g3,g4,g5", "--json", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["constraints"]
    assert entry["holds"] and entry["error"] is None
    assert {name: m["fraction"] for name, m in entry["measures"].items()} == {
        "g3": "0/12", "g4": "0/24", "g5": "0/12"}


def test_cli_verify_verb(table4_csv):
    assert main(["verify", "--table", str(table4_csv),
                 "--constraint", "spkey(a,b)"]) == 1  # violated but agreeing


def test_cli_verify_lists_oracle_budget_skips(tmp_path, capsys):
    path = tmp_path / "diagonal.csv"
    path.write_text("a,b\n1,1\n2,2\n", encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["verify", "--table", str(path), "--constraint", "spcj(a x b)",
                 "--budget", "10", "--json", str(out)])
    assert code == 1  # violated; the oracle agrees where it could compare
    block = json.loads(out.read_text())["constraints"][0]["oracle"]
    assert block["agree"] and block["g3"] == "1/2" and "g5" not in block
    assert block["skipped"] == ["g5"]
    assert "did not compare spcj(a x b): g5" in capsys.readouterr().err


def _deep_csv(path) -> None:
    """3,000 rows: 250 X values x 3 Y values x 4 Z values, W a function
    of X, and 5% of the Z cells NULL."""
    rng = random.Random(5)
    lines = ["X,Y,Z,W"]
    for x in range(250):
        for y in range(3):
            for z in range(4):
                cell = "" if rng.random() < 0.05 else f"z{z}"
                lines.append(f"x{x},y{y},{cell},w{x % 7}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("spec", ["spfd(X,Z -> W)", "spmvd(X ->> Y)", "spcj(Y x Z,W)", "spcj(X x Y)"],
                         ids=["spfd", "spmvd", "spcj", "spcj-singular"])
def test_cli_check_searches_deeper_than_the_recursion_limit(tmp_path, spec):
    # Each search holds one level per branching row, 3,000 of them.
    path = tmp_path / "deep.csv"
    _deep_csv(path)
    out = tmp_path / "report.json"
    assert main(["check", "--table", str(path), "--constraint", spec,
                 "--json", str(out)]) == 0
    entry = json.loads(out.read_text())["constraints"][0]
    assert entry["holds"]
    table = load_csv(path)
    world = [tuple(r) for r in entry["witness_world"]]
    assert len(world) == table.row_count
    assert all(c is None or c == w for row, done in zip(table.rows, world)
               for c, w in zip(row, done))
    assert holds(world, parse_constraint(spec, table.schema), table.arity)


def test_cli_generate_roundtrip(tmp_path):
    code = main(["generate", "thm1", "--p", "1", "--q", "4",
                 "--out", str(tmp_path), "--prefix", "inst"])
    assert code == 0
    text = (tmp_path / "inst.manifest.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    manifest = json.loads(text)
    assert manifest["expected"]["difference"] == "1/4"
    t = load_csv(tmp_path / "inst.csv", null_token=manifest["null_token"])
    constraint = parse_constraint(manifest["constraint"], t.schema)
    from spcheck.spkey import g3_spkey, g5_spkey

    gap = g3_spkey(t, constraint.key).ratio - g5_spkey(t, constraint.key).ratio
    assert gap == Fraction(1, 4)


def test_write_csv_roundtrip(tmp_path, table4_csv):
    t = load_csv(table4_csv)
    out = tmp_path / "again.csv"
    write_csv(t, out)
    again = load_csv(out)
    assert again.rows == t.rows


def test_reserved_symbol_surfaces_in_reports(tmp_path):
    path = tmp_path / "degenerate.csv"
    path.write_text("a,b\n,1\n,2\n", encoding="utf-8")
    t = load_csv(path)
    report = run(t, [parse_constraint("spkey(a,b)", t.schema)], RunOptions(measures=()))
    world = report["constraints"][0]["witness_world"]
    assert world[0][0] == "ssymb"


def test_run_teaching_table_fd(tmp_path):
    path = tmp_path / "teaching.csv"
    path.write_text(
        "Semester,TeacherID,CourseID\n"
        "First,1,1\n,1,2\nFirst,2,3\n,2,4\nFirst,3,5\n,3,6\n",
        encoding="utf-8",
    )
    t = load_csv(path)
    c = parse_constraint("spfd(Semester,TeacherID -> CourseID)", t.schema)
    report = run(t, [c], RunOptions(measures=("g3", "g5")))
    entry = report["constraints"][0]
    assert entry["measures"]["g3"]["fraction"] == "3/6"
    assert entry["measures"]["g5"]["fraction"] == "1/6"


# Strings that could be mistaken for the writer's "\x01" separators, or
# that JSON escapes.
_TRICKY = st.lists(st.sampled_from(["\x01", "]\x01[", ",", '"', "\\", "\n", "]", "[",
                                    "é", "東京", "\U0001d11e", "a", " "]), max_size=4).map("".join)
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TRICKY, st.text(max_size=5))
_ROWS = st.lists(st.lists(_SCALAR, max_size=4), max_size=4)
_REPORTISH = st.recursive(
    st.one_of(_SCALAR, _ROWS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TRICKY, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(obj=_REPORTISH)
def test_write_json_matches_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "writer.json"
    _write_json(obj, path)
    assert path.read_text(encoding="utf-8") == json.dumps(obj, indent=2) + "\n"


def test_write_json_falls_back_for_non_str_keys(tmp_path):
    obj = {"a": {1: [[1, 2]], 2.5: {}, None: [], True: "x"}, "b": [(1, 2), {}]}
    path = tmp_path / "r.json"
    _write_json(obj, path)
    assert path.read_text(encoding="utf-8") == json.dumps(obj, indent=2) + "\n"


_DIGITS = st.integers(0, 999).map(str)
_WORLD_CELL = st.one_of(_DIGITS, st.sampled_from([SSYMB, "", "é", '"', "\\", "\x01", "]\x01["]))


@st.composite
def _worlds(draw):
    """0 to 6 rows of one width, in about half the worlds all digit strings."""
    cell = draw(st.sampled_from([_DIGITS, _WORLD_CELL]))
    return draw(st.lists(st.tuples(*[cell] * draw(st.integers(1, 4))), max_size=6))


@settings(max_examples=300, deadline=None)
@given(rows=_worlds())
@example(rows=[(str(i), "7") for i in range(2500)])  # more rows than one write takes
def test_rows_json_writes_a_world_as_json_dumps(tmp_path_factory, rows):
    want = [["ssymb" if c is SSYMB else c for c in row] for row in rows]
    got = _rows_json(rows)
    assert [list(row) for row in got] == want
    if rows and all(c.isdigit() for row in want for c in row):
        assert type(got) is cli._PlainRows
    path = tmp_path_factory.getbasetemp() / "world.json"
    _write_json({"w": got}, path)
    assert path.read_text(encoding="utf-8") == json.dumps({"w": want}, indent=2) + "\n"


def test_cli_json_report_is_indented_ascii_json(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('name,city,note\n"M\u00fcller, J\u00f6rg",Z\u00fcrich,\n'
                    '\u03a9mega,"Paris, FR",\n,\u6771\u4eac,\n', encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(["measure", "--table", str(path), "--constraint", "spkey(name,city,note)",
                 "--measures", "g3,g5", "--json", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert text.isascii()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    entry = json.loads(text)["constraints"][0]
    assert entry["witness_world"][0] == ["M\u00fcller, J\u00f6rg", "Z\u00fcrich", "ssymb"]
    assert entry["measures"]["g3"]["witness_world"] == entry["witness_world"]


def _counting(calls, monkeypatch, module, name):
    """Record ``(name, table)`` for each call of ``module.name``, under
    that name in the module and, where the CLI imports it, in the CLI."""
    real = getattr(module, name)

    def wrapper(table, *args, **kwargs):
        calls.append((name, table))
        return real(table, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    if hasattr(cli, name):
        monkeypatch.setattr(cli, name, wrapper)


@pytest.mark.parametrize("attrs, rows, spec, g3, g5", [
    (["X", "Y"], [("1", "a"), (None, "b"), (None, "c")], "spfd(X -> Y)", "2/3", "2/3"),
    (["A", "B", "C"], [("1", "1", "1"), ("1", "2", "2")], "spmvd(A ->> B)", "1/2", "2/2"),
    (["A", "B", "C"], [("1", "1", "1"), ("2", "2", "2")], "spcj(A,B x C)", "1/2", "2/2"),
])
def test_an_entry_checks_its_table_once(monkeypatch, attrs, rows, spec, g3, g5):
    # The entry's verdict is g3's level 0 and g5's k = 0, and an fd's g5
    # takes its bound from the entry's g3 instead of running g3 again.
    calls = []
    for module, name in [(spfd, "check_spfd"), (spfd, "g3_spfd"),
                         (tuplegen, "check_spmvd"), (tuplegen, "check_spcj_general")]:
        _counting(calls, monkeypatch, module, name)
    t = IncompleteTable.build(attrs, rows)
    report = run(t, [parse_constraint(spec, t.schema)], RunOptions(measures=("g3", "g5")))
    measures = report["constraints"][0]["measures"]
    assert (measures["g3"]["fraction"], measures["g5"]["fraction"]) == (g3, g5)
    whole = [s for name, s in calls if name.startswith("check") and s.rows == t.rows]
    assert len(whole) == 1 and whole[0] is t
    g3_calls = [s for name, s in calls if name == "g3_spfd"]
    assert len(g3_calls) == spec.startswith("spfd") and all(s is t for s in g3_calls)


def test_a_singular_cross_join_entry_builds_its_key_matching_once(monkeypatch):
    # The check's analysis of the two columns serves g5, which reads a
    # copy of its matching and leaves the check's matching as it was.
    t = IncompleteTable.build(["A", "B"], [("1", "1"), ("2", None), (None, "3")])
    a, b = frozenset({0}), frozenset({1})
    analysis = spkey.KeyAnalysis(t, a | b)
    verdict = tuplegen.check_spcj(t, a, b, analysis=analysis)
    before = dict(analysis.matching.matching)
    shared = tuplegen.g5_spcj(t, a, b, verdict=verdict, analysis=analysis)
    assert shared == tuplegen.g5_spcj(t, a, b) and shared.fraction_str == "1/3"
    assert analysis.matching.matching == before
    calls = []
    _counting(calls, monkeypatch, spkey, "build_extension_graph")
    report = run(t, [SpCj(a, b)], RunOptions(measures=("g5",)))
    assert report["constraints"][0]["measures"]["g5"]["fraction"] == "1/3"
    assert [partition.table is t for _, partition in calls] == [True]


def test_verify_bounds_the_oracle_g5_by_its_g3(monkeypatch):
    calls = []
    _counting(calls, monkeypatch, oracle, "oracle_g3")
    t = IncompleteTable.build(["X", "Y"], [("1", "a"), (None, "b"), (None, "c")])
    constraints = [parse_constraint(s, t.schema) for s in ("spkey(X,Y)", "spfd(X -> Y)")]
    report = run(t, constraints, RunOptions(measures=("g3", "g5"), verify_with_oracle=True))
    assert all(e["oracle"]["agree"] for e in report["constraints"])
    assert [s is t for _, s in calls] == [True, True]  # one per entry


def test_every_measure_of_an_empty_table_is_undefined():
    # One definition, shared by the engines and the oracle: the measure's
    # precondition fails, and the CLI reports it per measure.
    t = IncompleteTable.build(["a", "b"], [])
    a, b = frozenset({0}), frozenset({1})
    calls = {
        "g3": [lambda: spkey.g3_spkey(t, a), lambda: spfd.g3_spfd(t, a, b),
               lambda: tuplegen.g3_spmvd(t, a, b), lambda: tuplegen.g3_spcj(t, a, b)],
        "g4": [lambda: spkey.g4_spkey(t, a)],
        "g5": [lambda: spkey.g5_spkey(t, a), lambda: spfd.g5_spfd(t, a, b),
               lambda: tuplegen.g5_spmvd(t, a, b), lambda: tuplegen.g5_spcj(t, a, b)],
    }
    for c in (SpKey(a), SpFd(a, b), SpMvd(a, b), SpCj(a, b)):
        calls["g3"].append(lambda c=c: oracle.oracle_g3(t, c))
        calls["g5"].append(lambda c=c: oracle.oracle_g5(t, c))
    for kind, fns in calls.items():
        for fn in fns:
            with pytest.raises(PreconditionError, match=f"{kind} is undefined for an empty table"):
                fn()


@pytest.mark.parametrize("verb", ["measure", "verify"])
def test_cli_measures_a_header_only_csv(tmp_path, verb):
    path = tmp_path / "header.csv"
    path.write_text("a,b\n", encoding="utf-8")
    out = tmp_path / "report.json"
    argv = [verb, "--table", str(path), "--json", str(out)]
    for spec in ("spkey(a)", "spfd(a -> b)", "spmvd(a ->> b)", "spcj(a x b)", "spcj(a,b x b)"):
        argv += ["--constraint", spec]
    assert main(argv) == 0
    for entry in json.loads(out.read_text())["constraints"]:
        assert entry["holds"] and entry["error"] is None
        assert entry["measures"] == {
            name: {"error": f"{name} is undefined for an empty table"} for name in ("g3", "g5")}
        if verb == "verify":
            assert entry["oracle"] == {"checked": True, "holds": True, "g3": "undefined",
                                       "g5": "undefined", "agree": True}


def test_verify_names_each_unchecked_constraint_and_why(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("a,b\n1,2\n2,1\n", encoding="utf-8")
    assert main(["verify", "--table", str(path), "--constraint", "nmvd(a ->> b)",
                 "--constraint", "spkey(a)"]) == 0
    assert capsys.readouterr().err == (
        "the oracle did not check nmvd(a ->> b) (evaluated on the incomplete table itself, "
        "with no worlds to compare)\n")
    path.write_text("a,b\n" + "".join(f"{i},{i}\n" for i in range(9)), encoding="utf-8")
    assert main(["verify", "--table", str(path), "--constraint", "spkey(a)"]) == 0
    assert capsys.readouterr().err == (
        "the oracle did not check spkey(a) (over the oracle's instance limits of 8 rows, "
        "4 columns and 1,000,000 worlds)\n")


def test_verify_exits_1_on_an_oracle_disagreement(table4_csv, monkeypatch, capsys):
    real = cli.g3_spkey

    def off_by_one(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, numerator=result.numerator + 1)

    monkeypatch.setattr(cli, "g3_spkey", off_by_one)
    out = table4_csv.parent / "report.json"
    assert main(["verify", "--table", str(table4_csv), "--constraint", "spkey(a,b)",
                 "--json", str(out)]) == 1
    assert "oracle disagreement detected" in capsys.readouterr().err
    assert json.loads(out.read_text())["constraints"][0]["oracle"]["agree"] is False


def test_a_measure_stopped_by_the_budget_after_the_check_keeps_the_verdict(tmp_path, capsys):
    # Rows (1,1) and (1,2) settle the check with no search; g3 then
    # exceeds the node budget of 0.
    path = tmp_path / "fd.csv"
    path.write_text("a,b\n1,1\n1,2\n2,1\n2,2\n,3\n", encoding="utf-8")
    assert main(["measure", "--table", str(path), "--budget", "0",
                 "--constraint", "spfd(a -> b)"]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "  spfd(a -> b): violated [budget exceeded: search exceeded the node budget of 0]")


def test_verify_reports_an_entry_stopped_by_an_oracle_gap(table4_csv, monkeypatch, capsys):
    def gap(*args, **kwargs):
        raise OracleGapError("the extended pool repairs it sooner")

    monkeypatch.setattr(cli, "oracle_g5", gap)
    out = table4_csv.parent / "report.json"
    assert main(["verify", "--table", str(table4_csv), "--constraint", "spkey(a,b)",
                 "--json", str(out)]) == 1  # violated; the error is no budget stop
    entry = json.loads(out.read_text())["constraints"][0]
    assert entry["error"] == "the extended pool repairs it sooner" and "oracle" not in entry
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].endswith(" [the extended pool repairs it sooner]")
    assert captured.err == (
        "the oracle did not check spkey(a,b) (the entry stopped with an error)\n")


def test_verify_names_an_entry_stopped_by_the_budget(tmp_path, capsys):
    path = tmp_path / "three.csv"
    path.write_text("a,b\n1,2\n,3\n4,\n", encoding="utf-8")
    assert main(["verify", "--table", str(path), "--budget", "0",
                 "--constraint", "spfd(a -> b)"]) == 3
    assert capsys.readouterr().err == (
        "the oracle did not check spfd(a -> b) (the entry stopped with an error)\n")


@st.composite
def cli_requests(draw):
    """argv for one ``check``, ``measure`` or ``verify`` request on a
    small CSV (header-only and one-column files, all-NULL columns,
    duplicate rows, non-ASCII names), with the file's text."""
    names = draw(st.lists(st.sampled_from(["a", "b", "ñ", "列"]), min_size=1, max_size=3,
                          unique=True))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(["1", "2", ""])] * len(names)),
                         max_size=4))
    side = st.lists(st.sampled_from(names), min_size=1, max_size=2).map(",".join)
    # The last two, an empty side and an unknown attribute, are usage errors.
    kinds = ["spkey({})", "spfd({} -> {})", "spmvd({} ->> {})", "spcj({} x {})",
             "nmvd({} ->> {})"] * 2 + ["spcj({} x )", "spfd({} -> zz)"]
    specs = draw(st.lists(st.sampled_from(kinds).flatmap(
        lambda kind: st.tuples(side, side).map(lambda s: kind.format(*s))),
        min_size=1, max_size=2))
    verb = draw(st.sampled_from(["check", "measure", "verify"]))
    argv = [verb, "--null", draw(st.sampled_from(["", "1"])),  # "1" is also a value
            "--budget", str(draw(st.sampled_from([5, 2_000])))]
    if verb != "check":
        argv += ["--measures", draw(st.sampled_from(["g3,g5", "g3,g4,g5"]))]
    for spec in specs:
        argv += ["--constraint", spec]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([names] + rows)
    return argv, text.getvalue()


@given(cli_requests())
@settings(max_examples=200, deadline=None)
def test_cli_ends_every_input_in_an_exit_code(request):
    argv, text = request
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp, "t.csv"), Path(tmp, "report.json")
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        # An exception escaping main is what would end the command in a traceback.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--table", str(path), "--json", str(report)])
        entries = json.loads(report.read_text())["constraints"] if report.exists() else []
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue() and "disagreement" not in err.getvalue()
    if code == 1:
        assert any(e.get("holds") is False for e in entries)


@pytest.mark.parametrize("verb", ["measure", "verify"])
def test_measures_option_has_its_help_text(verb, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([verb, "--help"])
    assert exit_.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--measures MEASURES comma list from g3,g4,g5 (default g3,g5)" in help_text


@pytest.mark.parametrize("text, names", [
    ("g3, g5", ["g3", "g5"]),
    (" g3 ,g5,", ["g3", "g5"]),
    ("g3,g3", ["g3"]),
    ("g5,g3,g5,g3", ["g5", "g3"]),
])
def test_measure_names_are_stripped_and_run_once(table4_csv, tmp_path, monkeypatch, text, names):
    # A name is read as the constraint grammar reads one, spaces dropped,
    # and a repeated name runs once, in the order first given.
    calls = []
    _counting(calls, monkeypatch, spkey, "g3_spkey")
    out = tmp_path / "report.json"
    argv = ["measure", "--table", str(table4_csv), "--constraint", "spkey(a,b)",
            "--json", str(out), "--measures"]
    assert main(argv + [text]) == 1
    data = json.loads(out.read_text())
    assert data["options"]["measures"] == names
    assert list(data["constraints"][0]["measures"]) == names
    assert len(calls) == 1
    assert data["constraints"][0]["measures"]["g3"]["fraction"] == "2/4"


def _answer(argv, outputs):
    """What ``main(argv)`` gives: the exit code (that of a ``SystemExit``
    too), stdout, stderr and the text of each path in ``outputs`` (None
    where none was written), JSON reports with their ``elapsed_ms``
    dropped. The paths are emptied first."""
    for path in outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    files = []
    for path in outputs:
        text = path.read_text(encoding="utf-8") if path.exists() else None
        if text is not None and path.name == "report.json":
            data = json.loads(text)
            for entry in data["constraints"]:
                del entry["elapsed_ms"]
            text = json.dumps(data)
        files.append(text)
    return code, out.getvalue(), err.getvalue(), files


def _one_shot(argv, outputs):
    """``_answer`` with a parser of its own, as a fresh ``spcheck`` process has."""
    cli._shared_parser.cache_clear()
    return _answer(argv, outputs)


def _mixed_requests(tmp_path, rng):
    """(argv, output paths) for ``check``, ``measure``, ``verify`` and
    ``generate`` calls, drawn by ``rng``: repeated ``--constraint`` and
    ``--triple``, ``--null``, ``--no-header``, ``--budget`` and ``--json``
    in some calls and not in others."""
    tables = {"header": (tmp_path / "t.csv", "a,b,c\n,1,x\n2,,x\n2,,y\n2,2,NA\n"),
              "bare": (tmp_path / "bare.csv", "1,NA\n2,3\nNA,3\n")}
    for path, text in tables.values():
        path.write_text(text, encoding="utf-8")
    specs = {"header": ["spkey(a,b)", "spfd(a -> b)", "spmvd(a ->> b)", "spcj(a x c)",
                        "nmvd(a ->> c)", "spkey(zz)"],
             "bare": ["spkey(A1)", "spfd(A1 -> A2)", "spcj(A1 x A2)"]}
    requests = []
    for i in range(14):
        verb = ["check", "measure", "verify"][i % 3]
        layout = rng.choice(["header", "bare"])
        argv = [verb, "--table", str(tables[layout][0])]
        if layout == "bare":
            argv.append("--no-header")
        if rng.random() < 0.5:
            argv += ["--null", "NA"]
        if rng.random() < 0.5:
            argv += ["--budget", str(rng.choice([0, 5, 100_000]))]
        if verb != "check" and rng.random() < 0.7:
            argv += ["--measures", rng.choice(["g3", "g3,g5", "g5,g4"])]
        for spec in rng.sample(specs[layout], rng.randint(1, 3)):
            argv += ["--constraint", spec]
        outputs = []
        if rng.random() < 0.7:
            outputs.append(tmp_path / f"r{i}" / "report.json")
            outputs[0].parent.mkdir()
            argv += ["--json", str(outputs[0])]
        requests.append((argv, outputs))
    generated = [["random", "--rows", "6", "--cols", "2", "--seed", "3"],
                 ["threedm", "--b", "b1,b2", "--cset", "c1,c2", "--d", "d1,d2",
                  "--triple", "b1:c1:d1", "--triple", "b2:c2:d2"],
                 ["thm1", "--p", "1", "--q", "3"]]
    for i, args in enumerate(generated):
        out = tmp_path / f"g{i}"
        requests.append((["generate", *args, "--out", str(out), "--prefix", "p"],
                         [out / "p.csv", out / "p.manifest.json"]))
    rng.shuffle(requests)
    return requests


def test_calls_on_the_shared_parser_stay_independent(tmp_path):
    # Every call on the parser that earlier calls used gives the answer
    # of a call on a parser of its own, in any order: no list of an
    # append option and no default carries over from one call to the next.
    rng = random.Random(20261020)
    requests = _mixed_requests(tmp_path, rng)
    want = [_one_shot(argv, outputs) for argv, outputs in requests]
    assert {code for code, *_ in want} >= {0, 1, 2, 3}
    for _ in range(2):
        order = list(range(len(requests)))
        rng.shuffle(order)
        for i in order:
            assert _answer(*requests[i]) == want[i], requests[i][0]
    shared = cli._shared_parser()
    for argv, _ in requests:
        assert vars(shared.parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


def test_exit_paths_leave_the_shared_parser_as_it_was(table4_csv, tmp_path):
    report = tmp_path / "report.json"
    normal = (["measure", "--table", str(table4_csv), "--constraint", "spkey(a,b)",
               "--constraint", "spfd(a -> b)", "--json", str(report)], [report])
    want = _one_shot(*normal)
    assert want[0] == 1 and want[3][0] is not None
    for argv, code, stream, text in [
        (["check", "--table", str(table4_csv), "--constraint", "spkey(a)", "--budget", "-1"],
         2, 2, "--budget: must be at least 0, not -1"),
        (["check", "--help"], 0, 1, "usage: spcheck check"),
        (["frobnicate", "--table", str(table4_csv)], 2, 2, "invalid choice: 'frobnicate'"),
    ]:
        one_shot = _one_shot(argv, [])
        assert one_shot[0] == code and text in one_shot[stream]
        assert _answer(argv, []) == one_shot
        assert _answer(*normal) == want


def test_main_builds_one_parser_per_process(table4_csv, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(True)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._shared_parser.cache_clear()
    requests = [["check", "--table", str(table4_csv), "--constraint", "spkey(a)"],
                ["measure", "--table", str(table4_csv), "--constraint", "spkey(a,b)"],
                ["check", "--help"], ["verify", "--budget", "x"]]
    for _ in range(5):
        for argv in requests:
            _answer(argv, [])
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    # A fresh process counts every ArgumentParser made while spcheck.cli
    # is imported.
    code = "\n".join([
        "import argparse",
        "made = []",
        "init = argparse.ArgumentParser.__init__",
        "def counting(self, *args, **kwargs):",
        "    made.append(True)",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counting",
        "import spcheck.cli",
        "print(len(made), spcheck.cli._shared_parser.cache_info().currsize)",
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "0 0\n"
