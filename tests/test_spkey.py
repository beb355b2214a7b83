import random
from fractions import Fraction
from itertools import product

import pytest

from spcheck import spkey
from spcheck.cli import RunOptions, run
from spcheck.constraints import MeasureResult, SpKey
from spcheck.errors import PreconditionError
from spcheck.matching import hall_components
from spcheck.generators import gen_prop3, gen_thm1
from spcheck.oracle import holds
from spcheck.spkey import (
    KeyAnalysis,
    check_spkey,
    first_total_duplicate,
    g3_spkey,
    g4_spkey,
    g5_spkey,
)
from spcheck.table import SSYMB, fresh_values, is_total, iter_extensions, projection

import reference
from conftest import assert_addition_witness, assert_removal_witness, table
from reference import build_extension_graph, kuhn_matching_size, reference_measures, weakly_similar

BOTH = frozenset({0, 1})


def test_check_course_key(course_table):
    verdict = check_spkey(course_table, frozenset({0, 1}))
    assert verdict.holds
    assert holds(verdict.witness.rows, SpKey(frozenset({0, 1})))
    # witness rows stay weakly similar to their sources
    for i, row in enumerate(verdict.witness.rows):
        assert weakly_similar(row, course_table.rows[i], course_table.all_positions())


def test_check_table4_violated(table4):
    assert not check_spkey(table4, BOTH).holds


def test_check_single_row():
    t = table(["A", "B"], [(None, None)])
    assert check_spkey(t, BOTH).holds


def test_check_reports_a_total_duplicate_without_a_graph(monkeypatch):
    # Row 3 repeats row 0 on the key; row 4 repeats row 2 later on.
    t = table(["A", "B", "C"], [("1", "1", "1"), (None, "1", "2"), ("2", "2", "1"),
                                ("1", "1", "3"), ("2", "2", "2"), ("1", None, "1")])
    full = KeyAnalysis(t, BOTH).matching.size
    builds = []
    monkeypatch.setattr(spkey, "build_extension_graph", lambda *args, **kw: builds.append(args))
    verdict = check_spkey(t, BOTH)
    assert (verdict.holds, verdict.witness, verdict.violation) == (False, None, (3,))
    assert builds == []
    monkeypatch.undo()
    assert KeyAnalysis(t.with_rows_removed([3]), BOTH).matching.size == full


def test_violation_row_is_left_unmatched_by_a_maximum_matching():
    # Without the reported row's vertex the full graph still has a
    # matching as large as with it.
    duplicates = unmatched = 0
    for t in _random_tables(400, seed=13):
        for key in (t.all_positions(), frozenset({0})):
            verdict = check_spkey(t, key)
            if verdict.holds:
                continue
            (row,) = verdict.violation
            if first_total_duplicate(t, key) is None:
                unmatched += 1
            else:
                duplicates += 1
            g = build_extension_graph(t, key)
            size = lambda rows: kuhn_matching_size([g.adjacency[i] for i in rows],
                                                   len(g.right_tuples))
            assert size([i for i in range(t.row_count) if i != row]) == size(range(t.row_count))
    assert duplicates >= 200 and unmatched >= 100


def test_check_rejects_empty_key(table4):
    with pytest.raises(ValueError):
        check_spkey(table4, frozenset())


def test_g3_table4(table4):
    res = g3_spkey(table4, BOTH)
    assert res.numerator == 2 and res.denominator == 4
    assert res.ratio == Fraction(1, 2)
    assert len(res.removed_rows) == 2
    assert holds(res.witness.rows, SpKey(BOTH))


def test_g3_holds_is_zero(course_table):
    assert g3_spkey(course_table, frozenset({0, 1})).numerator == 0


def test_g3_removal_witness_prefers_nontotal():
    # One total row competes with a blank row for the same extension; the
    # total row must be kept once a swap is available.
    t = table(["A", "B"], [("1", "1"), (None, "1")])
    res = g3_spkey(t, BOTH)
    assert res.numerator == 1
    assert all(not is_total(t.rows[i], BOTH) for i in res.removed_rows)


def _assert_g3_witness_fills_from_the_kept_rows_domains(rows):
    t = table(["A1", "A2"], rows)
    res = g3_spkey(t, BOTH)
    domains = t.with_rows_removed(res.removed_rows).active_domains()
    for filled, i in zip(res.witness.rows, res.witness.origin):
        for a, cell in enumerate(t.rows[i]):
            if cell is None:
                assert filled[a] in domains[a]


def test_g3_witness_keeps_the_row_with_more_values():
    # The matching takes the row with fewer NULLs first, so the all-NULL
    # row is the one removed and the kept row fills from its own values.
    _assert_g3_witness_fills_from_the_kept_rows_domains([(None, None), (None, "1")])


@pytest.mark.xfail(
    strict=True,
    reason="the g3 witness keeps the maximum matching's fills, so a kept NULL "
    "can take a value that only a removed row held; the fraction is right",
)
def test_g3_witness_fills_from_the_kept_rows_domains():
    _assert_g3_witness_fills_from_the_kept_rows_domains([("3", "3"), ("3", None), (None, "1")])


def test_g4_examples(table4):
    assert g4_spkey(table4, BOTH).ratio == Fraction(1, 2)
    holds = table(["A", "B"], [("1", "1"), ("2", "2")])
    assert g4_spkey(holds, BOTH).numerator == 0
    mixed = table(
        ["A", "B"],
        [("1", "1"), ("1", "2"), ("2", None), ("2", None), ("2", None)],
    )
    res = g4_spkey(mixed, BOTH)
    assert res.numerator == 1 and res.denominator == 7
    assert g3_spkey(mixed, BOTH).ratio == Fraction(1, 5)


def test_g4_ratio_bound_examples(table4):
    # either equal to g3 or within the (1, 2) ratio band
    for t in (
        table4,
        table(["A", "B"], [("1", "1"), ("1", "2"), ("2", None), ("2", None), ("2", None)]),
        table(["A", "B"], [("1", "1"), ("2", "2")]),
    ):
        g3 = g3_spkey(t, BOTH).ratio
        g4 = g4_spkey(t, BOTH).ratio
        if g4 > 0:
            assert g3 == g4 or 1 < g3 / g4 < 2
        else:
            assert g3 == 0


def test_g5_table4(table4):
    res = g5_spkey(table4, BOTH)
    assert res.numerator == 1 and res.denominator == 4
    added = res.added_rows[0]
    assert added[0] == added[1]
    assert holds(res.witness.rows, SpKey(BOTH))
    assert res.witness.origin == (0, 1, 2, 3, None)


def test_g5_holds_is_zero(course_table):
    assert g5_spkey(course_table, frozenset({0, 1})).numerator == 0


def test_g5_precondition_error():
    t = table(["A", "B"], [("1", "1"), ("1", "1")])
    assert first_total_duplicate(t, BOTH) is not None
    with pytest.raises(PreconditionError):
        g5_spkey(t, BOTH)


def test_g5_single_column_unrepairable():
    t = table(["A"], [(None,), (None,), ("1",)])
    res = g5_spkey(t, frozenset({0}))
    assert res.numerator is None


def test_g3_geq_g5(table4, cars_table, teaching_table):
    for t, key in (
        (table4, BOTH),
        (cars_table, BOTH),
        (teaching_table, BOTH),
    ):
        if first_total_duplicate(t, key) is None:
            assert g3_spkey(t, key).ratio >= g5_spkey(t, key).ratio


def test_cars_table_counts(cars_table):
    res3 = g3_spkey(cars_table, BOTH)
    res5 = g5_spkey(cars_table, BOTH)
    assert res3.numerator == 2
    assert res5.numerator == 1


def test_report_bundle(table4):
    g3 = g3_spkey(table4, BOTH)
    assert g3.numerator != 0
    assert g3.ratio == Fraction(1, 2)
    assert g4_spkey(table4, BOTH).ratio == Fraction(1, 2)
    assert g5_spkey(table4, BOTH).ratio == Fraction(1, 4)


def test_analysis_refuses_another_table(table4, cars_table):
    analysis = KeyAnalysis(table4, BOTH)
    with pytest.raises(ValueError):
        g3_spkey(cars_table, BOTH, analysis=analysis)
    with pytest.raises(ValueError):
        g3_spkey(table4, frozenset({0}), analysis=analysis)


def test_holding_key_builds_one_world():
    t = table(["A", "B"], [("1", None), (None, "2"), ("3", "3"), (None, None)])
    analysis = KeyAnalysis(t, BOTH)
    check = check_spkey(t, BOTH, analysis=analysis)
    g3 = g3_spkey(t, BOTH, analysis=analysis)
    g5 = g5_spkey(t, BOTH, analysis=analysis)
    assert check.holds and g3.numerator == 0 and g5.numerator == 0
    assert g5.witness is check.witness
    assert g3.witness == check.witness
    assert check.witness.rows[2] is t.rows[2]  # a NULL-free row is kept as it is
    assert holds(check.witness.rows, SpKey(BOTH))


def test_one_graph_build_per_key(monkeypatch, table4, cars_table):
    builds = []
    real = spkey.build_extension_graph

    def counting(partition, leave_out):
        builds.append(partition.table)
        return real(partition, leave_out)

    monkeypatch.setattr(spkey, "build_extension_graph", counting)
    for t in (table4, cars_table):
        builds.clear()
        keys = [SpKey(BOTH), SpKey(frozenset({1}))]
        report = run(t, keys, RunOptions(measures=("g3", "g4", "g5")))
        # g5 >= 1 here, so its rounds ran, on the source table's graph
        assert report["constraints"][0]["measures"]["g5"]["count"] == 1
        assert builds == [t, t]


def test_g4_counts_the_full_graph_with_one_build(monkeypatch):
    # The all-NULL row has 16 >= |T| + 1 extensions, and the total rows
    # are settled: g4 counts the full graph's components from the shared
    # settled graph's matching instead of building the full graph.
    t = table(["A", "B"], [(v, v) for v in "1234"] + [("1", None)] * 5 + [(None, None)])
    n = t.row_count
    parts = hall_components(build_extension_graph(t, BOTH))
    builds = []
    real = spkey.build_extension_graph

    def counting(partition, leave_out):
        builds.append(partition.table)
        return real(partition, leave_out)

    monkeypatch.setattr(spkey, "build_extension_graph", counting)
    report = run(t, [SpKey(BOTH)], RunOptions(measures=("g3", "g4")))
    assert builds == [t]
    assert parts.total_nu < n
    expected = f"{n - parts.total_nu}/{n + parts.satisfied_tuple_count}"
    assert report["constraints"][0]["measures"]["g4"]["fraction"] == expected


def _cold_g5(t, key):
    """The g5 loop before warm starts: the least k up to the g3 removal
    count at which a full check of the table plus the first k fresh rows
    holds, with those rows; (None, None) with none."""
    bound = g3_spkey(t, key).numerator
    added = tuple((token,) * t.arity for token in fresh_values(t, bound))
    for k in range(bound + 1):
        if check_spkey(t.with_rows_added(added[:k]), key).holds:
            return k, added[:k]
    return None, None


def _assert_warm_equals_cold(t, key):
    warm = g5_spkey(t, key)
    assert (warm.numerator, warm.added_rows) == _cold_g5(t, key)
    if warm.numerator is not None:
        extended = t.with_rows_added(warm.added_rows)
        assert holds(warm.witness.rows, SpKey(key))
        assert warm.witness.origin == tuple(range(t.row_count)) + (None,) * warm.numerator
        domains = extended.active_domains()
        for world_row, row in zip(warm.witness.rows, extended.rows, strict=True):
            assert weakly_similar(world_row, row, t.all_positions())
            assert all(v in domains[a] for a, v in enumerate(world_row))
    return warm.numerator


def _random_tables(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        cols, n, domain = rng.randint(1, 3), rng.randint(1, 9), rng.randint(1, 4)
        rows = [tuple(None if rng.random() < 0.35 else str(rng.randint(1, domain))
                      for _ in range(cols)) for _ in range(n)]
        yield table([f"A{i + 1}" for i in range(cols)], rows)


def test_warm_g5_equals_cold_on_random_tables():
    repaired = 0
    for t in _random_tables(400, seed=5):
        for key in (t.all_positions(), frozenset({0})):
            if first_total_duplicate(t, key) is None:
                repaired += (_assert_warm_equals_cold(t, key) or 0) > 0
    assert repaired >= 50


@pytest.mark.parametrize("gen, p, q, c", [
    (gen_thm1, 1, 2, 1), (gen_thm1, 2, 3, 2), (gen_thm1, 3, 7, 1),
    (gen_prop3, 1, 2, 1), (gen_prop3, 2, 5, 1), (gen_prop3, 3, 4, 2),
])
def test_warm_g5_equals_cold_on_families(gen, p, q, c):
    instance = gen(p, q, c)
    assert _assert_warm_equals_cold(instance.table, instance.constraint.key) >= 1


def _grid_table(domain, nulls, partial=0):
    """Every total row of a domain x domain grid, ``partial`` rows NULL in
    the second column and ``nulls`` all-NULL rows."""
    values = [str(v) for v in range(1, domain + 1)]
    rows = list(product(values, values)) + [("1", None)] * partial + [(None, None)] * nulls
    return table(["A", "B"], rows)


@pytest.mark.parametrize("domain, nulls, partial, rounds", [
    (2, 4, 0, 1), (2, 10, 0, 2), (2, 9, 1, 2), (3, 12, 2, 2),
])
def test_warm_g5_rows_crossing_the_cap_in_a_round(domain, nulls, partial, rounds):
    # Rows under the |T| + 1 cap at the base whose count reaches
    # |T| + 1 .. |T| + k in round k stay materialized.
    t = _grid_table(domain, nulls, partial)
    n = t.row_count
    assert _assert_warm_equals_cold(t, BOTH) == rounds
    grows = lambda k: (domain + k) ** 2
    assert len(list(iter_extensions(t, t.rows[-1], BOTH))) < n + 1
    assert any(n + 1 <= grows(k) <= n + k for k in range(1, rounds + 1))


def test_warm_g5_high_degree_rows():
    # The all-NULL row has 9 >= |T| + 1 extensions: the pigeonhole step
    # covers it in every round.
    t = table(["A", "B"], [("1", "1"), ("2", "2"), ("3", "3")]
              + [("1", None)] * 4 + [(None, None)])
    assert KeyAnalysis(t, BOTH).graph.high_degree_left == {7: 9}
    assert _assert_warm_equals_cold(t, BOTH) == 2


def test_warm_g5_rows_leave_the_graph_at_the_cap(monkeypatch):
    # The all-NULL row has 12 extensions at the base, 36 in round 1 and
    # 80 in round 2, against caps of 46, 47 and 48: from round 2 on the
    # pigeonhole step covers it, and in no round does an edge list reach
    # that round's cap of |T| + k + 1. The graph holds the 41 rows with a
    # NULL as two vertices, the 40 equal rows first and the all-NULL row
    # last, and no fresh row; the all-NULL row's list in round 1 leaves
    # out the four total projections and the fresh row's own.
    t = table(["A", "B", "C"], [("1", None, "1")] * 40 + [("2", b, "1") for b in "123"]
              + [("2", "1", "2"), (None, None, None)])
    n = t.row_count
    lengths = []
    real = spkey.hopcroft_karp

    def recording(adjacency, slots, match_r):
        lengths.append([len(edges) for edges in adjacency])
        assert slots.count(0) == 40
        return real(adjacency, slots, match_r)

    monkeypatch.setattr(spkey, "hopcroft_karp", recording)
    assert _assert_warm_equals_cold(t, t.all_positions()) == 37 == len(lengths)
    assert all(len(round_lengths) == 2 for round_lengths in lengths)
    assert [round_lengths[1] for round_lengths in lengths[:3]] == [36 - 4 - 1, 0, 0]
    assert all(max(round_lengths) <= n + k for k, round_lengths in enumerate(lengths, 1))


def test_warm_g5_all_null_key_column():
    # The reserved symbol of column A gives way to the fresh values.
    t = table(["A", "B"], [(None, "1"), (None, None), (None, "1")])
    assert _assert_warm_equals_cold(t, BOTH) == 2


def _exactness_tables(count, seed):
    """Random tables with, often, a repeated key-total row, an all-NULL
    column and an all-NULL row, next to a key: the whole row or one
    column."""
    rng = random.Random(seed)
    for _ in range(count):
        cols, n, domain = rng.randint(1, 3), rng.randint(1, 8), rng.randint(1, 5)
        rows = [[None if rng.random() < 0.35 else str(rng.randint(1, domain))
                 for _ in range(cols)] for _ in range(n)]
        totals = [r for r in rows if None not in r]
        if totals and rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), list(rng.choice(totals)))
        if rng.random() < 0.15:
            blank = rng.randrange(cols)
            for r in rows:
                r[blank] = None
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), [None] * cols)
        t = table([f"A{i + 1}" for i in range(cols)], [tuple(r) for r in rows])
        yield t, t.all_positions()
        yield t, frozenset({rng.randrange(cols)})


def test_settled_engine_equals_the_full_graph():
    seen = dict.fromkeys(["duplicate", "blank column", "at |T| + 1", "over |T| + 1", "one column",
                          "g5"], 0)
    for t, key in _exactness_tables(800, seed=23):
        n = t.row_count
        holds, g3, g4, g5 = reference_measures(t, key)
        analysis = KeyAnalysis(t, key)
        assert check_spkey(t, key, analysis=analysis).holds == holds
        removal = g3_spkey(t, key, analysis=analysis)
        assert removal.numerator == g3
        res = g4_spkey(t, key, analysis=analysis)
        assert (res.numerator, res.denominator) == g4
        if g5 == "precondition":
            with pytest.raises(PreconditionError):
                g5_spkey(t, key, analysis=analysis)
        else:
            assert g5_spkey(t, key, analysis=analysis).numerator == g5
        # A removed key-total row repeats an earlier row's projection.
        cols = sorted(key)
        for i in removal.removed_rows:
            if is_total(t.rows[i], key):
                assert any(is_total(t.rows[j], key) and projection(t.rows[j], cols)
                           == projection(t.rows[i], cols) for j in range(i))
        seen["duplicate"] += first_total_duplicate(t, key) is not None
        seen["blank column"] += any(t.active_domain(c) == (SSYMB,) for c in key)
        counts = [len(list(iter_extensions(t, row, key))) for row in t.rows]
        seen["at |T| + 1"] += n + 1 in counts
        seen["over |T| + 1"] += max(counts) > n + 1
        seen["one column"] += len(key) == 1 and t.arity > 1
        seen["g5"] += g5 not in (0, None, "precondition")
    assert min(seen.values()) >= 20, seen


def _grouped_tables(count, seed):
    """Random tables whose rows with a NULL often repeat, with, at times,
    an all-NULL column and all-NULL rows, next to a key: the whole row or
    a random set of columns."""
    rng = random.Random(seed)
    for _ in range(count):
        cols, domain = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[None if rng.random() < 0.4 else str(rng.randint(1, domain))
                 for _ in range(cols)] for _ in range(rng.randint(1, 7))]
        for r in [r for r in rows if None in r]:
            rows += [list(r) for _ in range(rng.choice([0, 0, 1, 2, 3]))]
        if rng.random() < 0.2:
            blank = rng.randrange(cols)
            for r in rows:
                r[blank] = None
        if rng.random() < 0.2:
            rows += [[None] * cols] * rng.randint(1, 3)
        rng.shuffle(rows)
        t = table([f"A{i + 1}" for i in range(cols)], [tuple(r) for r in rows])
        yield t, t.all_positions()
        yield t, frozenset(rng.sample(range(cols), rng.randint(1, cols)))


def _replays(check, *args):
    try:
        check(*args)
    except AssertionError:
        return False
    return True


def test_grouped_analysis_matches_the_per_row_reference():
    # One vertex per distinct projection, with its row count as capacity,
    # gives the per-row graph's matching size, the reference's check, g3,
    # g4 and g5, and witnesses that replay; where every projection with a
    # NULL is distinct it gives the per-row matching itself.
    seen = dict.fromkeys(["repeated", "distinct", "blank column", "left out", "g5"], 0)
    for t, key in _grouped_tables(700, seed=41):
        n = t.row_count
        grouped, per_row = KeyAnalysis(t, key), reference.KeyAnalysis(t, key)
        assert grouped.matching.size == reference.full_graph_nu(t, key)
        holds_, g3, g4, g5 = reference_measures(t, key)
        satisfied = lambda rows: holds(rows, SpKey(key))
        verdict = check_spkey(t, key, analysis=grouped)
        assert verdict.holds == holds_
        if holds_:
            assert_removal_witness(t, MeasureResult("g3", 0, n, (), witness=verdict.witness),
                                   satisfied)
        removal = g3_spkey(t, key, analysis=grouped)
        assert removal.numerator == g3
        # The key g3 witness may fill a kept NULL from a removed row's
        # value (a known fault); a maximum matching of its own must not
        # show it where the per-row matching does not.
        if _replays(assert_removal_witness, t, g3_spkey(t, key, analysis=per_row), satisfied):
            assert_removal_witness(t, removal, satisfied)
        res = g4_spkey(t, key, analysis=grouped)
        assert (res.numerator, res.denominator) == g4
        if g5 == "precondition":
            with pytest.raises(PreconditionError):
                g5_spkey(t, key, analysis=grouped)
        else:
            addition = g5_spkey(t, key, analysis=grouped)
            assert addition.numerator == g5
            if g5 is not None:
                assert_addition_witness(t, addition, satisfied, t.all_positions())
        repeated = any(None in p for p in grouped.partition.repeats)
        if not repeated:
            assert grouped.matching.matching == per_row.matching.matching
        seen["repeated"] += repeated
        seen["distinct"] += not repeated and bool(grouped.partition.nulls)
        seen["blank column"] += any(t.active_domain(c) == (SSYMB,) for c in key)
        seen["left out"] += bool(grouped.graph.high_degree_left)
        seen["g5"] += g5 not in (0, None, "precondition")
    assert min(seen.values()) >= 50, seen


def _without_timing(report):
    for entry in report["constraints"]:
        entry.pop("elapsed_ms")
    report.pop("options")
    return report


def test_measure_order_does_not_matter(table4, cars_table):
    tables = [table4, cars_table, _grid_table(2, 9, 1),
              table(["A", "B"], [("1", "1"), ("2", "2"), ("3", "3")]
                    + [("1", None)] * 4 + [(None, None)])]
    tables += list(_random_tables(60, seed=9))
    for t in tables:
        keys = [SpKey(t.all_positions()), SpKey(frozenset({0}))]
        forward = run(t, keys, RunOptions(measures=("g3", "g4", "g5")))
        backward = run(t, keys, RunOptions(measures=("g5", "g4", "g3")))
        assert _without_timing(forward) == _without_timing(backward)
