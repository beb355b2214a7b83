from fractions import Fraction

import pytest

from spcheck.errors import PreconditionError
from spcheck.oracle import holds_key
from spcheck.spkey import (
    check_spkey,
    g3_spkey,
    g4_spkey,
    g5_spkey,
    total_part_satisfies_key,
)
from spcheck.table import is_total

from conftest import table

BOTH = frozenset({0, 1})


def test_check_course_key(course_table):
    verdict = check_spkey(course_table, frozenset({0, 1}))
    assert verdict.holds
    assert holds_key(verdict.witness.rows, frozenset({0, 1}))
    # witness rows stay weakly similar to their sources
    from spcheck.table import weakly_similar

    for i, row in enumerate(verdict.witness.rows):
        assert weakly_similar(row, course_table.rows[i], course_table.all_positions())


def test_check_table4_violated(table4):
    assert not check_spkey(table4, BOTH).holds


def test_check_single_row():
    t = table(["A", "B"], [(None, None)])
    assert check_spkey(t, BOTH).holds


def test_check_rejects_empty_key(table4):
    with pytest.raises(ValueError):
        check_spkey(table4, frozenset())


def test_g3_table4(table4):
    res = g3_spkey(table4, BOTH)
    assert res.numerator == 2 and res.denominator == 4
    assert res.ratio == Fraction(1, 2)
    assert len(res.removed_rows) == 2
    assert holds_key(res.witness.rows, BOTH)


def test_g3_holds_is_zero(course_table):
    assert g3_spkey(course_table, frozenset({0, 1})).numerator == 0


def test_g3_removal_witness_prefers_nontotal():
    # One total row competes with a blank row for the same extension; the
    # total row must be kept once a swap is available.
    t = table(["A", "B"], [("1", "1"), (None, "1")])
    res = g3_spkey(t, BOTH)
    assert res.numerator == 1
    assert all(not is_total(t.rows[i], BOTH) for i in res.removed_rows)


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
    assert holds_key(res.witness.rows, BOTH)
    assert res.witness.origin == (0, 1, 2, 3, None)


def test_g5_holds_is_zero(course_table):
    assert g5_spkey(course_table, frozenset({0, 1})).numerator == 0


def test_g5_precondition_error():
    t = table(["A", "B"], [("1", "1"), ("1", "1")])
    assert not total_part_satisfies_key(t, BOTH)
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
        if total_part_satisfies_key(t, key):
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
