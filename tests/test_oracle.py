from fractions import Fraction

import pytest

from spcheck.constraints import ConstraintVerdict, Nmvd, SpCj, SpFd, SpKey, SpMvd
from spcheck.errors import BudgetExceededError
from spcheck.oracle import (
    enumerate_spworlds,
    holds,
    oracle_check,
    oracle_g3,
    oracle_g5,
    world_count,
)
from spcheck.table import complete_world

from conftest import table


def test_enumerate_counts_and_contains_paper_world(course_table):
    worlds = list(enumerate_spworlds(course_table))
    assert len(worlds) == world_count(course_table) == 8
    target = (
        ("Mathematics", "2019", "Sarah", "5", "1"),
        ("Datamining", "2018", "Sarah", "7", "2"),
        ("Datamining", "2019", "Sarah", "7", "2"),
    )
    assert any(w.rows == target for w in worlds)
    seen = {w.rows for w in worlds}
    assert len(seen) == 8


def test_enumerate_total_table_single_world():
    t = table(["A", "B"], [("1", "2"), ("3", "4")])
    worlds = list(enumerate_spworlds(t))
    assert len(worlds) == 1
    assert worlds[0].rows == t.rows
    assert worlds[0].origin == (0, 1)


def test_enumerate_table4_product(table4):
    assert world_count(table4) == 4
    assert len(list(enumerate_spworlds(table4))) == 4


def test_enumeration_budget_is_hard():
    t = table(["A"], [(None,), ("1",), ("2",), ("3",), ("4",)])
    with pytest.raises(BudgetExceededError):
        list(enumerate_spworlds(t, budget=3))


def test_worlds_weakly_extend_origin(table4):
    from reference import weakly_similar

    full = table4.all_positions()
    domains = table4.active_domains()
    for w in enumerate_spworlds(table4):
        for i, row in enumerate(w.rows):
            assert weakly_similar(row, table4.rows[w.origin[i]], full)
            for a, cell in enumerate(row):
                assert cell in domains[a]


def test_holds_units():
    key_rows = (("1", "1"), ("1", "2"))
    assert holds(key_rows, SpKey(frozenset({0, 1})))
    assert not holds(key_rows, SpKey(frozenset({0})))
    assert holds(key_rows, SpFd(frozenset({1}), frozenset({0})))
    assert not holds(key_rows, SpFd(frozenset({0}), frozenset({1})))
    mvd_rows = (("1", "1", "1"), ("1", "1", "2"), ("1", "1", "1"))
    assert holds(mvd_rows, SpMvd(frozenset({0}), frozenset({1})), 3)
    cj_rows = (("1", "1"), ("1", "2"), ("2", "1"), ("2", "2"))
    assert holds(cj_rows, SpCj(frozenset({0}), frozenset({1})))
    assert not holds(cj_rows[:3], SpCj(frozenset({0}), frozenset({1})))


def test_single_row_table_satisfies_everything():
    t = table(["A", "B", "C"], [("1", None, "2")])
    for c in (
        SpKey(frozenset({0})),
        SpFd(frozenset({0}), frozenset({1})),
        SpMvd(frozenset({0}), frozenset({1})),
        SpCj(frozenset({0}), frozenset({1})),
    ):
        assert oracle_check(t, c).holds


def test_oracle_check_table4_key(table4):
    assert oracle_check(table4, SpKey(frozenset({0, 1}))) == ConstraintVerdict(False)


def test_oracle_check_course_key(course_table):
    verdict = oracle_check(course_table, SpKey(frozenset({0, 1})))
    assert verdict.holds
    assert holds(verdict.witness.rows, SpKey(frozenset({0, 1})))


def test_oracle_check_dispatches_nmvd(fig1_tables):
    a, _, c = fig1_tables
    assert not oracle_check(a, Nmvd(frozenset({0}), frozenset({1}))).holds
    assert oracle_check(c, Nmvd(frozenset({0}), frozenset({1}))).holds


def test_oracle_g3_table4(table4):
    res = oracle_g3(table4, SpKey(frozenset({0, 1})))
    assert res.ratio == Fraction(1, 2)
    assert res.numerator == 2 and res.denominator == 4
    assert res.removed_rows == (1, 2)  # lexicographically smallest witness


def test_oracle_g3_six_rows(fd_six_rows):
    res = oracle_g3(fd_six_rows, SpFd(frozenset({0, 1}), frozenset({2})))
    assert res.ratio == Fraction(1, 3)


def test_oracle_g3_zero_when_holds(course_table):
    res = oracle_g3(course_table, SpKey(frozenset({0, 1})))
    assert res.numerator == 0 and res.removed_rows == ()


def test_oracle_g5_table4(table4):
    res = oracle_g5(table4, SpKey(frozenset({0, 1})))
    assert res.ratio == Fraction(1, 4)
    assert len(res.added_rows) == 1


def test_oracle_g5_six_rows(fd_six_rows):
    res = oracle_g5(fd_six_rows, SpFd(frozenset({0, 1}), frozenset({2})))
    assert res.ratio == Fraction(1, 6)


def test_oracle_g5_teacher_cj(cj_five):
    res = oracle_g5(cj_five, SpCj(frozenset({0}), frozenset({1})))
    assert res.ratio == Fraction(1, 5)
    assert res.added_rows == ((None, None),)


def test_oracle_measures_iff_check():
    t = table(["A", "B"], [("1", None), ("1", "2")])
    for c in (SpKey(frozenset({0, 1})), SpFd(frozenset({0}), frozenset({1}))):
        holds = oracle_check(t, c).holds
        assert (oracle_g3(t, c).numerator == 0) == holds
        g5 = oracle_g5(t, c)
        assert (g5.numerator == 0) == holds


def test_oracle_g5_unrepairable_duplicate_totals():
    t = table(["A", "B"], [("1", "1"), ("1", "1")])
    res = oracle_g5(t, SpKey(frozenset({0, 1})))
    assert res.numerator is None
    assert res.ratio is None
    assert res.fraction_str == "undefined"


def test_g5_witness_origin_marks_synthetic(table4):
    res = oracle_g5(table4, SpKey(frozenset({0, 1})))
    assert res.witness.origin == (0, 1, 2, 3, None)


def test_lexmin_world(table4):
    w = complete_world(table4)
    assert w.rows == (("2", "1"), ("2", "1"), ("2", "1"), ("2", "2"))


def test_cross_check_detects_planted_gap(table4):
    # If the primary pool had needed two additions here, the extended
    # pool would expose the one-row repair.
    from spcheck.errors import OracleGapError
    from spcheck.oracle import _run_cross_check

    with pytest.raises(OracleGapError):
        _run_cross_check(table4, SpKey(frozenset({0, 1})), 2, 10_000_000)


def test_oracle_g5_cross_check_clean_on_examples(fd_six_rows, table4):
    # both tables are small enough for the found optimum to be
    # re-verified against the exhaustive pool
    res = oracle_g5(table4, SpKey(frozenset({0, 1})))
    assert res.numerator == 1
    res = oracle_g5(fd_six_rows, SpFd(frozenset({0, 1}), frozenset({2})))
    assert res.numerator == 1


def test_oracle_g3_stops_at_the_world_budget():
    # Removing rows never adds a world, so the search stops at once.
    t = table(["A"], [(None,), ("1",), ("2",), ("3",), ("4",)])
    with pytest.raises(BudgetExceededError, match="g3 search stopped at removal size 0") as err:
        oracle_g3(t, SpKey(frozenset({0})), budget=3)
    assert err.value.partial_bound == 0


def test_oracle_g5_cross_join_stops_at_the_world_budget():
    # Each added all-NULL row multiplies the worlds by 3 * 3 * 2; the
    # fifth addition exceeds the default budget.
    t = table(
        ["A1", "A2", "A3"],
        [("3", "2", "1"), ("1", "1", "2"), ("2", "2", "2"),
         (None, "1", "1"), (None, "1", "2"), (None, "3", "2")],
    )
    with pytest.raises(BudgetExceededError, match="g5 search stopped at addition size 5") as err:
        oracle_g5(t, SpCj(frozenset({0}), frozenset({1, 2})))
    assert err.value.partial_bound == 5
