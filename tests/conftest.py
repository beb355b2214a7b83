"""Shared fixtures: the worked tables used across the test modules."""

import random

import pytest

from spcheck.errors import BudgetExceededError
from spcheck.search import Budget
from spcheck.table import IncompleteTable


def table(attrs, rows):
    return IncompleteTable.build(attrs, rows)


def dependency_draws(count: int, seed: int):
    """``count`` random tables of 2 to 4 columns and 2 to 20 rows, each
    with three random dependencies (left side, right side)."""
    rng = random.Random(seed)
    for _ in range(count):
        width, n, domain = rng.randint(2, 4), rng.randint(2, 20), rng.randint(1, 4)
        rate = rng.choice([0.1, 0.2, 0.3, 0.45])
        t = table([f"A{a}" for a in range(width)],
                  [tuple(None if rng.random() < rate else str(rng.randint(1, domain))
                         for _ in range(width)) for _ in range(n)])
        for _ in range(3):
            cols = rng.sample(range(width), width)
            k = rng.randint(1, width - 1)
            yield t, frozenset(cols[:k]), frozenset(cols[k:k + rng.randint(1, width - k)])


def spend(measure, limit: int):
    """``measure(budget)`` and the nodes it spent, or None on a budget stop."""
    budget = Budget(limit)
    try:
        return measure(budget), budget.spent
    except BudgetExceededError:
        return None, budget.spent


def assert_removal_witness(t, result, holds):
    """``result`` is a g3 result whose removed rows number its numerator
    and whose witness is a strongly possible world of the kept rows (each
    NULL filled from the kept rows' own active domain) on which the
    constraint, given as ``holds(rows)``, holds classically."""
    assert len(result.removed_rows) == result.numerator
    kept = t.with_rows_removed(result.removed_rows)
    assert result.witness.origin == tuple(i for i in range(t.row_count)
                                          if i not in result.removed_rows)
    assert len(result.witness.rows) == kept.row_count
    domains = kept.active_domains()
    for row, done in zip(kept.rows, result.witness.rows):
        for a, (cell, value) in enumerate(zip(row, done)):
            assert value == cell if cell is not None else value in domains[a]
    assert holds(result.witness.rows)


def assert_addition_witness(t, result, holds, fresh=frozenset()):
    """``result`` is a g5 result whose added rows number its numerator,
    each all-NULL or, when ``fresh`` names columns, carrying a value
    outside ``t``'s active domain on each of them and NULL elsewhere, and
    whose witness is a strongly possible world of the extended table
    (each NULL filled from its own active domain) on which the
    constraint, given as ``holds(rows)``, holds classically."""
    assert len(result.added_rows) == result.numerator
    domains = t.active_domains()
    for row in result.added_rows:
        if any(cell is not None for cell in row):
            assert fresh and all((row[a] is not None and row[a] not in domains[a])
                                 == (a in fresh) for a in range(t.arity))
    extended = t.with_rows_added(result.added_rows)
    assert result.witness.origin == tuple(range(t.row_count)) + (None,) * result.numerator
    assert len(result.witness.rows) == extended.row_count
    domains = extended.active_domains()
    for row, done in zip(extended.rows, result.witness.rows):
        for a, (cell, value) in enumerate(zip(row, done)):
            assert value == cell if cell is not None else value in domains[a]
    assert holds(result.witness.rows)


@pytest.fixture
def course_table():
    return table(
        ["Course_Name", "Year", "Lecturer", "Credits", "Semester"],
        [
            ("Mathematics", "2019", None, "5", "1"),
            ("Datamining", "2018", "Sarah", "7", None),
            (None, "2019", "Sarah", None, "2"),
        ],
    )


@pytest.fixture
def table4():
    # Four rows over two columns; the canonical key-approximation example.
    return table(["X1", "X2"], [(None, "1"), ("2", None), ("2", None), ("2", "2")])


@pytest.fixture
def cars_table():
    return table(
        ["Car_Model", "Door_No", "Engine_Type"],
        [
            ("BMW", "4", None),
            ("BMW", None, "electric"),
            ("Ford", None, "V8"),
            ("Ford", None, "V6"),
        ],
    )


@pytest.fixture
def fd_six_rows():
    return table(
        ["X1", "X2", "Y"],
        [
            (None, "1", "1"),
            ("2", None, "1"),
            ("2", None, "1"),
            ("2", "1", "2"),
            ("2", "1", "2"),
            ("2", "2", "2"),
        ],
    )


@pytest.fixture
def fd_total_removal():
    return table(
        ["X1", "X2", "Y"],
        [
            ("1", None, "1"),
            ("1", None, "1"),
            ("1", "1", "2"),
            ("1", "1", None),
            ("1", "2", "3"),
        ],
    )


@pytest.fixture
def teaching_table():
    return table(
        ["Semester", "TeacherID", "CourseID"],
        [
            ("First", "1", "1"),
            (None, "1", "2"),
            ("First", "2", "3"),
            (None, "2", "4"),
            ("First", "3", "5"),
            (None, "3", "6"),
        ],
    )


@pytest.fixture
def fig1_tables():
    a = table(["X", "Y", "Z"], [("1", "1", "1"), ("1", "1", "2"), ("1", "1", None)])
    b = table(
        ["X", "Y", "Z", "V"],
        [
            ("2", "1", "1", "1"),
            ("2", "2", "1", "2"),
            ("2", "2", "1", "1"),
            ("2", "1", "1", None),
        ],
    )
    c = table(["X", "Y", "Z"], [("1", "1", "1"), ("2", "2", "2"), (None, "3", "3")])
    return a, b, c


@pytest.fixture
def mvd_trio():
    wide_x = table(
        ["X1", "X2", "X3", "X4", "Y", "Z"],
        [
            (None, "1", "1", "1", "1", "1"),
            ("1", None, "1", "1", "1", "1"),
            ("1", "1", None, "1", "2", "2"),
            ("1", "1", "1", None, "2", "3"),
        ],
    )
    wide_z = table(
        ["X", "Y", "Z1", "Z2"],
        [
            ("1", "1", "1", "1"),
            ("1", "1", "2", "1"),
            ("2", "1", "1", "1"),
            ("2", "2", "2", None),
        ],
    )
    three = table(["X", "Y", "Z"], [("1", "1", "1"), ("1", "1", "2"), ("1", "2", None)])
    return wide_x, wide_z, three


@pytest.fixture
def cj_five():
    return table(
        ["TeacherID", "CourseID"],
        [("1", "1"), ("1", "2"), ("1", "3"), ("2", None), ("2", None)],
    )


@pytest.fixture
def cj_four():
    return table(
        ["TeacherID", "CourseID"],
        [("1", "1"), ("1", "2"), ("1", "3"), ("2", None)],
    )
