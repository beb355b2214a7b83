import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcheck.table import (
    SSYMB,
    IncompleteTable,
    Schema,
    complete_world,
    fresh_values,
    is_total,
    iter_extensions,
    strongly_similar,
)

from conftest import table
from reference import project, weakly_similar


def test_schema_rejects_duplicates_and_empty_names():
    with pytest.raises(ValueError):
        Schema(("A", "A"))
    with pytest.raises(ValueError):
        Schema(("A", ""))


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        IncompleteTable.build(["A", "B"], [("1",)])


def test_active_domain_course_column(course_table):
    dom = course_table.active_domain(0)
    assert frozenset(dom) == frozenset({"Mathematics", "Datamining"})
    assert dom != (SSYMB,)


def test_active_domain_total_column():
    t = table(["A"], [("1",), ("2",), ("3",)])
    assert frozenset(t.active_domain(0)) == frozenset({"1", "2", "3"})


def test_active_domain_all_null_column():
    t = table(["A", "B"], [(None, "1"), (None, "2")])
    assert t.active_domain(0) == (SSYMB,)


def test_active_domain_index_out_of_range(table4):
    with pytest.raises(IndexError):
        table4.active_domain(2)


def test_weak_similarity_examples():
    both = frozenset({0, 1})
    assert weakly_similar((None, "1"), ("2", "1"), both)
    assert not weakly_similar(("1", "1"), ("2", "1"), both)
    assert weakly_similar(("1", None), ("1", None), both)


def test_strong_similarity_examples():
    both = frozenset({0, 1})
    assert strongly_similar(("2", "2"), ("2", "2"), both)
    assert not strongly_similar((None, "1"), (None, "1"), both)
    assert strongly_similar(("1", "2"), ("9", "8"), frozenset())


def test_is_total_examples():
    assert is_total(("2", "2"), frozenset({0, 1}))
    assert not is_total(("2", None), frozenset({0, 1}))
    assert is_total(("2", None), frozenset({0}))


def test_project_shapes():
    t = table(["A", "B", "C", "D"], [("1", "1", "1", "1"), (None, "2", "1", "2")])
    p = project(t, frozenset({0, 1}))
    assert p.row_count == 2 and p.arity == 2
    assert project(t, t.all_positions()).rows == t.rows
    single = project(t, frozenset({0}))
    assert single.rows == (("1",), (None,))


def test_extension_enumeration(table4):
    exts = list(iter_extensions(table4, table4.rows[0], frozenset({0, 1})))
    assert exts == [("2", "1")]
    exts = list(iter_extensions(table4, table4.rows[1], frozenset({0, 1})))
    assert exts == [("2", "1"), ("2", "2")]
    assert len(exts) == 2


def test_fresh_values_avoid_existing():
    t = table(["A"], [("z1",), ("z2",)])
    tokens = fresh_values(t, 2)
    assert len(set(tokens)) == 2
    assert not set(tokens) & {"z1", "z2"}


cells = st.one_of(st.none(), st.sampled_from(["1", "2", "3"]))


@st.composite
def rows_pair(draw):
    width = draw(st.integers(1, 4))
    r1 = tuple(draw(cells) for _ in range(width))
    r2 = tuple(draw(cells) for _ in range(width))
    positions = frozenset(
        draw(st.lists(st.integers(0, width - 1), unique=True, max_size=width))
    )
    return r1, r2, positions


@given(rows_pair())
@settings(max_examples=200)
def test_strong_implies_weak_and_symmetry(data):
    r1, r2, x = data
    if strongly_similar(r1, r2, x):
        assert weakly_similar(r1, r2, x)
    assert weakly_similar(r1, r2, x) == weakly_similar(r2, r1, x)
    assert strongly_similar(r1, r2, x) == strongly_similar(r2, r1, x)
    assert weakly_similar(r1, r1, x)


@st.composite
def small_tables(draw, max_rows=5, max_cols=3):
    width = draw(st.integers(1, max_cols))
    n = draw(st.integers(1, max_rows))
    rows = [tuple(draw(cells) for _ in range(width)) for _ in range(n)]
    return IncompleteTable.build([f"A{i}" for i in range(width)], rows)


@given(small_tables())
@settings(max_examples=50)
def test_active_domain_monotone_under_addition(t):
    extra = tuple("9" for _ in range(t.arity))
    bigger = t.with_rows_added([extra])
    for a in range(t.arity):
        before = t.active_domain(a)
        after = bigger.active_domain(a)
        if before != (SSYMB,):
            assert set(before) <= set(after)


@given(small_tables(max_cols=4))
@settings(max_examples=50)
def test_projection_composes(t):
    xy = frozenset(range(min(2, t.arity)))
    x = frozenset({0})
    via = project(project(t, xy), frozenset({0}))
    direct = project(t, x)
    assert via.rows == direct.rows


def test_a_world_fills_only_the_rows_with_a_null():
    t = table(["A", "B"], [("1", "2"), (None, "2"), ("3", None)])
    world = complete_world(t, [0], lambda i: ("3",), rows=[2, 1, 0])
    assert world.rows == (("3", "2"), ("3", "2"), ("1", "2"))
    assert world.origin == (2, 1, 0)
    assert world.rows[2] is t.rows[0]
