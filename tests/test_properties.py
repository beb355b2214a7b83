"""Algebraic invariants checked over randomly drawn small tables."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spcheck.constraints import Nmvd, SpCj, SpFd, SpKey, SpMvd
from spcheck.errors import BudgetExceededError, PreconditionError
from spcheck.oracle import (
    KINDS,
    _iter_completions,
    _least,
    enumerate_spworlds,
    holds,
    oracle_check,
    oracle_g3,
    oracle_g5,
    world_count,
)
from spcheck.spfd import check_spfd, g3_spfd, g5_spfd, total_part_satisfies_fd
from spcheck.spkey import check_spkey, first_total_duplicate, g3_spkey, g5_spkey
from spcheck.table import IncompleteTable, fresh_values
from spcheck.tuplegen import (
    check_nmvd,
    check_spcj_general,
    check_spcj_singular,
    check_spmvd,
    g3_spcj,
    g3_spmvd,
    g5_spcj,
    g5_spmvd,
)

from conftest import assert_addition_witness, assert_removal_witness

cells = st.one_of(st.none(), st.sampled_from(["1", "2"]))


@st.composite
def tables(draw, max_rows=4, max_cols=3, min_cols=1):
    width = draw(st.integers(min_cols, max_cols))
    n = draw(st.integers(1, max_rows))
    rows = [tuple(draw(cells) for _ in range(width)) for _ in range(n)]
    return IncompleteTable.build([f"A{i}" for i in range(width)], rows)


def sides(t):
    half = max(1, t.arity // 2)
    if t.arity == 1:
        return frozenset({0}), frozenset({0})
    return frozenset(range(half)), frozenset(range(half, t.arity))


@given(tables())
@settings(max_examples=60, deadline=None)
def test_engine_checks_match_oracle(t):
    lhs, rhs = sides(t)
    key = t.all_positions()
    assert check_spkey(t, key).holds == oracle_check(t, SpKey(key)).holds
    assert check_spfd(t, lhs, rhs).holds == oracle_check(t, SpFd(lhs, rhs)).holds
    assert check_spmvd(t, lhs, rhs).holds == oracle_check(t, SpMvd(lhs, rhs)).holds
    assert (
        check_spcj_general(t, lhs, rhs).holds
        == oracle_check(t, SpCj(lhs, rhs)).holds
    )


@given(tables())
@settings(max_examples=60, deadline=None)
def test_g3_at_least_g5_for_keys_and_fds(t):
    key = t.all_positions()
    if first_total_duplicate(t, key) is None:
        g5 = g5_spkey(t, key)
        if g5.numerator is not None:
            assert g3_spkey(t, key).ratio >= g5.ratio
    lhs, rhs = sides(t)
    if total_part_satisfies_fd(t, lhs, rhs):
        try:
            g5 = g5_spfd(t, lhs, rhs)
        except PreconditionError:
            return
        if g5.numerator is not None:
            assert g3_spfd(t, lhs, rhs).ratio >= g5.ratio


@given(tables(min_cols=2))
@settings(max_examples=60, deadline=None)
def test_fd_implies_mvd(t):
    lhs, rhs = sides(t)
    if check_spfd(t, lhs, rhs).holds:
        assert check_spmvd(t, lhs, rhs).holds


@given(tables(min_cols=3, max_cols=3))
@settings(max_examples=40, deadline=None)
def test_mvd_equivalent_to_disjoint_rhs(t):
    lhs = frozenset({0})
    rhs = frozenset({0, 1})
    assert check_spmvd(t, lhs, rhs).holds == check_spmvd(t, lhs, rhs - lhs).holds


def _with_two_sides(t):
    side = st.frozensets(st.sampled_from(range(t.arity)), min_size=1)
    return st.tuples(st.just(t), side, side)


@given(tables(min_cols=2).flatmap(_with_two_sides))
@example((IncompleteTable.build(["A0", "A1", "A2"], [("1", "1", "1"), ("2", "2", "1")]),
          frozenset({0}), frozenset({0, 1})))  # was violated: A0 was dropped as shared
@settings(max_examples=60, deadline=None)
def test_fd_on_overlapping_sides_matches_oracle(case):
    t, lhs, rhs = case
    rhs |= {min(lhs)}  # the sides share at least one column
    c = SpFd(lhs, rhs)
    assert check_spfd(t, lhs, rhs).holds == oracle_check(t, c).holds
    g3 = g3_spfd(t, lhs, rhs)
    assert g3.numerator == oracle_g3(t, c).numerator
    if total_part_satisfies_fd(t, lhs, rhs):
        assert g5_spfd(t, lhs, rhs).numerator == oracle_g5(t, c).numerator


@given(tables(min_cols=2))
@settings(max_examples=60, deadline=None)
def test_fd_normalization_invariance(t):
    lhs = frozenset(range(max(1, t.arity // 2) + 1))
    rhs = frozenset({t.arity - 1})
    assert (
        check_spfd(t, lhs, rhs).holds
        == check_spfd(t, lhs - rhs, rhs - lhs).holds
    )


@given(tables(min_cols=2, max_cols=2, max_rows=5))
@settings(max_examples=60, deadline=None)
def test_singular_cj_matches_general(t):
    assert (
        check_spcj_singular(t, 0, 1).holds
        == check_spcj_general(t, frozenset({0}), frozenset({1})).holds
    )


@given(tables())
@settings(max_examples=60, deadline=None)
def test_witnesses_replay(t):
    lhs, rhs = sides(t)
    key = t.all_positions()
    kv = check_spkey(t, key)
    if kv.holds:
        assert holds(kv.witness.rows, SpKey(key))
    fv = check_spfd(t, lhs, rhs)
    if fv.holds:
        assert holds(fv.witness.rows, SpFd(lhs, rhs))
    mv = check_spmvd(t, lhs, rhs)
    if mv.holds:
        assert holds(mv.witness.rows, SpMvd(lhs, rhs), t.arity)
    cv = check_spcj_general(t, lhs, rhs)
    if cv.holds:
        assert holds(cv.witness.rows, SpCj(lhs, rhs))
    # Key g3 witnesses stay out: they can fill a kept NULL with a value
    # only a removed row held (the strict xfail in test_spkey.py).
    assert_removal_witness(t, g3_spfd(t, lhs, rhs), lambda rows: holds(rows, SpFd(lhs, rhs)))
    assert_removal_witness(t, g3_spmvd(t, lhs, rhs),
                           lambda rows: holds(rows, SpMvd(lhs, rhs), t.arity))
    assert_removal_witness(t, g3_spcj(t, lhs, rhs), lambda rows: holds(rows, SpCj(lhs, rhs)))
    # g5 adds rows fresh on the left side for fd, all-NULL rows or rows
    # fresh on the left side for mvd, and all-NULL rows for cj.
    additions = [
        (g5_spmvd(t, lhs, rhs), lambda rows: holds(rows, SpMvd(lhs, rhs), t.arity), lhs),
        (g5_spcj(t, lhs, rhs), lambda rows: holds(rows, SpCj(lhs, rhs)), frozenset()),
    ]
    try:
        additions.append((g5_spfd(t, lhs, rhs), lambda rows: holds(rows, SpFd(lhs, rhs)),
                          lhs - rhs))
    except PreconditionError:
        pass
    for result, satisfied, fresh in additions:
        if result.numerator is not None:
            assert_addition_witness(t, result, satisfied, fresh)


# Sides sharing one or two columns, one of them contained in the other in
# the second, third and fifth; the columns are permuted when drawn.
OVERLAPS = (({0, 1}, {1, 2}), ({0}, {0, 1}), ({0, 1}, {0, 1}), ({0, 1, 2}, {1, 2, 3}),
            ({0, 1}, {0, 1, 3}))


@st.composite
def overlapping_cross_joins(draw):
    """A 3- or 4-column table with two to six rows, and ``spcj`` sides
    that share columns. A second value in a shared column is rare: with
    one, most tables need repairs; with two, g5 is undefined."""
    lhs, rhs = draw(st.sampled_from(OVERLAPS))
    width = draw(st.integers(max(lhs | rhs | {2}) + 1, 4))
    cols = draw(st.permutations(range(width)))
    shared = st.sampled_from(["1"] * 6 + [None, None, "2"])
    column = [shared if a in lhs & rhs else st.sampled_from(["1", "2", "3", None])
              for a in range(width)]
    rows = draw(st.lists(st.tuples(*column), min_size=2, max_size=6))
    return ([tuple(r[cols.index(c)] for c in range(width)) for r in rows],
            frozenset(cols[a] for a in lhs), frozenset(cols[a] for a in rhs))


@given(overlapping_cross_joins())
# g5 is 1 here, while the first path the least-need search finds needs 2.
@example(([(None, None, "1"), ("1", "2", "1"), ("2", "2", "2")],
          frozenset({0, 1}), frozenset({1, 2})))
@settings(max_examples=100, deadline=None)
def test_g5_spcj_on_overlapping_sides_matches_oracle(case):
    # The other properties cross disjoint sides. Here a column on both
    # sides must end with one value, so the engines fix it and cross the
    # rest, while the oracle, the independent reference, enumerates every
    # world with all of the constraint's columns.
    rows, lhs, rhs = case
    t = IncompleteTable.build([f"A{a}" for a in range(len(rows[0]))], rows)
    c, satisfied = SpCj(lhs, rhs), lambda rows: holds(rows, SpCj(lhs, rhs))
    try:
        expected = [oracle_check(t, c, 200_000).holds, oracle_g3(t, c, 200_000).numerator,
                    oracle_g5(t, c, budget=200_000).numerator]
    except BudgetExceededError:
        return
    verdict = check_spcj_general(t, lhs, rhs)
    g3, g5 = g3_spcj(t, lhs, rhs), g5_spcj(t, lhs, rhs)
    assert [verdict.holds, g3.numerator, g5.numerator] == expected
    if verdict.holds:
        assert satisfied(verdict.witness.rows)
    assert_removal_witness(t, g3, satisfied)
    if g5.numerator is not None:
        assert_addition_witness(t, g5, satisfied)


@given(tables(min_cols=2))
@settings(max_examples=60, deadline=None)
def test_nmvd_equals_classical_mvd_on_total_tables(t):
    if any(cell is None for row in t.rows for cell in row):
        return
    lhs, rhs = sides(t)
    assert check_nmvd(t, lhs, rhs) == holds(t.rows, SpMvd(lhs, rhs), t.arity)


@given(tables())
@settings(max_examples=40, deadline=None)
def test_check_iff_zero_measures(t):
    key = t.all_positions()
    holds = check_spkey(t, key).holds
    assert (g3_spkey(t, key).numerator == 0) == holds
    if first_total_duplicate(t, key) is None:
        g5 = g5_spkey(t, key)
        if g5.numerator is not None:
            assert (g5.numerator == 0) == holds


@given(tables(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_row_order_is_irrelevant(t, rng):
    order = list(range(t.row_count))
    rng.shuffle(order)
    shuffled = IncompleteTable(t.schema, tuple(t.rows[i] for i in order))
    key = t.all_positions()
    assert check_spkey(t, key).holds == check_spkey(shuffled, key).holds
    assert g3_spkey(t, key).numerator == g3_spkey(shuffled, key).numerator
    lhs, rhs = sides(t)
    assert check_spfd(t, lhs, rhs).holds == check_spfd(shuffled, lhs, rhs).holds
    assert (
        check_spcj_general(t, lhs, rhs).holds
        == check_spcj_general(shuffled, lhs, rhs).holds
    )


def _reference_check(t, satisfied):
    """The first satisfying world over every world, identical rows'
    reorderings included, or none."""
    for w in enumerate_spworlds(t):
        if satisfied(w.rows):
            return True, w
    return False, None


def _g5_extension(t, nulls, fresh, cap=3_000):
    """``t`` plus ``nulls`` all-NULL rows and ``fresh`` rows fresh on the
    left side, the rows ``oracle_g5`` adds; while the worlds would exceed
    ``cap``, fewer all-NULL rows, then fewer fresh rows."""
    lhs, _ = sides(t)
    fresh_rows = [tuple(v if a in lhs else None for a in range(t.arity))
                  for v in fresh_values(t, fresh)]
    while True:
        ext = t.with_rows_added([(None,) * t.arity] * nulls + fresh_rows)
        if world_count(ext) <= cap or not (nulls or fresh_rows):
            return ext
        if nulls:
            nulls -= 1
        else:
            fresh_rows.pop()


@given(tables(max_rows=5), st.integers(0, 3), st.integers(0, 2))
@example(IncompleteTable.build(["A0", "A1"], [("1", None), ("2", None), ("1", "2"), ("2", "1")]),
         0, 0)
@settings(max_examples=80, deadline=None)
def test_oracle_check_matches_the_first_world_of_the_full_enumeration(t, nulls, fresh):
    # Cells from {NULL, 1, 2} make identical rows common, so the
    # oracle's enumeration skips many of the full enumeration's worlds,
    # and it drops every prefix that no completion can satisfy. The
    # explicit example has rows with the same NULLs but other values,
    # which are not interchangeable: its FD holds only when the first
    # NULL takes the later value.
    t = _g5_extension(t, nulls, fresh)
    lhs, rhs = sides(t)
    key = t.all_positions()
    for c, satisfied in (
        (SpKey(key), lambda rows: holds(rows, SpKey(key))),
        (SpFd(lhs, rhs), lambda rows: holds(rows, SpFd(lhs, rhs))),
        (SpMvd(lhs, rhs), lambda rows: holds(rows, SpMvd(lhs, rhs), t.arity)),
        (SpCj(lhs, rhs), lambda rows: holds(rows, SpCj(lhs, rhs))),
    ):
        verdict = oracle_check(t, c)
        assert (verdict.holds, verdict.witness) == _reference_check(t, satisfied)
        # The cut drops no satisfying world, not only none before the first.
        budget, kind = world_count(t), KINDS[type(c)]
        cut = _iter_completions(t, budget, deficit=kind.deficit(*kind.parts(c, t.arity)))
        assert list(cut) == [rows for rows in _iter_completions(t, budget) if satisfied(rows)]


@given(tables(max_rows=5), st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_least_with_the_cut_matches_the_full_enumeration(t, nulls, fresh):
    # The g5 bound searches drop prefixes that cannot go below the best
    # need so far; the least need must stay that of every world.
    t = _g5_extension(t, nulls, fresh)
    lhs, rhs = sides(t)
    budget = world_count(t)
    for c in (SpMvd(lhs, rhs), SpCj(lhs, rhs)):
        kind = KINDS[type(c)]
        deficit = kind.deficit(*kind.parts(c, t.arity))
        needs = [deficit(rows) for rows in _iter_completions(t, budget)]
        assert _least(t, budget, deficit) == min(needs)
    assert kind.bound(t, c, budget, None) == min(
        (n for n, rows in zip(needs, _iter_completions(t, budget))
         if _missing_pairs_agree(rows, lhs, rhs)), default=None)


def _missing_pairs_agree(rows, lhs, rhs):
    """The cross join's missing pairs agree on the columns both sides share."""
    xs, ys = sorted(lhs), sorted(rhs)
    pairs = {(tuple(r[a] for a in xs), tuple(r[a] for a in ys)) for r in rows}
    missing = {(x, y) for x, _ in pairs for _, y in pairs} - pairs
    return all(x[xs.index(a)] == y[ys.index(a)] for x, y in missing for a in lhs & rhs)


@given(tables(max_rows=5, max_cols=4), st.data())
@settings(max_examples=100, deadline=None)
def test_oracle_nmvd_matches_the_engine(t, data):
    # The oracle evaluates Lien's definition on its own; the engine's
    # check_nmvd is the independent counterpart.
    every = sorted(t.all_positions())
    lhs = frozenset(data.draw(st.sets(st.sampled_from(every))))
    rhs = frozenset(data.draw(st.sets(st.sampled_from(every))))
    assert oracle_check(t, Nmvd(lhs, rhs)).holds == check_nmvd(t, lhs, rhs)


def test_identical_rows_are_enumerated_once_per_reordering():
    # Domains of sizes 3 and 2 give each (NULL, NULL) row six completions.
    t = IncompleteTable.build(
        ["A", "B"], [("1", "1"), ("2", "2"), ("3", "1")] + [(None, None)] * 4
    )
    assert world_count(t) == 6**4 == 1296
    assert len(list(enumerate_spworlds(t))) == 1296
    # multisets of four completions out of six: C(6 + 4 - 1, 4)
    assert sum(1 for _ in _iter_completions(t, world_count(t))) == 126
