import random
from fractions import Fraction
from math import inf, prod

import pytest

from spcheck.errors import BudgetExceededError
from spcheck.search import Budget
from spcheck.oracle import holds, oracle_check
from spcheck.constraints import SpCj, SpMvd
from spcheck.generators import random_table
from spcheck.table import fresh_values
from spcheck import tuplegen
from spcheck.tuplegen import (
    MvdAnalysis,
    check_nmvd,
    check_spcj_general,
    check_spcj_singular,
    check_spmvd,
    g3_spcj,
    g3_spmvd,
    g5_spcj,
    g5_spmvd,
)

import reference
from conftest import (
    assert_addition_witness,
    assert_removal_witness,
    dependency_draws,
    spend,
    table,
)
from reference import project

X = frozenset({0})
Y = frozenset({1})


def test_fig1_spmvd_verdicts(fig1_tables):
    a, b, c = fig1_tables
    assert check_spmvd(a, X, Y).holds
    assert check_spmvd(b, X, Y).holds
    assert not check_spmvd(c, X, Y).holds


def test_fig1_nmvd_verdicts(fig1_tables):
    a, b, c = fig1_tables
    assert not check_nmvd(a, X, Y)
    assert not check_nmvd(b, X, Y)
    assert check_nmvd(c, X, Y)


def test_nmvd_total_table_with_classical_mvd():
    t = table(["X", "Y", "Z"], [("1", "1", "1"), ("1", "2", "1")])
    assert holds(t.rows, SpMvd(X, Y), 3)
    assert check_nmvd(t, X, Y)


def test_check_nmvd_matches_the_pairwise_reference():
    # Repeated rows, NULLs anywhere, and right sides inside the left side.
    rng = random.Random(41)
    verdicts = set()
    for _ in range(600):
        cols, domain = rng.randint(2, 4), rng.randint(1, 3)
        null_rate = rng.choice([0.0, 0.1, 0.3])
        rows = [tuple(None if rng.random() < null_rate else str(rng.randint(1, domain))
                      for _ in range(cols)) for _ in range(rng.randint(1, 8))]
        t = table([f"A{a}" for a in range(cols)], rows + rng.choices(rows, k=rng.randint(0, 3)))
        lhs = frozenset(rng.sample(range(cols), rng.randint(1, cols)))
        pool = sorted(lhs) if rng.random() < 0.2 else range(cols)
        rhs = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        verdict = check_nmvd(t, lhs, rhs)
        assert verdict == reference.pairwise_check_nmvd(t, lhs, rhs), (rows, lhs, rhs)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_mvd_witness_replays(fig1_tables):
    a, b, _ = fig1_tables
    for t in (a, b):
        verdict = check_spmvd(t, X, Y)
        assert holds(verdict.witness.rows, SpMvd(X, Y), t.arity)


def test_mvd_equivalent_to_rhs_minus_lhs(fig1_tables, mvd_trio):
    tables = list(fig1_tables) + list(mvd_trio)
    for t in tables:
        lhs = frozenset({0})
        rhs = frozenset({0, 1}) if t.arity > 2 else frozenset({1})
        direct = check_spmvd(t, lhs, rhs).holds
        reduced = check_spmvd(t, lhs, rhs - lhs).holds
        assert direct == reduced


def test_projection_non_monotone():
    # Violated on the full schema yet satisfied after dropping the last column.
    t = table(["X", "Y", "Z", "V"], [("1", "1", "1", "1"), (None, "2", "1", "2")])
    assert not check_spmvd(t, X, Y).holds
    assert check_spmvd(project(t, frozenset({0, 1, 2})), X, Y).holds


def test_mvd_trio_measures(mvd_trio):
    wide_x, wide_z, three = mvd_trio
    xw = frozenset({0, 1, 2, 3})
    assert g3_spmvd(wide_x, xw, frozenset({4})).fraction_str == "2/4"
    assert g5_spmvd(wide_x, xw, frozenset({4})).fraction_str == "1/4"
    assert g3_spmvd(wide_z, X, Y).fraction_str == "1/4"
    assert g5_spmvd(wide_z, X, Y).fraction_str == "2/4"
    assert g3_spmvd(three, X, Y).fraction_str == "1/3"
    assert g5_spmvd(three, X, Y).fraction_str == "1/3"


def test_mvd_measures_match_oracle(mvd_trio):
    from spcheck.oracle import oracle_g3, oracle_g5

    wide_z = mvd_trio[1]
    assert g3_spmvd(wide_z, X, Y).ratio == oracle_g3(wide_z, SpMvd(X, Y)).ratio
    assert g5_spmvd(wide_z, X, Y).ratio == oracle_g5(wide_z, SpMvd(X, Y)).ratio


def test_cj_singular_examples(cj_five):
    assert not check_spcj_singular(cj_five, 0, 1).holds
    full = table(["A", "B"], [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")])
    assert check_spcj_singular(full, 0, 1).holds
    two = table(["A", "B"], [("1", None), (None, "2")])
    assert check_spcj_singular(two, 0, 1).holds


def test_cj_singular_equals_general(cj_five, cj_four):
    tables = [
        cj_five,
        cj_four,
        table(["A", "B"], [("1", None), (None, "2")]),
        table(["A", "B"], [("1", "1"), ("2", "2")]),
        table(["A", "B"], [(None, None)]),
    ]
    for t in tables:
        singular = check_spcj_singular(t, 0, 1).holds
        general = check_spcj_general(t, X, Y).holds
        oracle = oracle_check(t, SpCj(X, Y)).holds
        assert singular == general == oracle


def test_cj_witness_replays(cj_five):
    sub = cj_five.with_rows_removed({0})
    verdict = check_spcj_general(sub, X, Y)
    assert verdict.holds
    assert holds(verdict.witness.rows, SpCj(X, Y))


def test_cj_five_measures(cj_five):
    # The 1-removal repairs: dropping any one of the TeacherID 1 rows
    # shrinks the CourseID domain to the other two values, and the
    # remaining four rows cross fully.
    res3 = g3_spcj(cj_five, X, Y)
    assert res3.fraction_str == "1/5"
    assert len(res3.removed_rows) == 1 and res3.removed_rows[0] in (0, 1, 2)
    assert_removal_witness(cj_five, res3, lambda rows: holds(rows, SpCj(X, Y)))
    assert g5_spcj(cj_five, X, Y).fraction_str == "1/5"


def test_cj_four_measures(cj_four):
    assert g3_spcj(cj_four, X, Y).fraction_str == "1/4"
    assert g5_spcj(cj_four, X, Y).fraction_str == "2/4"


def test_cj_g5_can_exceed_one():
    t = table(["A", "B"], [("1", "1"), ("2", "2"), ("3", "3")])
    res = g5_spcj(t, X, Y)
    assert res.fraction_str == "6/3"
    assert res.ratio == Fraction(2)
    assert all(row == (None, None) for row in res.added_rows)


def test_cj_g3_greater_than_g5_instance():
    t = table(
        ["A", "B"],
        [("1", "1"), ("1", "1"), ("1", "2"), ("1", "2"),
         ("1", "3"), ("1", "3"), ("2", None), ("2", None)],
    )
    g3 = g3_spcj(t, X, Y)
    g5 = g5_spcj(t, X, Y)
    assert g3.fraction_str == "2/8" and g5.fraction_str == "1/8"
    assert g3.ratio > g5.ratio


def test_cj_equal_measures_instance(mvd_trio):
    # Cross join between the last two columns of the three-row table.
    three = mvd_trio[2]
    lhs, rhs = frozenset({1}), frozenset({2})
    assert g3_spcj(three, lhs, rhs).ratio == g5_spcj(three, lhs, rhs).ratio == Fraction(1, 3)


def test_cj_overlap_sides():
    t = table(["A", "B"], [("1", "1"), ("2", "2")])
    overlap = frozenset({0})
    assert not check_spcj_general(t, overlap, overlap).holds
    single = table(["A", "B"], [("1", "1"), ("1", "2")])
    assert check_spcj_general(single, overlap, overlap).holds
    res = g5_spcj(t, overlap, overlap)
    assert res.numerator is None  # additions cannot merge two total values


def test_single_tuple_cj():
    t = table(["A", "B", "C"], [("1", None, "2")])
    assert check_spcj_general(t, frozenset({0, 1}), frozenset({2})).holds


def test_decomposition_regression():
    # The dependency holds yet joining the two projections of the
    # incomplete table inflates the bag; no decomposition is offered.
    t = table(["X", "Y", "Z"], [("1", "1", "1"), ("1", None, "2")])
    assert check_spmvd(t, X, Y).holds
    xy = project(t, frozenset({0, 1}))
    xz = project(t, frozenset({0, 2}))
    joined = [
        (r1[0], r1[1], r2[1])
        for r1 in xy.rows
        for r2 in xz.rows
        if r1[0] == r2[0]
    ]
    assert len(joined) != t.row_count


def test_budget_error(mvd_trio):
    with pytest.raises(BudgetExceededError):
        check_spmvd(mvd_trio[0], frozenset({0, 1, 2, 3}), frozenset({4}), budget=2)


def test_spmvd_check_on_a_large_fd_shaped_table_is_bounded_by_its_budget():
    # X1, X2 -> Y from a random map, NULL rate 0.15, two rows given
    # another Y. The search cannot settle this draw within 100,000
    # nodes, and it must stop there rather than run on.
    rng = random.Random(1)
    image: dict = {}
    rows = []
    for _ in range(800):
        x = (str(rng.randint(1, 4)), str(rng.randint(1, 4)))
        y = image.setdefault(x, str(rng.randint(1, 8)))
        rows.append([None if rng.random() < 0.15 else c for c in (*x, y)])
    for r in rng.sample(rows, 2):
        r[2] = str(rng.randint(1, 10))
    t = table(["X1", "X2", "Y"], [tuple(r) for r in rows])
    with pytest.raises(BudgetExceededError) as err:
        check_spmvd(t, X, Y, budget=100_000)
    assert err.value.spent > err.value.budget == 100_000


def test_g3_spcj_is_bounded_by_its_budget():
    # Every level's search and every sub-table re-check spend nodes of
    # the one budget, so a small budget stops the measure early.
    t = random_table(20, 3, 5, 0.2, seed=3)
    with pytest.raises(BudgetExceededError) as err:
        g3_spcj(t, X, Y, budget=1_000)
    assert err.value.spent > err.value.budget == 1_000
    res = g3_spcj(t, X, Y)
    assert res.fraction_str == "8/20"
    assert_removal_witness(t, res, lambda rows: holds(rows, SpCj(X, Y)))


def test_g5_spcj_with_self_contradicting_missing_pairs_is_undefined_within_its_budget():
    # The sides share A2, and this total table's missing pairs, such as
    # ((1,1), (2,2)), disagree on it: no number of all-NULL rows repairs
    # the cross join. A2 holds seven values, and that count decides it.
    t = table(["A1", "A2", "A3"], [(str(i), str(i), str(i)) for i in range(1, 8)])
    res = g5_spcj(t, frozenset({0, 1}), frozenset({1, 2}), budget=5_000)
    assert (res.numerator, res.denominator) == (None, 7)


@pytest.mark.parametrize("seed", range(8))
def test_g5_spcj_on_overlapping_sides_decides_undefined_within_its_budget(seed):
    # The shared column A2 holds two or three values in each of these
    # tables, and every world keeps them all, so some A-projection never
    # meets some B-projection, and added all-NULL rows bring no value.
    t = random_table(8, 3, 3, 0.3, seed=seed)
    assert g5_spcj(t, frozenset({0, 1}), frozenset({1, 2}), budget=5_000).numerator is None


N = None
B_HOLDS_1_AND_2 = [
    ("2", "2", "2"), ("3", N, N), ("1", N, "3"), (N, N, "1"), ("2", N, N), ("1", "1", N),
    ("3", N, "3"), (N, N, "3"), (N, N, "2"), ("2", "1", "1"), ("1", N, "2")]


def test_spcj_on_overlapping_sides_is_settled_by_one_domain_count():
    # Column B, on both sides, holds 1 and 2: the check fails and g5 is
    # undefined without a search node, where a search over every
    # completion spent 37,346 nodes. g3 removes the one row with B = 2.
    t = table(["A", "B", "C"], B_HOLDS_1_AND_2)
    lhs, rhs = frozenset({0, 1}), frozenset({1, 2})
    assert not check_spcj_general(t, lhs, rhs, budget=0).holds
    assert g5_spcj(t, lhs, rhs, budget=1).numerator is None
    res = g3_spcj(t, lhs, rhs)
    assert (res.numerator, res.removed_rows) == (1, (0,))
    assert_removal_witness(t, res, lambda rows: holds(rows, SpCj(lhs, rhs)))


def test_spcj_on_overlapping_sides_builds_no_search_it_does_not_run(monkeypatch):
    # B's two values settle the check and g5, so neither builds the
    # cross search over the rows that agree with B's least value.
    built = []
    real = tuplegen._CrossSearch
    monkeypatch.setattr(tuplegen, "_CrossSearch", lambda *args: built.append(args) or real(*args))
    t = table(["A", "B", "C"], B_HOLDS_1_AND_2)
    lhs, rhs = frozenset({0, 1}), frozenset({1, 2})
    assert not check_spcj_general(t, lhs, rhs).holds
    assert g5_spcj(t, lhs, rhs).numerator is None
    assert built == []


def test_g3_spcj_on_overlapping_sides_starts_at_the_fewest_rows_a_value_removes():
    # Each of A2's eight values removes at least 348 of the 500 rows, so
    # no deepening level below 348 can pass; starting there, the measure
    # fits a budget that the levels from 1 up exhaust.
    t = random_table(500, 3, 8, 0.2, seed=1)
    lhs, rhs = frozenset({0, 1}), frozenset({1, 2})
    res = g3_spcj(t, lhs, rhs, budget=1_000)
    assert res.fraction_str == "348/500"
    assert_removal_witness(t, res, lambda rows: holds(rows, SpCj(lhs, rhs)))


MVD10 = [
    (None, "59", None), ("73", "79", None), ("73", "54", "42"), ("97", "79", "21"),
    ("91", "79", "77"), ("60", "31", None), ("73", "75", "77"), ("97", "54", "15"),
    ("97", "75", "77"), ("60", "79", "77"), ("91", "54", "21"), ("60", "54", "15"),
    ("97", "79", None), ("97", None, "77"),
]


def test_g5_spmvd_counts_its_all_null_rows():
    # Each added all-NULL row is counted, not branched over the left-side
    # values: 13 of them no longer multiply the search (458,782 nodes
    # when they were branched).
    t = table(["A1", "A2", "A3"], MVD10)
    res = g5_spmvd(t, X, Y, budget=20_000)
    assert res.fraction_str == "13/14"
    assert_addition_witness(t, res, lambda rows: holds(rows, SpMvd(X, Y), 3), X)


def test_g5_spmvd_on_a_24_row_table_fits_a_small_budget():
    # One walk per count of fresh-left rows, each keeping the least
    # all-NULL need: one full check per mix of all-NULL and fresh-left
    # rows spends 463,955 nodes on this table, and one walk per count
    # that computes its own class needs 84,154. Every count reads the
    # class needs of the table's own walk.
    t = random_table(24, 3, 5, 0.2, seed=3)
    res = g5_spmvd(t, X, Y, budget=2_000)
    assert res.fraction_str == "19/24"
    assert_addition_witness(t, res, lambda rows: holds(rows, SpMvd(X, Y), 3), fresh={0})


def test_g3_spmvd_on_a_24_row_table_answers_within_its_budget():
    # With no cut before the leaves, g3 used up the 10M-node default
    # budget here; given 3e8 nodes, it answers the same set in
    # 19,936,822. The walk is cut once the classes its one-option rows
    # close need more all-NULL rows than there are, plus the rows still
    # to branch.
    t = random_table(24, 3, 5, 0.2, seed=3)
    res = g3_spmvd(t, X, Y, budget=200_000)
    assert (res.fraction_str, res.removed_rows) == ("7/24", (1, 3, 8, 11, 14, 18, 20))
    assert_removal_witness(t, res, lambda rows: holds(rows, SpMvd(X, Y), 3))


def test_pruned_walk_matches_the_unpruned_reference():
    # One analysis serves the check, g3 and g5, as in the CLI; the walk
    # is cut where the closed classes need too many rows, and the g5
    # steps share the class needs. The branching order is the
    # reference's, so every answer the reference gives is the same, with
    # the same witness, removed rows and added rows.
    spent = {name: [0, 0] for name in ("check", "g3", "g5")}
    stops_answered = 0
    for t, x, y in dependency_draws(200, seed=37):
        analysis = MvdAnalysis(t, x, y)
        verdict = None
        for name, engine, ref in (
                ("check", lambda b: check_spmvd(t, x, y, b, analysis), reference.unpruned_check_spmvd),
                ("g3", lambda b: g3_spmvd(t, x, y, b, verdict, analysis), reference.unpruned_g3_spmvd),
                ("g5", lambda b: g5_spmvd(t, x, y, b, verdict, analysis), reference.unpruned_g5_spmvd)):
            (got, nodes), (want, ref_nodes) = spend(engine, 2_000), spend(
                lambda b: ref(t, x, y, b), 2_000)
            spent[name][0] += nodes
            spent[name][1] += ref_nodes
            stops_answered += want is None and got is not None
            assert got is not None or want is None, (t.rows, x, y, name)
            if name == "check":
                verdict = got
                if got is None:
                    break
                if want is not None:
                    assert (got.holds, got.witness) == (want.holds, want.witness)
            elif want is not None:
                assert (got.numerator, got.removed_rows, got.added_rows, got.witness) == (
                    want.numerator, want.removed_rows, want.added_rows, want.witness)
    print("nodes (walk, reference):", spent, "stops answered:", stops_answered)
    assert stops_answered >= 1
    assert spent["g3"][0] < spent["g3"][1] and spent["g5"][0] < spent["g5"][1]


def test_a_class_need_drops_by_at_most_one_per_row():
    # need(M) <= need(M + {r}) + 1: one more all-NULL row takes r's
    # combination. The walk's cut before the leaves rests on it.
    rng = random.Random(5)
    tight = 0
    for t, x, y in dependency_draws(100, seed=38):
        sides = (y - x, t.all_positions() - x - y)
        need = lambda members: tuplegen._CrossSearch(t, sorted(members), *sides).least(
            Budget(10**6), inf)[0]
        for _ in range(3 if t.row_count > 1 else 0):
            rows = rng.sample(range(t.row_count), rng.randint(2, t.row_count))
            with_r, without_r = need(rows), need(rows[1:])
            assert without_r <= with_r + 1
            tight += without_r == with_r + 1
    assert tight >= 10


def test_an_spmvd_analysis_serves_only_its_own_table_and_sides():
    t = random_table(12, 3, 3, 0.2, seed=7)
    analysis = MvdAnalysis(t, X, Y)
    for other, lhs, rhs in ((random_table(12, 3, 3, 0.2, seed=8), X, Y),
                            (t.with_rows_removed([0]), X, Y), (t, Y, X), (t, X, frozenset({2}))):
        for call in (check_spmvd, g3_spmvd, g5_spmvd):
            with pytest.raises(ValueError, match="another table or other sides"):
                call(other, lhs, rhs, analysis=analysis)
    # One analysis for the check, g3 and g5 answers as three fresh calls.
    for seed in range(20):
        t = random_table(10, 3, 3, 0.25, seed=seed)
        analysis = MvdAnalysis(t, X, Y)
        shared = [f(t, X, Y, analysis=analysis) for f in (check_spmvd, g3_spmvd, g5_spmvd)]
        assert shared == [f(t, X, Y) for f in (check_spmvd, g3_spmvd, g5_spmvd)]


def _ladder_g5(t, lhs, rhs):
    """g5 by the mixture ladder: for k = 1, 2, ... and j = 0..k, the check
    on the table plus k - j all-NULL rows and j rows fresh on the left
    side. Enough all-NULL rows always repair the dependency."""
    if check_spmvd(t, lhs, rhs).holds:
        return 0
    k = 0
    while True:
        k += 1
        tokens = fresh_values(t, k)
        for j in range(k + 1):
            added = ([(None,) * t.arity] * (k - j)
                     + [tuple(tokens[i] if a in lhs else None for a in range(t.arity))
                        for i in range(j)])
            if check_spmvd(t.with_rows_added(added), lhs, rhs).holds:
                return k


def test_g5_spmvd_matches_the_mixture_ladder():
    # Above the oracle cross-check's six rows: 6-12 rows, 3-4 columns.
    # Five of these 120 cases add a fresh-left row.
    for seed in range(40):
        rng = random.Random(seed)
        t = random_table(rng.randint(6, 12), rng.randint(3, 4), 3, 0.15, seed)
        for lhs, rhs in ((X, Y), (frozenset({1}), frozenset({2})),
                         (frozenset({0, 1}), frozenset({2}))):
            res = g5_spmvd(t, lhs, rhs)
            assert res.numerator == _ladder_g5(t, lhs, rhs)
            assert_addition_witness(t, res, lambda rows: holds(rows, SpMvd(lhs, rhs), t.arity), lhs)


def _least_all_null_rows(t, lhs, rhs):
    """The least k at which the cross join holds on the table plus k
    all-NULL rows, for k up to the product of the two sides' domain
    sizes, or None: a completion that any number of all-NULL rows
    repairs misses at most that many combinations."""
    domains = t.active_domains()
    size = lambda side: prod(len(domains[a]) for a in side)
    for k in range(size(lhs) * size(rhs) + 1):
        if check_spcj_general(t.with_rows_added([(None,) * t.arity] * k), lhs, rhs).holds:
            return k
    return None


def test_g5_spcj_matches_the_least_all_null_rows():
    # The sides A x C and A x B,C are disjoint; A,B x B,C share B, which
    # is mostly 1, so that g5 is undefined exactly when B holds both 1
    # and 2: every world realizes both, and no row can join them.
    seen = {"0": 0, "1": 0, "2 or more": 0, "undefined": 0}
    for seed in range(30):
        rng = random.Random(seed)
        cell = lambda: None if rng.random() < 0.15 else rng.choice("123")
        shared = lambda: None if rng.random() < 0.15 else ("2" if rng.random() < 0.05 else "1")
        t = table(["A", "B", "C"], [(cell(), shared(), cell()) for _ in range(rng.randint(6, 14))])
        for lhs, rhs in ((X, frozenset({2})), (X, frozenset({1, 2})),
                         (frozenset({0, 1}), frozenset({1, 2}))):
            res = g5_spcj(t, lhs, rhs)
            assert res.numerator == _least_all_null_rows(t, lhs, rhs), (seed, lhs, rhs)
            if res.numerator is None:
                seen["undefined"] += 1
            else:
                seen[str(res.numerator) if res.numerator < 2 else "2 or more"] += 1
                assert_addition_witness(t, res, lambda rows: holds(rows, SpCj(lhs, rhs)))
    assert min(seen.values()) >= 8, seen


def test_g5_spcj_on_single_columns_reads_the_key_matching():
    # g5 is the pairs of A1's and A2's domains that a maximum matching of
    # rows to pairs leaves unmatched, with no search: the least-need
    # search spends 12,658 nodes on this table.
    t = random_table(24, 2, 5, 0.3, seed=1784)
    res = g5_spcj(t, X, Y, budget=1_000)
    assert res.fraction_str == "3/24"
    assert res.numerator == _least_all_null_rows(t, X, Y)
    assert_addition_witness(t, res, lambda rows: holds(rows, SpCj(X, Y)))


def test_spmvd_check_counts_all_null_rows():
    # Class 5 misses 20 of its 25 combinations and the other classes none.
    # Branched over the five left-side values, the all-NULL rows reach a
    # split with 20 of them in class 5 only after 43,212 nodes; counted,
    # the check answers at once, either way.
    rows = [(x, "5", "5") for x in "1234"] + [("5", str(i), str(i)) for i in range(1, 6)]
    t = table(["X", "Y", "Z"], rows + [(None, None, None)] * 40)
    verdict = check_spmvd(t, X, Y, budget=200)
    assert verdict.holds
    assert holds(verdict.witness.rows, SpMvd(X, Y), 3)
    assert verdict.witness.origin == tuple(range(49))
    domains = t.active_domains()
    for row, done in zip(t.rows, verdict.witness.rows):
        for a, (cell, value) in enumerate(zip(row, done)):
            assert value == cell if cell is not None else value in domains[a]
    short = table(["X", "Y", "Z"], rows + [(None, None, None)] * 19)
    assert not check_spmvd(short, X, Y, budget=200).holds
