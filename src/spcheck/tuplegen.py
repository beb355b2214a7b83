"""Tuple-generating constraints: spMVD, Lien's NMVD, and cross joins.

A multivalued dependency decomposes per left-side class: once every tuple
is imputed a left-side value, each class independently needs its realized
(right, rest) projections to form a full cross product. Cross joins are
the degenerate case with a single class, evaluated on the two given
attribute sets. Both reuse one backtracking cross-coverage search in
which rows that are entirely NULL on the relevant columns never branch:
they are counted and spent on missing combinations at the end, which is
what keeps the added-all-NULL-row searches tractable.

Unlike the classical complete-table case, a satisfied dependency here
does NOT license a lossless decomposition of the incomplete table into
its two projections (joining them can inflate the bag), so no
decomposition API is offered; see the regression test on the two-row
table (1,1,1), (1,NULL,2).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, product

from .constraints import ConstraintVerdict, MeasureResult
from .errors import DEFAULT_BUDGET, BudgetExceededError
from .matching import hopcroft_karp
from .search import Budget, backtrack, row_order, smallest_addition
from .table import (
    AttributeSet,
    IncompleteTable,
    SpWorld,
    complete_world,
    fresh_values,
    is_total,
    projection,
    row_key,
    weakly_similar,
)


def _bag_key(rows) -> tuple:
    return tuple(sorted(rows, key=lambda r: row_key(r, range(len(r)))))


def _shared_positions(a_cols: tuple, b_cols: tuple) -> tuple:
    """(index in ``a_cols``, index in ``b_cols``) of each column on both sides."""
    return tuple((a_cols.index(c), b_cols.index(c)) for c in a_cols if c in b_cols)


def _missing_pairs(avals, bvals, pairs, shared: tuple) -> list | None:
    """The (a, b) combinations of realized A- and B-projections that no
    row realizes, in product order, or None when one of them can never
    sit in a single row (a and b disagree on a ``shared`` column)."""
    missing = []
    for a, b in product(avals, bvals):
        if (a, b) in pairs:
            continue
        for i, j in shared:
            if a[i] != b[j]:
                return None
        missing.append((a, b))
    return missing


# ---------------------------------------------------------------------------
# Cross-coverage search (shared by spCJ and the per-class spMVD check)


class _CrossSearch:
    """Can the ``members`` rows of ``table`` be completed so that every
    realized A-projection meets every realized B-projection in some row?

    Completions draw from the active domains of the whole table. Rows
    NULL on all relevant columns are handled by counting, not branching.
    """

    def __init__(self, table: IncompleteTable, members, a_cols, b_cols, budget: Budget):
        self.a_cols = tuple(sorted(a_cols))
        self.b_cols = tuple(sorted(b_cols))
        self.cols = tuple(sorted(set(self.a_cols) | set(self.b_cols)))
        self.a_pick = tuple(self.cols.index(a) for a in self.a_cols)
        self.b_pick = tuple(self.cols.index(b) for b in self.b_cols)
        self.shared = _shared_positions(self.a_cols, self.b_cols)
        self.table = table
        self.budget = budget
        rows = table.rows
        self.free: list[int] = []
        branching = []
        for idx in members:
            if all(rows[idx][c] is None for c in self.cols):
                self.free.append(idx)
            else:
                branching.append(idx)
        self.n_total = len(members)
        self.order, self.options, self.same_as_prev = row_order(
            table, branching, self.cols, self.cols
        )
        self.forced_a = {
            projection(rows[idx], self.a_cols)
            for idx in members
            if is_total(rows[idx], frozenset(self.a_cols))
        }
        self.forced_b = {
            projection(rows[idx], self.b_cols)
            for idx in members
            if is_total(rows[idx], frozenset(self.b_cols))
        }
        self.pairs: dict = defaultdict(int)
        self.avals: dict = defaultdict(int)
        self.bvals: dict = defaultdict(int)

    def solve(self) -> dict | None:
        """Returns index -> completion over the relevant columns, or None."""
        if not self._neighbourhoods_feasible():
            return None
        assignment = backtrack(self.order, self.options, self.same_as_prev, self.budget,
                               self._push, self._pop, prune=self._prune,
                               leaf=lambda removed: self._tail_feasible())
        return None if assignment is None else self._finish(assignment)

    def _neighbourhoods_feasible(self) -> bool:
        """Every row's class must realize all forced values of the other
        side, and classmates are necessarily weakly similar to the row on
        the class side; too small a neighbourhood is an instant refusal."""
        if not self.cols or self.n_total > 500:
            return True
        blank = (None,) * (max(self.cols) + 1)
        rows = [self.table.rows[idx] for idx in self.order] + [blank] * len(self.free)
        a_set = frozenset(self.a_cols)
        b_set = frozenset(self.b_cols)
        for r in rows:
            if len(self.forced_b) > 1:
                nbhd = sum(1 for s in rows if weakly_similar(r, s, a_set))
                if nbhd < len(self.forced_b):
                    return False
            if len(self.forced_a) > 1:
                nbhd = sum(1 for s in rows if weakly_similar(r, s, b_set))
                if nbhd < len(self.forced_a):
                    return False
        return True

    def _push(self, idx: int, completion: tuple) -> tuple:
        a = tuple(completion[i] for i in self.a_pick)
        b = tuple(completion[i] for i in self.b_pick)
        self.pairs[(a, b)] += 1
        self.avals[a] += 1
        self.bvals[b] += 1
        return a, b

    def _pop(self, token: tuple) -> None:
        a, b = token
        for counter, key in ((self.pairs, token), (self.avals, a), (self.bvals, b)):
            counter[key] -= 1
            if not counter[key]:
                del counter[key]

    def _prune(self, pos: int) -> bool:
        """Rows still to place can each realize at most one new combination."""
        lb_a = len(self.forced_a | set(self.avals))
        lb_b = len(self.forced_b | set(self.bvals))
        remaining = len(self.order) - pos + len(self.free)
        return lb_a * lb_b > len(self.pairs) + remaining

    def _missing(self) -> list | None:
        return _missing_pairs(self.avals, self.bvals, self.pairs, self.shared)

    def _tail_feasible(self) -> bool:
        if not self.avals and not self.bvals:
            return True  # only free rows, if any; they can all coincide
        missing = self._missing()
        return missing is not None and len(missing) <= len(self.free)

    def _finish(self, assignment: dict) -> dict:
        domains = self.table.active_domains()
        fills = []
        if self.avals or self.bvals:
            fills = self._missing()
        fallback = None
        for pos, idx in enumerate(self.free):
            if pos < len(fills):
                # Every column is on the A side or the B side, or both.
                a, b = fills[pos]
                cells = [None] * len(self.cols)
                for i, v in zip(self.a_pick + self.b_pick, a + b):
                    cells[i] = v
                assignment[idx] = tuple(cells)
            else:
                if fallback is None:
                    if assignment:
                        fallback = next(iter(assignment.values()))
                    else:
                        fallback = tuple(domains[c].sorted_values[0] for c in self.cols)
                assignment[idx] = fallback
        return assignment


# ---------------------------------------------------------------------------
# spMVD


def check_spmvd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                budget: int | Budget = DEFAULT_BUDGET) -> ConstraintVerdict:
    """Holds iff some strongly possible world satisfies the classical
    multivalued dependency; the full schema matters, not just lhs + rhs."""
    n = table.row_count
    if n == 0:
        return ConstraintVerdict(True, SpWorld((), ()))
    budget = Budget.of(budget)
    y_eff = rhs - lhs
    rest = table.all_positions() - lhs - rhs
    x_cols = tuple(sorted(lhs))
    order, options, same_as_prev = row_order(table, range(n), x_cols, range(table.arity))
    classes: dict = defaultdict(list)
    class_cache: dict = {}

    def class_assignment(members: list) -> dict | None:
        key = tuple(sorted(members))
        if key not in class_cache:
            class_cache[key] = _CrossSearch(table, key, y_eff, rest, budget).solve()
        return class_cache[key]

    def every_class_crosses(removed: list) -> bool:
        for members in classes.values():
            if class_assignment(members) is None:
                return False
        return True

    def join(i: int, value: tuple) -> tuple:
        classes[value].append(i)
        return value

    def leave(value: tuple) -> None:
        classes[value].pop()
        if not classes[value]:
            del classes[value]

    chosen = backtrack(order, options, same_as_prev, budget, join, leave,
                       leaf=every_class_crosses)
    if chosen is None:
        return ConstraintVerdict(False)
    yr_cols = tuple(sorted(y_eff | rest))
    return ConstraintVerdict(True, complete_world(
        table, x_cols + yr_cols,
        lambda i: chosen[i] + class_assignment(classes[chosen[i]])[i]))


def check_nmvd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet) -> bool:
    """Lien's null multivalued dependency, evaluated directly on the
    incomplete table: for every two distinct lhs-total rows agreeing on
    the left side, the two swapped tuples must occur verbatim, NULLs
    matching nothing."""
    xy = lhs | rhs
    xr = lhs | (table.all_positions() - rhs)
    rows = table.rows
    totals = [i for i, r in enumerate(rows) if is_total(r, lhs)]
    for i in totals:
        for j in totals:
            if i == j:
                continue
            if projection(rows[i], lhs) != projection(rows[j], lhs):
                continue
            want_xy = projection(rows[i], xy)
            want_xr = projection(rows[j], xr)
            if None in want_xy or None in want_xr:
                return False
            if not any(
                projection(t, xy) == want_xy and projection(t, xr) == want_xr
                for t in rows
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# spCJ


def check_spcj_general(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                       budget: int | Budget = DEFAULT_BUDGET) -> ConstraintVerdict:
    """Exact cross-join check: complete every tuple on lhs + rhs so that
    realized projections cross fully. Only those columns matter."""
    n = table.row_count
    if n == 0:
        return ConstraintVerdict(True, SpWorld((), ()))
    search = _CrossSearch(table, range(n), lhs, rhs, Budget.of(budget))
    assignment = search.solve()
    if assignment is None:
        return ConstraintVerdict(False)
    return ConstraintVerdict(True, complete_world(table, search.cols, assignment.__getitem__))


def check_spcj_singular(table: IncompleteTable, a: int, b: int) -> ConstraintVerdict:
    """Polynomial single-attribute case: bipartite matching between
    tuples and active-domain value pairs must cover every pair.

    Pair (va, vb) has the id of its place in the row-major product of
    the two sorted domains; a row's edges go to the pairs it can take,
    in id order: any value where its cell is NULL, else the cell's own.
    """
    n = table.row_count
    if n == 0:
        return ConstraintVerdict(True, SpWorld((), ()))
    domains = table.active_domains()
    a_values, b_values = domains[a].sorted_values, domains[b].sorted_values
    a_index = {v: k for k, v in enumerate(a_values)}
    b_index = {v: k for k, v in enumerate(b_values)}
    width = len(b_values)
    adjacency = []
    for row in table.rows:
        a_ids = range(len(a_values)) if row[a] is None else (a_index[row[a]],)
        if a == b:
            edges = [k * width + k for k in a_ids]
        else:
            b_ids = range(width) if row[b] is None else (b_index[row[b]],)
            edges = [ka * width + kb for ka in a_ids for kb in b_ids]
        adjacency.append(edges)
    size, match_l, _ = hopcroft_karp(adjacency, len(a_values) * width)
    if size < len(a_values) * width:
        return ConstraintVerdict(False)

    def pair(i: int) -> tuple:
        if match_l[i] is None:
            return None, None
        ka, kb = divmod(match_l[i], width)
        return a_values[ka], b_values[kb]

    return ConstraintVerdict(True, complete_world(table, (a, b), pair))


# ---------------------------------------------------------------------------
# Measures


def _g3_by_subset_search(table: IncompleteTable, check, budget: int | Budget) -> MeasureResult:
    n = table.row_count
    if n == 0:
        raise ValueError("g3 is undefined for an empty table")
    budget = Budget.of(budget)
    memo: dict = {}
    for m in range(n + 1):
        for subset in combinations(range(n), m):
            sub = table.with_rows_removed(subset)
            key = _bag_key(sub.rows)
            verdict = memo.get(key)
            if verdict is None:
                verdict = check(sub, budget)
                memo[key] = verdict
            if verdict.holds:
                kept = tuple(i for i in range(n) if i not in set(subset))
                witness = SpWorld(verdict.witness.rows, kept) if verdict.witness else None
                return MeasureResult("g3", m, n, removed_rows=subset, witness=witness)
    raise AssertionError("unreachable: the empty table satisfies every constraint")


def g3_spmvd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
             budget: int | Budget = DEFAULT_BUDGET) -> MeasureResult:
    return _g3_by_subset_search(
        table, lambda sub, b: check_spmvd(sub, lhs, rhs, b), budget
    )


def g3_spcj(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
            budget: int | Budget = DEFAULT_BUDGET) -> MeasureResult:
    return _g3_by_subset_search(
        table, lambda sub, b: check_spcj_general(sub, lhs, rhs, b), budget
    )


def _mvd_fill_need(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet) -> int:
    """Additions that certainly repair the dependency: complete every row
    minimally, then fill each class's missing cross combinations."""
    rest = table.all_positions() - lhs - rhs
    xs = tuple(sorted(lhs))
    ys = tuple(sorted(rhs - lhs))
    rs = tuple(sorted(rest))
    groups: dict = defaultdict(set)
    for r in complete_world(table).rows:
        groups[tuple(r[a] for a in xs)].add(
            (tuple(r[a] for a in ys), tuple(r[a] for a in rs))
        )
    need = 0
    for pairs in groups.values():
        yvals = {p[0] for p in pairs}
        rvals = {p[1] for p in pairs}
        need += len(yvals) * len(rvals) - len(pairs)
    return need


def g5_spmvd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
             budget: int | Budget = DEFAULT_BUDGET) -> MeasureResult:
    """Minimum additions over mixtures of all-NULL rows (combination
    fillers) and fresh-left-side rows (class escapes)."""
    n = table.row_count
    if n == 0:
        raise ValueError("g5 is undefined for an empty table")
    budget = Budget.of(budget)
    bound = _mvd_fill_need(table, lhs, rhs)
    arity = table.arity
    tokens = fresh_values(table, max(bound, 1))

    def mixtures(k: int):
        """k - j all-NULL rows, then j rows fresh on the left side."""
        for j in range(k + 1):
            yield ([(None,) * arity] * (k - j)
                   + [tuple(tokens[t] if a in lhs else None for a in range(arity))
                      for t in range(j)])

    return smallest_addition(table, bound, mixtures,
                             lambda extended: check_spmvd(extended, lhs, rhs, budget))


def _cj_fill_need(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet) -> int | None:
    """All-NULL additions that suffice for the cross join under the
    lexicographically smallest completion; None when some required
    combination is self-contradictory on shared columns."""
    a_cols = tuple(sorted(lhs))
    b_cols = tuple(sorted(rhs))
    rows = complete_world(table).rows
    pairs = {(tuple(r[a] for a in a_cols), tuple(r[b] for b in b_cols)) for r in rows}
    missing = _missing_pairs({p[0] for p in pairs}, {p[1] for p in pairs}, pairs,
                             _shared_positions(a_cols, b_cols))
    return None if missing is None else len(missing)


def g5_spcj(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
            budget: int | Budget = DEFAULT_BUDGET) -> MeasureResult:
    """Minimum number of all-NULL rows making the cross join hold; may
    exceed 1. Fresh values never help here: they strictly enlarge the
    required combination set."""
    n = table.row_count
    if n == 0:
        raise ValueError("g5 is undefined for an empty table")
    bound = _cj_fill_need(table, lhs, rhs)
    if bound is None:
        domains = table.active_domains()
        space = 1
        for a in lhs | rhs:
            space *= len(domains[a].sorted_values)
        bound = space * space
        if bound > 100_000:
            raise BudgetExceededError(
                "cross-join addition bound is too large to search exhaustively"
            )
    budget = Budget.of(budget)
    return smallest_addition(
        table, bound,
        lambda k: [[(None,) * table.arity] * k],
        lambda extended: check_spcj_general(extended, lhs, rhs, budget),
    )
