"""Tuple-generating constraints: spMVD, Lien's NMVD, and cross joins.

A multivalued dependency decomposes per left-side class: once every tuple
is imputed a left-side value, each class independently needs its realized
(right, rest) projections to form a full cross product. Cross joins are
the degenerate case with a single class, evaluated on the two given
attribute sets once each column on both sides is fixed to one value.
Both reuse one backtracking cross-coverage search on disjoint sides, in
which rows that are entirely NULL on the relevant columns never branch:
they are counted and spent on missing combinations at the end, and
the search keeps the least number of all-NULL rows a path needs beyond
them: the spCJ check and its g3 levels need none, and the spCJ g5 is
that least need. The spMVD walk over left-side completions
(``MvdAnalysis``, one per constraint entry) counts the rows NULL on
every column in the same way, and keeps the least number of them that
its classes need: the check, each g3 level and each g5 step are that one
walk, g5 on the table plus j rows fresh on the left side for each j
below its best, and every step reads the class needs the walk has
cached. The walk is cut once the classes its one-option rows close need
more of those rows than there are, plus the rows still to branch. Both
g3 measures deepen over the removal count on the checks' searches, as
spFD's does; every g3 and g5 starts from the check's verdict. On two
distinct single columns a and b, the spCJ check and g5 skip the search
and read the key {a, b}'s matching of rows to completions
(``spkey.KeyAnalysis``) instead.

Unlike the classical complete-table case, a satisfied dependency here
does NOT license a lossless decomposition of the incomplete table into
its two projections (joining them can inflate the bag), so no
decomposition API is offered; see the regression test on the two-row
table (1,1,1), (1,NULL,2).
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import cache
from itertools import product

from .constraints import ConstraintVerdict, MeasureResult, measure_denominator
from .errors import DEFAULT_BUDGET
from .search import Budget, backtrack, row_order, smallest_removal
from .spkey import KeyAnalysis, key_analysis
from .table import (
    AttributeSet,
    IncompleteTable,
    SpWorld,
    complete_world,
    fresh_rows,
    projector,
)


def _fix_shared(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                value: tuple = ()) -> tuple:
    """``spcj(lhs x rhs)`` with S = lhs ∩ rhs fixed to ``value``, one
    active value per column of S (by default each one's least): the rows
    with another value on S, and the rest, for the cross search on
    lhs∖S x rhs∖S. Every world keeps every active value, and a row joins
    the sides' projections only where they agree on S, so where the cross
    join holds S has one value per column and by default no row is out."""
    shared = sorted(lhs & rhs)
    value = value or tuple(table.active_domains()[c][0] for c in shared)
    agrees = [all(row[c] in (None, v) for c, v in zip(shared, value)) for row in table.rows]
    out = [i for i, agree in enumerate(agrees) if not agree]
    kept = [i for i, agree in enumerate(agrees) if agree]
    return out, kept


# ---------------------------------------------------------------------------
# Cross-coverage search (shared by spCJ and the per-class spMVD check)


class _CrossSearch:
    """Can the ``members`` rows of ``table`` be completed so that every
    realized A-projection meets every realized B-projection in some row,
    and with how few added all-NULL rows? The sides A and B are disjoint.

    Completions draw from the active domains of the whole table. Rows
    NULL on all relevant columns are free: they are handled by counting,
    not branching, and never removed, since a free row can repeat any
    kept row's combination. A path's need is the number of its missing
    combinations beyond the free rows: the all-NULL rows it must add.
    """

    def __init__(self, table: IncompleteTable, members, a_cols, b_cols):
        self.a_cols = tuple(sorted(a_cols))
        self.b_cols = tuple(sorted(b_cols))
        self.cols = tuple(sorted(set(self.a_cols) | set(self.b_cols)))
        self.a_pick = tuple(self.cols.index(a) for a in self.a_cols)
        self.b_pick = tuple(self.cols.index(b) for b in self.b_cols)
        rows = table.rows
        self.free: list[int] = []
        branching = []
        for idx in members:
            if all(rows[idx][c] is None for c in self.cols):
                self.free.append(idx)
            else:
                branching.append(idx)
        self.order, self.options, self.same_as_prev = row_order(
            table, branching, self.cols, self.cols
        )
        # A row forces its value on a side when all its options agree
        # there; the closing values at a position are those the row just
        # before it is the last to be able to take.
        self.forced_a, self.forced_b = set(), set()
        self.closing: dict = {}
        seen_a: set = set()
        seen_b: set = set()
        for pos in range(len(self.order), 0, -1):
            opts = self.options[self.order[pos - 1]]
            a_vals = {tuple(o[i] for i in self.a_pick) for o in opts}
            b_vals = {tuple(o[i] for i in self.b_pick) for o in opts}
            if len(a_vals) == 1:
                self.forced_a |= a_vals
            if len(b_vals) == 1:
                self.forced_b |= b_vals
            if not (a_vals <= seen_a and b_vals <= seen_b):
                self.closing[pos] = (a_vals - seen_a, b_vals - seen_b)
                seen_a |= a_vals
                seen_b |= b_vals
        self.unforced = [0, 0]  # placed A- and B-values outside the forced ones
        self.pairs: dict = defaultdict(int)
        self.avals: dict = defaultdict(int)
        self.bvals: dict = defaultdict(int)
        self.path: dict = {}  # index -> completion of each placed row

    def least(self, budget: Budget, best: float = 1, max_removed: int = 0, leaf=None,
              floor: int = 0) -> tuple | None:
        """The least need below ``best`` on a path that ``leaf`` accepts
        (``max_removed`` and ``leaf`` as in ``backtrack``), by branch and
        bound: (need, index -> completion of every kept row, free rows
        included, the added rows' completions), or None. Stops at the
        first path that needs at most ``floor``."""
        self.max_removed = max_removed
        self.fillers = len(self.free) + best - 1  # the most missing combinations a path may leave
        found = None

        def accept(removed: list) -> bool:
            nonlocal found
            missing = [(a, b) for a, b in product(self.avals, self.bvals)
                       if (a, b) not in self.pairs]
            if len(missing) > self.fillers or (leaf is not None and not leaf(removed)):
                return False
            need = max(len(missing) - len(self.free), 0)
            found = (need, *self._fill(missing))
            self.fillers = len(self.free) + need - 1
            return need <= floor

        backtrack(self.order, self.options, self.same_as_prev, budget, self._push, self._pop,
                  prune=self._prune, leaf=accept, max_removed=max_removed)
        return found

    def _push(self, idx: int, completion: tuple) -> tuple:
        a = tuple(completion[i] for i in self.a_pick)
        b = tuple(completion[i] for i in self.b_pick)
        self.pairs[(a, b)] += 1
        self.avals[a] += 1
        self.bvals[b] += 1
        self.unforced[0] += self.avals[a] == 1 and a not in self.forced_a
        self.unforced[1] += self.bvals[b] == 1 and b not in self.forced_b
        self.path[idx] = completion
        return idx, a, b

    def _pop(self, token: tuple) -> None:
        idx, a, b = token
        del self.path[idx]
        for counter, key in ((self.pairs, (a, b)), (self.avals, a), (self.bvals, b)):
            counter[key] -= 1
            if not counter[key]:
                del counter[key]
        self.unforced[0] -= a not in self.avals and a not in self.forced_a
        self.unforced[1] -= b not in self.bvals and b not in self.forced_b

    def _prune(self, pos: int) -> bool:
        """Rows still to place can each realize at most one new
        combination, and each removal drops at most one forced value from
        each side. Without fillers, a placed value that no later row can
        take must also meet every placed value of the other side."""
        lb_a = max(len(self.avals), len(self.forced_a) + self.unforced[0] - self.max_removed)
        lb_b = max(len(self.bvals), len(self.forced_b) + self.unforced[1] - self.max_removed)
        remaining = len(self.order) - pos + self.fillers
        if lb_a * lb_b > len(self.pairs) + remaining:
            return True
        closed = None if self.fillers else self.closing.get(pos)
        return closed is not None and (
            any(a in self.avals and any((a, b) not in self.pairs for b in self.bvals)
                for a in closed[0])
            or any(b in self.bvals and any((a, b) not in self.pairs for a in self.avals)
                   for b in closed[1]))

    def _fill(self, missing: list) -> tuple:
        """Free rows take the ``missing`` combinations, then repeat a kept
        row's (or, with none kept, leave the completion to its default);
        the added rows take the combinations left over."""
        fills = []
        for a, b in missing:
            # Every column is on the A side or the B side.
            cells = [None] * len(self.cols)
            for i, v in zip(self.a_pick + self.b_pick, a + b):
                cells[i] = v
            fills.append(tuple(cells))
        assignment = dict(self.path)
        fallback = next(iter(assignment.values()), (None,) * len(self.cols))
        for pos, idx in enumerate(self.free):
            assignment[idx] = fills[pos] if pos < len(fills) else fallback
        return assignment, fills[len(self.free):]


# ---------------------------------------------------------------------------
# spMVD


class MvdAnalysis:
    """The search behind the spMVD check, g3 and g5, over left-side
    completions, built once per (table, lhs, rhs) and walked by each of
    them: the rows imputed one value form a class, and every class must
    cross its right side with the rest of the schema.

    Rows NULL on every column are counted, not branched, and never
    removed: one such row can join any class and fill one missing
    combination there, or repeat any kept row. A class's need is the
    fewest of them with which it crosses (its cross search's least need,
    cached in ``needs`` with the bound it proved); a path's need is the
    all-NULL rows its classes need beyond the table's own.

    Dropping a row from a crossed class costs at most one added row: one
    more all-NULL row takes its combination. The rows with one option
    come first, so after the last of them with a class's value the class
    gains only rows still to branch, and a path is cut there once the
    needs of the classes so far closed exceed its all-NULL rows plus the
    rows still to branch.
    """

    def __init__(self, table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                 needs: dict | None = None):
        self.table, self.lhs, self.rhs = table, lhs, rhs
        self.sides = (rhs - lhs, table.all_positions() - lhs - rhs)
        x_cols = tuple(sorted(lhs))
        self.positions = x_cols + tuple(sorted(self.sides[0] | self.sides[1]))
        rows = table.rows
        self.blank = [i for i, row in enumerate(rows) if all(c is None for c in row)]
        branching = [i for i, row in enumerate(rows) if any(c is not None for c in row)]
        self.order, self.options, self.same_as_prev = row_order(
            table, branching, x_cols, range(table.arity))
        # sorted class members -> (the need, or the most it was shown to
        # exceed, and the cross search's (need, completions, fills) or None)
        self.needs = {} if needs is None else needs
        self.classes: dict = defaultdict(list)
        # The rows with one option lead the order. After the last of them
        # with a class's value, at position p, ``closing[p]`` is that value
        # and the previous such position (0 before the first).
        one = next((pos for pos, i in enumerate(self.order) if len(self.options[i]) > 1),
                   len(self.order))
        self.later = len(self.order) - one  # the rows that may still join a closed class
        last = {self.options[i][0]: pos + 1 for pos, i in enumerate(self.order[:one])}
        self.closing: dict = {}
        prev = 0
        for pos in sorted(last.values()):
            self.closing[pos] = (self.options[self.order[pos - 1]][0], prev)
            prev = pos

    def extended(self, rows: tuple) -> "MvdAnalysis":
        """The analysis of the table plus ``rows``, each fresh on the left
        side and NULL elsewhere. They change no side's domain and the rows
        keep their indices, so it shares this analysis's class needs."""
        return MvdAnalysis(self.table.with_rows_added(rows), self.lhs, self.rhs, self.needs)

    def _join(self, i: int, value: tuple) -> tuple:
        self.classes[value].append(i)
        return value

    def _leave(self, value: tuple) -> None:
        members = self.classes[value]
        members.pop()
        if not members:
            del self.classes[value]

    def _need(self, members: list, most: float, budget: Budget) -> int | None:
        """The fewest all-NULL rows with which ``members`` cross, or None
        when that is above ``most``."""
        key = tuple(sorted(members))
        tried, found = self.needs.get(key, (-1, None))
        if found is None and tried < most:
            found = _CrossSearch(self.table, key, *self.sides).least(budget, most + 1)
            tried = most if found is None else found[0]
            self.needs[key] = (tried, found)
        return tried if found is not None and tried <= most else None

    def _cells(self, extra: int) -> dict:
        """Each class's all-NULL rows, ``extra`` added ones included, take
        its missing combinations; the rows left over repeat a kept row."""
        table = self.table
        cells: dict = {}
        spare = iter(self.blank + list(range(table.row_count, table.row_count + extra)))
        for value, members in self.classes.items():
            _, completions, fills = self.needs[tuple(sorted(members))][1]
            for i in members:
                cells[i] = value + completions[i]
            for fill in fills:
                cells[next(spare)] = value + fill
        repeat = next(iter(cells.values()), (None,) * table.arity)
        for i in spare:
            cells[i] = repeat
        return cells

    def walk(self, budget: Budget, best: float = 1, max_removed: int = 0, leaf=None,
             floor: int = 0) -> tuple | None:
        """The least need below ``best`` on an accepted path and the world
        of that path's kept rows plus that many all-NULL rows, or None;
        ``max_removed`` and ``leaf`` are those of ``backtrack``. Stops at
        the first path that needs at most ``floor``."""
        self.classes.clear()  # an earlier walk leaves the path it accepted
        found = None

        # At each closing position on the current path, the needs of the
        # classes closed there or before.
        closed = [0] * (len(self.order) + 1)

        def prune(pos: int) -> bool:
            if pos not in self.closing:
                return False
            value, prev = self.closing[pos]
            members = self.classes.get(value)
            left = len(self.blank) + best - 1 + self.later - closed[prev]
            got = self._need(members, left, budget) if members else 0
            if got is None or got > left:
                return True
            closed[pos] = closed[prev] + got
            return False

        def accept(removed: list) -> bool:
            nonlocal best, found
            spent = 0
            for members in self.classes.values():
                got = self._need(members, len(self.blank) + best - 1 - spent, budget)
                if got is None:
                    return False
                spent += got
            if leaf is not None and not leaf(removed):
                return False
            best = max(spent - len(self.blank), 0)
            found = self._cells(best)
            return best <= floor

        backtrack(self.order, self.options, self.same_as_prev, budget, self._join, self._leave,
                  prune=prune, leaf=accept, max_removed=max_removed)
        if found is None:
            return None
        table = self.table
        extended = table.with_rows_added([(None,) * table.arity] * best) if best else table
        return best, complete_world(extended, self.positions, found.__getitem__, sorted(found))


def mvd_analysis(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                 analysis: MvdAnalysis | None) -> MvdAnalysis:
    """``analysis`` when given, after checking that it is of ``table``,
    ``lhs`` and ``rhs``; else a new analysis."""
    if analysis is None:
        return MvdAnalysis(table, lhs, rhs)
    if analysis.table is not table or (analysis.lhs, analysis.rhs) != (lhs, rhs):
        raise ValueError("the spMVD analysis belongs to another table or other sides")
    return analysis


def check_spmvd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                budget: int | Budget = DEFAULT_BUDGET,
                analysis: MvdAnalysis | None = None) -> ConstraintVerdict:
    """Holds iff some strongly possible world satisfies the classical
    multivalued dependency; the full schema matters, not just lhs + rhs.
    The search counts the rows NULL on every column instead of branching
    them (see ``MvdAnalysis``, of ``analysis`` when given)."""
    found = mvd_analysis(table, lhs, rhs, analysis).walk(Budget.of(budget))
    return ConstraintVerdict(False) if found is None else ConstraintVerdict(True, found[1])


def check_nmvd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet) -> bool:
    """Lien's null multivalued dependency, evaluated directly on the
    incomplete table: for every two distinct lhs-total rows agreeing on
    the left side, the two swapped tuples must occur verbatim, NULLs
    matching nothing. So a group of two or more rows with one total left
    side holds exactly when every member is total and its distinct rows
    cross its distinct right-side and rest parts; a lone row asks nothing."""
    on_x, on_y = projector(lhs), projector(rhs - lhs)
    on_rest = projector(table.all_positions() - lhs - rhs)
    groups = defaultdict(list)
    for row in table.rows:
        x = on_x(row)
        if None not in x:
            groups[x].append(row)
    for g in groups.values():
        if len(g) > 1 and (any(None in r for r in g)
                           or len(set(g)) != len(set(map(on_y, g))) * len(set(map(on_rest, g)))):
            return False
    return True


# ---------------------------------------------------------------------------
# spCJ


def check_spcj(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
               budget: int | Budget = DEFAULT_BUDGET,
               analysis: KeyAnalysis | None = None) -> ConstraintVerdict:
    """The spCJ check: two distinct single columns by the key matching
    (``check_spcj_singular``, which reads ``analysis`` when given), any
    other sides by ``check_spcj_general``."""
    if len(lhs) == len(rhs) == 1 and lhs != rhs:
        return check_spcj_singular(table, min(lhs), min(rhs), analysis)
    return check_spcj_general(table, lhs, rhs, budget)


def check_spcj_general(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                       budget: int | Budget = DEFAULT_BUDGET) -> ConstraintVerdict:
    """Exact cross-join check: complete every tuple on lhs + rhs so that
    realized projections cross fully. Only those columns matter."""
    out, kept = _fix_shared(table, lhs, rhs)
    if out:
        return ConstraintVerdict(False)
    search = _CrossSearch(table, kept, lhs - rhs, rhs - lhs)
    found = search.least(Budget.of(budget))
    if found is None:
        return ConstraintVerdict(False)
    return ConstraintVerdict(True, complete_world(table, search.cols, found[1].__getitem__))


def check_spcj_singular(table: IncompleteTable, a: int, b: int,
                        analysis: KeyAnalysis | None = None) -> ConstraintVerdict:
    """Polynomial single-attribute case, a ≠ b: the key {a, b}'s maximum
    matching of rows to distinct completions (``KeyAnalysis.matching``,
    of ``analysis`` when given) must cover every pair of the two active
    domains. The rows it leaves unmatched repeat a pair, so a repeated
    total pair is no violation."""
    if table.row_count == 0:
        return ConstraintVerdict(True, SpWorld((), ()))
    result = key_analysis(table, frozenset((a, b)), analysis).matching
    if result.size < math.prod(len(table.active_domains()[c]) for c in (a, b)):
        return ConstraintVerdict(False)
    world = complete_world(table, sorted((a, b)), lambda i: result.matching.get(i, ()))
    return ConstraintVerdict(True, world)


# ---------------------------------------------------------------------------
# Measures


def g3_spmvd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
             budget: int | Budget = DEFAULT_BUDGET,
             verdict: ConstraintVerdict | None = None,
             analysis: MvdAnalysis | None = None) -> MeasureResult:
    """Minimum removal ratio by ``smallest_removal``'s deepening: each
    level removes rows in the check's walk over left-side completions
    (of ``analysis`` when given)."""
    budget = Budget.of(budget)
    analysis = mvd_analysis(table, lhs, rhs, analysis)
    verdict = check_spmvd(table, lhs, rhs, budget, analysis) if verdict is None else verdict
    return smallest_removal(table, 0, lambda m, leaf: analysis.walk(budget, 1, m, leaf),
                            lambda sub: check_spmvd(sub, lhs, rhs, budget), verdict)


def g3_spcj(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
            budget: int | Budget = DEFAULT_BUDGET,
            verdict: ConstraintVerdict | None = None) -> MeasureResult:
    """Minimum removal ratio by ``smallest_removal``'s deepening: each
    level tries each ``_fix_shared`` value, spending a node on each, and
    removes the rest of the rows, free rows never, in its cross search,
    built when a level first affords the value's own removals. A kept
    set that passes holds one value per column on both sides, so the
    deepening starts at the fewest rows a value removes."""
    budget = Budget.of(budget)
    verdict = check_spcj(table, lhs, rhs, budget) if verdict is None else verdict
    domains = table.active_domains()
    values = product(*(domains[c] for c in sorted(lhs & rhs)))
    removals = {value: len(_fix_shared(table, lhs, rhs, value)[0]) for value in values}

    @cache
    def fixed(value: tuple) -> tuple:
        out, kept = _fix_shared(table, lhs, rhs, value)
        return out, _CrossSearch(table, kept, lhs - rhs, rhs - lhs)

    def run(m: int, leaf) -> tuple | None:
        for value, count in removals.items():
            budget.tick()
            if count <= m:
                out, search = fixed(value)
                found = search.least(budget, 1, m - count, lambda removed: leaf(out + removed))
                if found is not None:
                    return found
        return None

    return smallest_removal(table, min(removals.values()), run,
                            lambda sub: check_spcj(sub, lhs, rhs, budget), verdict)


def g5_spmvd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
             budget: int | Budget = DEFAULT_BUDGET,
             verdict: ConstraintVerdict | None = None,
             analysis: MvdAnalysis | None = None) -> MeasureResult:
    """Minimum number of added rows, each all-NULL (a combination filler)
    or fresh on the left side and NULL elsewhere (a class escape).

    All-NULL rows change no active domain, so the fewest of them that
    repair the table plus j fresh-left rows is the check's walk's least
    need there. g5 is the least j plus that need, for j = 0, 1, ... below
    the best so far; the failed check makes it at least 1, so the walk at
    j = 0 (of ``analysis`` when given) stops at need 1. Every j walks with
    that analysis's class needs. Enough all-NULL rows always repair the
    table.
    """
    budget = Budget.of(budget)
    n = measure_denominator(table, "g5")
    analysis = mvd_analysis(table, lhs, rhs, analysis)
    verdict = check_spmvd(table, lhs, rhs, budget, analysis) if verdict is None else verdict
    if verdict.holds:
        return MeasureResult("g5", 0, n, added_rows=(), witness=verdict.witness)
    j, need, world = 0, *analysis.walk(budget, math.inf, floor=1)
    fresh = fresh_rows(table, lhs, need - 1)
    k = 1
    while k < j + need:
        found = analysis.extended(fresh[:k]).walk(budget, j + need - k)
        if found is not None:
            j, (need, world) = k, found
        k += 1
    added = fresh[:j] + ((None,) * table.arity,) * need
    return MeasureResult("g5", j + need, n, added_rows=added,
                         witness=SpWorld(world.rows, tuple(range(n)) + (None,) * (j + need)))


def g5_spcj(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
            budget: int | Budget = DEFAULT_BUDGET,
            verdict: ConstraintVerdict | None = None,
            analysis: KeyAnalysis | None = None) -> MeasureResult:
    """Minimum number of all-NULL rows making the cross join hold; may
    exceed 1. Fresh values never help here: they strictly enlarge the
    required combination set.

    Added all-NULL rows change no active domain, and each takes any
    combination. So on two distinct single columns g5 is the pairs the
    check's key matching (of ``analysis`` when given) leaves unmatched,
    read without a verdict. Else g5 is undefined when a column on both
    sides holds two values (``_fix_shared``), and otherwise the check on
    the table plus k of them is the check's own cross search allowed a
    need of k: g5 is that search's least need, found by branch and bound
    from no bound (the failed check makes it at least 1). Enough
    all-NULL rows always cross disjoint sides.
    """
    budget = Budget.of(budget)
    n = measure_denominator(table, "g5")
    if len(lhs) == len(rhs) == 1 and lhs != rhs:
        cols = sorted(lhs | rhs)
        # A copy: the fills below extend it, and the analysis may be shared.
        assignment = dict(key_analysis(table, lhs | rhs, analysis).matching.matching)
        used = set(assignment.values())
        domains = table.active_domains()
        fills = [p for p in product(*(domains[c] for c in cols)) if p not in used]
        k = len(fills)
    else:
        verdict = check_spcj_general(table, lhs, rhs, budget) if verdict is None else verdict
        if verdict.holds:
            return MeasureResult("g5", 0, n, added_rows=(), witness=verdict.witness)
        out, kept = _fix_shared(table, lhs, rhs)
        if out:
            return MeasureResult("g5", None, n)
        search = _CrossSearch(table, kept, lhs - rhs, rhs - lhs)
        k, assignment, fills = search.least(budget, math.inf, floor=1)
        cols = search.cols
    added = ((None,) * table.arity,) * k
    assignment.update(zip(range(n, n + k), fills))
    world = complete_world(table.with_rows_added(added) if k else table, cols,
                           lambda i: assignment.get(i, ()))
    return MeasureResult("g5", k, n, added_rows=added,
                         witness=SpWorld(world.rows, tuple(range(n)) + (None,) * k))
