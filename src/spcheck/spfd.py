"""Exact spFD satisfaction check and the g3/g5 measures for spFDs.

Checking an spFD is NP-complete in general, so the check is a
backtracking search over per-tuple left-side completions: tuples imputed
to the same left-side value form a class, and a class is feasible iff on
every right-side attribute its members' non-NULL cells agree (free cells
can always copy the class value or, failing that, any active-domain
value). The search is exact within a node budget.

Left-side-total rows have one completion each, so they come first in
the branching order and fix their classes' right-side cells before any
row branches. The check therefore drops, before it branches, every
option whose class they fix to a cell that conflicts with the row's own
(forward checking, Haralick & Elliott 1980); a row left with no option
refutes the dependency with no node spent. g3's removal levels cannot
drop options, as removals may take left-side-total rows, so they cut a
subtree at the end of the one-option rows instead, once more later rows
fit no kept class than removals are left. Neither step changes the
branching order, so answers and witnesses are those of the plain
search, in no more nodes.
"""

from __future__ import annotations

from functools import cached_property
from itertools import filterfalse

from .constraints import ConstraintVerdict, MeasureResult, measure_denominator
from .errors import DEFAULT_BUDGET, PreconditionError
from .search import Budget, backtrack, row_order, smallest_removal
from .table import (
    AttributeSet,
    IncompleteTable,
    Row,
    SpWorld,
    complete_world,
    fresh_rows,
    is_total,
    projection,
    projector,
)


def normalize_fd(lhs: AttributeSet, rhs: AttributeSet) -> tuple[AttributeSet, AttributeSet]:
    """Disjointify: X -> Y holds iff X -> Y\\X holds. The left side
    stays whole: rows that agree on X\\Y only need not agree on Y\\X."""
    return lhs, rhs - lhs


def _merge(fixed: list, row: Row, y_cols: tuple[int, ...]) -> list | None:
    """Fix ``row``'s right-side cells into its class's ``fixed`` cells.

    Returns the newly fixed positions, or None, with ``fixed`` left as it
    was, when a cell disagrees with the class.
    """
    touched = []
    for pos, a in enumerate(y_cols):
        cell = row[a]
        if cell is None:
            continue
        if fixed[pos] is None:
            fixed[pos] = cell
            touched.append(pos)
        elif fixed[pos] != cell:
            for p in touched:
                fixed[p] = None
            return None
    return touched


def _fits(fixed: tuple | list | None, cells: tuple) -> bool:
    """Whether a class with the ``fixed`` right-side cells (None for no
    class) can take a row with the right-side ``cells``."""
    return fixed is None or all(f is None or c is None or f == c for f, c in zip(fixed, cells))


def _fixed_classes(table: IncompleteTable, x_cols: tuple[int, ...],
                   y_cols: tuple[int, ...]) -> tuple[dict, list] | None:
    """The right-side cells the left-side-total rows fix in their
    classes (class value -> per-``y_cols`` cell or None), with the rows
    NULL on ``x_cols`` that have a non-NULL cell on ``y_cols``, as
    (index, cells) pairs; None when two left-side-total rows disagree
    within a class."""
    xs, ys = projector(x_cols), projector(y_cols)
    blank = (None,) * len(y_cols)
    classes: dict = {}
    partial = []
    for i, row in enumerate(table.rows):
        value, cells = xs(row), ys(row)
        if None in value:
            if cells != blank:
                partial.append((i, cells))
            continue
        fixed = classes.setdefault(value, cells)
        if fixed != cells:
            if not _fits(fixed, cells):
                return None
            classes[value] = tuple(f if c is None else c for f, c in zip(fixed, cells))
    return classes, partial


class _FdSearch:
    """Assignment of left-side extensions to rows, with the classes the
    assigned rows form: class value -> [member count, per-right-side
    attribute fixed cell or None]."""

    def __init__(self, table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet):
        self.table = table
        self.x_cols = tuple(sorted(lhs))
        self.y_cols = tuple(sorted(rhs))
        self.order, self.options, self.same_as_prev = row_order(
            table, range(table.row_count), self.x_cols, self.x_cols + self.y_cols
        )
        self.classes: dict = {}

    def settle(self) -> bool:
        """Drop each row's options whose class a left-side-total row
        fixes to a right-side cell that conflicts with the row's own.

        Those options fail whenever the row is pushed without removals,
        as every left-side-total row has one option and so is pushed
        first. The check's branching order and first path are unchanged.
        Returns False when no path exists: the left-side-total rows
        conflict, or some row keeps no option.
        """
        settled = _fixed_classes(self.table, self.x_cols, self.y_cols)
        if settled is None:
            return False
        fixed, partial = settled
        options = self.options
        by_cells: dict = {}  # fixed cells -> the classes that fix them
        for v, f in fixed.items():
            by_cells.setdefault(f, []).append(v)
        ruled_out: dict = {}  # a row's cells -> the classes they conflict with
        for i, cells in partial:
            out = ruled_out.get(cells)
            if out is None:
                out = ruled_out[cells] = {v for f, vs in by_cells.items()
                                          if not _fits(f, cells) for v in vs}
            if out:
                kept = tuple(filterfalse(out.__contains__, options[i]))
                if not kept:
                    return False
                options[i] = kept
        return True

    def run(self, budget: Budget, max_removed: int = 0, leaf=None) -> dict | None:
        """The first path with at most ``max_removed`` removals that
        ``leaf`` accepts (see :func:`backtrack`)."""
        return backtrack(self.order, self.options, self.same_as_prev, budget,
                         self._join, self._unjoin, leaf=leaf, max_removed=max_removed,
                         prune=self._cut(max_removed) if max_removed else None)

    @cached_property
    def _forced(self) -> tuple[int, list]:
        """The length of the one-option prefix of ``order``, and the
        rows after it with a non-NULL right-side cell, as (options,
        cells) pairs."""
        order, options, rows = self.order, self.options, self.table.rows
        prefix = next((pos for pos, i in enumerate(order) if len(options[i]) > 1), len(order))
        ys, blank = projector(self.y_cols), (None,) * len(self.y_cols)
        later = [(options[i], cells) for i in order[prefix:] if (cells := ys(rows[i])) != blank]
        return prefix, later

    def _cut(self, max_removed: int):
        """The ``prune`` of a level with at most ``max_removed``
        removals, or None when it would never cut.

        Rows with one option come first, so at the end of that prefix the
        kept rows' classes hold every cell they fix for the whole subtree.
        A later row none of whose options fits them must be removed, and
        more such rows than removals left fail the subtree.
        """
        prefix, later = self._forced
        if not prefix or not later:
            return None
        classes = self.classes

        def prune(pos: int) -> bool:
            if pos != prefix:
                return False
            left = max_removed - prefix + sum(state[0] for state in classes.values())
            for opts, cells in later:
                if not any(_fits(None if state is None else state[1], cells)
                           for state in map(classes.get, opts)):
                    left -= 1
                    if left < 0:
                        return True
            return False

        return prune

    def _slot_space(self, emptied: int | None = None) -> int:
        """Size of the left-side completion space, capped at |T| + 1.

        Column ``emptied``, if given, offers only the reserved symbol, as
        it does once removals leave it all NULL.
        """
        cap = self.table.row_count + 1
        slots = 1
        for a in self.x_cols:
            slots *= 1 if a == emptied else len(self.table.active_domains()[a])
            if slots >= cap:
                return cap
        return slots

    def removal_floor(self) -> int:
        """Admissible lower bound on the rows any valid removal set holds.

        Rows pairwise conflicting on the right side need pairwise distinct
        left-side completions, so those of a greedy clique beyond the
        completion space must go. The reserved symbol enters that space
        only in a left-side column that removals leave all NULL, which
        takes every row with a value there; emptying a further column
        removes no fewer rows and leaves no more space, so one column at
        a time suffices. Only the first row of each right-side projection
        is tried: a later one does not conflict with it, if it joined,
        and conflicts with no more members than it did, if it did not.
        """
        rows = self.table.rows
        ys = projector(self.y_cols)
        clique: set[int] = set()
        tried: set = set()
        for i, row in enumerate(rows):
            cells = ys(row)
            if cells not in tried:
                tried.add(cells)
                if all(self._y_conflict(row, rows[j]) for j in clique):
                    clique.add(i)

        def floor(emptied: int | None) -> int:
            gone = set() if emptied is None else {i for i, r in enumerate(rows) if r[emptied] is not None}
            return len(gone) + max(len(clique - gone) - self._slot_space(emptied), 0)

        return min(floor(a) for a in (None, *self.x_cols))

    def _y_conflict(self, r1: Row, r2: Row) -> bool:
        for a in self.y_cols:
            v1, v2 = r1[a], r2[a]
            if v1 is not None and v2 is not None and v1 != v2:
                return True
        return False

    def _join(self, i: int, value: tuple):
        """Add row ``i`` to the class of ``value``; returns an undo token
        or None when the class would become infeasible."""
        row = self.table.rows[i]
        state = self.classes.get(value)
        if state is None:
            self.classes[value] = [1, [row[a] for a in self.y_cols]]
            return ("new", value)
        touched = _merge(state[1], row, self.y_cols)
        if touched is None:
            return None
        state[0] += 1
        return ("old", value, touched)

    def _unjoin(self, token) -> None:
        if token[0] == "new":
            del self.classes[token[1]]
        else:
            _, value, touched = token
            state = self.classes[value]
            state[0] -= 1
            for p in touched:
                state[1][p] = None


def check_spfd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
               budget: int | Budget = DEFAULT_BUDGET) -> ConstraintVerdict:
    """Holds iff some strongly possible world satisfies the functional
    dependency; exact backtracking, complete within the budget. Each row
    of the witness takes its class's value and fixed right-side cells."""
    x, y = normalize_fd(lhs, rhs)
    if not y or table.row_count == 0:
        # Reflexive dependency: any world works, e.g. the smallest one.
        return ConstraintVerdict(True, complete_world(table))
    search = _FdSearch(table, x, y)
    settled = search.removal_floor() == 0 and search.settle()
    assignment = search.run(Budget.of(budget)) if settled else None
    if assignment is None:
        return ConstraintVerdict(False)
    return ConstraintVerdict(True, complete_world(
        table, search.x_cols + search.y_cols,
        lambda i: assignment[i] + tuple(search.classes[assignment[i]][1])))


def total_part_satisfies_fd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet) -> bool:
    """Whether the left-side-total rows admit a common imputation, i.e.
    no two of them disagree on a right-side attribute within a class."""
    x, y = normalize_fd(lhs, rhs)
    return _fixed_classes(table, tuple(sorted(x)), tuple(sorted(y))) is not None


def g3_spfd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
            budget: int | Budget = DEFAULT_BUDGET,
            verdict: ConstraintVerdict | None = None) -> MeasureResult:
    """Minimum removal ratio by ``smallest_removal``'s deepening on the
    removal count.

    Unlike keys, minimum removal sets may contain left-side-total rows,
    so every row is in scope. Level 0 is ``verdict``, the check on the
    whole table (run here when not given). Deepening starts at the
    conflict-clique floor of ``_FdSearch.removal_floor``; each level runs
    the check's search, whose classes draw on the whole table's active
    domains, with a removal branch at every row and the cut of
    ``_FdSearch._cut`` at the end of the one-option rows.
    """
    budget = Budget.of(budget)
    x, y = normalize_fd(lhs, rhs)
    verdict = check_spfd(table, x, y, budget) if verdict is None else verdict
    search = _FdSearch(table, x, y)
    return smallest_removal(table, search.removal_floor(),
                            lambda m, leaf: search.run(budget, m, leaf),
                            lambda sub: check_spfd(sub, x, y, budget), verdict)


def g5_spfd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
            budget: int | Budget = DEFAULT_BUDGET, verdict: ConstraintVerdict | None = None,
            g3: MeasureResult | None = None) -> MeasureResult:
    """Minimum number of added rows carrying a fresh left-side value.

    Each added row holds one globally new token on the left side and
    NULL elsewhere: the fresh value gives crowded rows a class
    to escape to, and the free cells let the added row blend into any
    class it lands in. ``verdict``, the check on the table, answers
    k = 0, and k > 0 checks the table plus k such rows. The search range
    comes from ``g3``'s removal witness: one row per removed non-total
    tuple plus one per distinct left-side value among removed total
    tuples. Either is computed when not given. Beyond it, g5 is undefined.
    """
    if not total_part_satisfies_fd(table, lhs, rhs):
        raise PreconditionError(
            "the left-side-total part violates the dependency; additions cannot repair it"
        )
    n = measure_denominator(table, "g5")  # before g3's precondition
    budget = Budget.of(budget)
    x, y = normalize_fd(lhs, rhs)
    verdict = check_spfd(table, x, y, budget) if verdict is None else verdict
    if verdict.holds:
        return MeasureResult("g5", 0, n, added_rows=(), witness=verdict.witness)
    g3 = g3_spfd(table, x, y, budget, verdict) if g3 is None else g3
    removed_rows = [table.rows[i] for i in g3.removed_rows]
    nontotal = sum(1 for r in removed_rows if not is_total(r, x))
    total_classes = {projection(r, x) for r in removed_rows if is_total(r, x)}
    bound = nontotal + len(total_classes)
    added = fresh_rows(table, x, bound)
    for k in range(1, bound + 1):
        verdict = check_spfd(table.with_rows_added(added[:k]), x, y, budget)
        if verdict.holds:
            return MeasureResult("g5", k, n, added_rows=added[:k], witness=SpWorld(
                verdict.witness.rows, tuple(range(n)) + (None,) * k))
    return MeasureResult("g5", None, n)
