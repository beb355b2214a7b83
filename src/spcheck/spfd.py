"""Exact spFD satisfaction check and the g3/g5 measures for spFDs.

Checking an spFD is NP-complete in general, so the check is a
backtracking search over per-tuple left-side completions: tuples imputed
to the same left-side value form a class, and a class is feasible iff on
every right-side attribute its members' non-NULL cells agree (free cells
can always copy the class value or, failing that, any active-domain
value). The search is exact within a node budget.
"""

from __future__ import annotations

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

    def run(self, budget: Budget, max_removed: int = 0, leaf=None) -> dict | None:
        return backtrack(self.order, self.options, self.same_as_prev, budget,
                         self._join, self._unjoin, leaf=leaf, max_removed=max_removed)

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
        a time suffices.
        """
        rows = self.table.rows
        clique: set[int] = set()
        for i, row in enumerate(rows):
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
    assignment = None if search.removal_floor() > 0 else search.run(Budget.of(budget))
    if assignment is None:
        return ConstraintVerdict(False)
    return ConstraintVerdict(True, complete_world(
        table, search.x_cols + search.y_cols,
        lambda i: assignment[i] + tuple(search.classes[assignment[i]][1])))


def total_part_satisfies_fd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet) -> bool:
    """Whether the left-side-total rows admit a common imputation, i.e.
    no two of them disagree on a right-side attribute within a class."""
    x, y = normalize_fd(lhs, rhs)
    y_cols = tuple(sorted(y))
    classes: dict = {}
    for row in table.rows:
        if is_total(row, x):
            fixed = classes.setdefault(projection(row, x), [None] * len(y_cols))
            if _merge(fixed, row, y_cols) is None:
                return False
    return True


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
    domains, with a removal branch at every row.
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
