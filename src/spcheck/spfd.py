"""Exact spFD satisfaction check and the g3/g5 measures for spFDs.

Checking an spFD is NP-complete in general, so the check is a
backtracking search over per-tuple left-side completions: tuples imputed
to the same left-side value form a class, and a class is feasible iff on
every right-side attribute its members' non-NULL cells agree (free cells
can always copy the class value or, failing that, any active-domain
value). The search is exact within a node budget.
"""

from __future__ import annotations

from itertools import product

from .constraints import ConstraintVerdict, MeasureResult
from .errors import DEFAULT_BUDGET, PreconditionError
from .search import Budget, backtrack, row_order, smallest_addition
from .table import (
    AttributeSet,
    IncompleteTable,
    Row,
    SpWorld,
    complete_world,
    fresh_values,
    is_total,
    lexmin_world,
    projection,
)

# Degeneracy cases and slot enumeration in the removal lower bound are
# skipped above these sizes; the bound is only ever used to prune.
_BOUND_MAX_LHS = 12
_BOUND_MAX_SLOTS = 4096


def normalize_fd(lhs: AttributeSet, rhs: AttributeSet) -> tuple[AttributeSet, AttributeSet]:
    """Disjointify: X -> Y holds iff X\\Y -> Y\\X holds."""
    return lhs - rhs, rhs - lhs


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

    def _slot_space(self, extra_per_column: int = 0) -> int:
        """Size of the left-side completion space, capped at |T| + 1.

        ``extra_per_column`` accounts for the reserved symbol becoming
        available when removals empty out a column.
        """
        cap = self.table.row_count + 1
        slots = 1
        for a in self.x_cols:
            dom = self.table.active_domains()[a]
            width = len(dom.sorted_values)
            if extra_per_column and not dom.degenerate:
                width += extra_per_column
            slots *= width
            if slots >= cap:
                return cap
        return slots

    def _greedy_conflict_clique(self) -> int:
        """Rows pairwise conflicting on the right side must take pairwise
        distinct class values; any such clique lower-bounds the number of
        distinct left-side completions needed."""
        rows = self.table.rows
        clique: list[int] = []
        for i in range(len(rows)):
            if all(self._y_conflict(rows[i], rows[j]) for j in clique):
                clique.append(i)
        return len(clique)

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
            fixed = [row[a] for a in self.y_cols]
            self.classes[value] = [1, fixed]
            return ("new", value)
        count, fixed = state
        touched = []
        for pos, a in enumerate(self.y_cols):
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
        state[0] = count + 1
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

    def witness_world(self, assignment: dict) -> SpWorld:
        """Each row takes its class value on the left side and the
        class's fixed cells on the right; all members agree with those."""
        return complete_world(self.table, self.x_cols + self.y_cols,
                              lambda i: assignment[i] + tuple(self.classes[assignment[i]][1]))


def check_spfd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
               budget: int | Budget = DEFAULT_BUDGET) -> ConstraintVerdict:
    """Holds iff some strongly possible world satisfies the functional
    dependency; exact backtracking, complete within the budget."""
    x, y = normalize_fd(lhs, rhs)
    if not y or table.row_count == 0:
        # Reflexive dependency: any world works, e.g. the smallest one.
        return ConstraintVerdict(True, lexmin_world(table))
    search = _FdSearch(table, x, y)
    if search._greedy_conflict_clique() > search._slot_space():
        return ConstraintVerdict(False)
    assignment = search.run(Budget.of(budget))
    if assignment is None:
        return ConstraintVerdict(False)
    return ConstraintVerdict(True, search.witness_world(assignment))


def total_part_satisfies_fd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet) -> bool:
    """Whether the left-side-total rows admit a common imputation, i.e.
    no two of them disagree on a right-side attribute within a class."""
    x, y = normalize_fd(lhs, rhs)
    classes: dict = {}
    for row in table.rows:
        if not is_total(row, x):
            continue
        value = projection(row, x)
        fixed = classes.setdefault(value, [None] * len(y))
        for pos, a in enumerate(sorted(y)):
            cell = row[a]
            if cell is None:
                continue
            if fixed[pos] is None:
                fixed[pos] = cell
            elif fixed[pos] != cell:
                return False
    return True


def _removal_lower_bound(table: IncompleteTable, x_cols: tuple[int, ...],
                         y_cols: tuple[int, ...]) -> int:
    """Admissible lower bound on the size of any valid removal set.

    Relaxation: class values are drawn from the original active domains
    and kept rows need not provide them. Columns allowed to go degenerate
    are case-split, because the reserved symbol only becomes available
    for a column that is entirely NULL after removal, and rows with a
    value there are forcibly removed in that case.
    """
    n = table.row_count
    if len(x_cols) > _BOUND_MAX_LHS:
        return 0
    domains = table.active_domains()
    best_cover = 0
    for mask in range(1 << len(x_cols)):
        degen = {x_cols[b] for b in range(len(x_cols)) if mask >> b & 1}
        allowed = [r for r in table.rows if all(r[a] is None for a in degen)]
        feasible = all(
            domains[a].degenerate or any(r[a] is not None for r in allowed)
            for a in x_cols
            if a not in degen
        )
        if not feasible:
            continue
        slot_options = []
        size = 1
        for a in x_cols:
            opts = (None,) if a in degen else domains[a].sorted_values
            slot_options.append(opts)
            size *= len(opts)
        if size > _BOUND_MAX_SLOTS:
            best_cover = max(best_cover, len(allowed))
            continue
        total = 0
        for slot in product(*slot_options):
            compatible = [
                r for r in allowed
                if all(r[a] is None or s is None or r[a] == s
                       for a, s in zip(x_cols, slot))
            ]
            if not compatible:
                continue
            per_slot = len(compatible)
            for a in y_cols:
                counts: dict = {}
                free = 0
                for r in compatible:
                    if r[a] is None:
                        free += 1
                    else:
                        counts[r[a]] = counts.get(r[a], 0) + 1
                per_slot = min(per_slot, (max(counts.values()) if counts else 0) + free)
            total += per_slot
            if total >= len(allowed):
                total = len(allowed)
                break
        best_cover = max(best_cover, min(total, len(allowed)))
        if best_cover == n:
            break
    return n - best_cover


def g3_spfd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
            budget: int | Budget = DEFAULT_BUDGET) -> MeasureResult:
    """Minimum removal ratio by iterative deepening on the removal count.

    Unlike keys, minimum removal sets may contain left-side-total rows,
    so every row is in scope. Levels below the admissible lower bound are
    skipped rather than searched. Each level is an assign-or-remove
    search whose class state is a relaxation (it draws values from the
    original active domains, which removal may shrink), so every leaf
    with removals is re-checked against the actual sub-table.
    """
    n = table.row_count
    if n == 0:
        raise ValueError("g3 is undefined for an empty table")
    budget = Budget.of(budget)
    x, y = normalize_fd(lhs, rhs)
    if not y:
        verdict = check_spfd(table, lhs, rhs, budget)
        return MeasureResult("g3", 0, n, removed_rows=(), witness=verdict.witness)
    search = _FdSearch(table, x, y)
    rechecked: list[ConstraintVerdict] = []

    def leaf(removed: list) -> bool:
        if not removed:
            return True
        verdict = check_spfd(table.with_rows_removed(removed), x, y, budget)
        rechecked.append(verdict)
        return verdict.holds

    floor = _removal_lower_bound(table, search.x_cols, search.y_cols)
    clique_floor = search._greedy_conflict_clique() - search._slot_space(extra_per_column=1)
    for m in range(max(floor, clique_floor, 0), n + 1):
        assignment = search.run(budget, m, leaf)
        if assignment is not None:
            removed = tuple(i for i in range(n) if i not in assignment)
            kept = tuple(i for i in range(n) if i in assignment)
            world = rechecked[-1].witness if removed else search.witness_world(assignment)
            return MeasureResult("g3", len(removed), n, removed_rows=removed,
                                 witness=SpWorld(world.rows, kept))
    raise AssertionError("unreachable: removing every row satisfies any spFD")


def g5_spfd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
            budget: int | Budget = DEFAULT_BUDGET) -> MeasureResult:
    """Minimum number of added rows carrying a fresh left-side value.

    Each added row holds one globally new token on the (normalized) left
    side and NULL elsewhere: the fresh value gives crowded rows a class
    to escape to, and the free cells let the added row blend into any
    class it lands in. The search range comes from the removal witness:
    one row per removed non-total tuple plus one per distinct left-side
    value among removed total tuples.
    """
    if not total_part_satisfies_fd(table, lhs, rhs):
        raise PreconditionError(
            "the left-side-total part violates the dependency; additions cannot repair it"
        )
    n = table.row_count
    if n == 0:
        raise ValueError("g5 is undefined for an empty table")
    budget = Budget.of(budget)
    x, y = normalize_fd(lhs, rhs)
    if not y:
        return MeasureResult("g5", 0, n, added_rows=(),
                             witness=check_spfd(table, lhs, rhs, budget).witness)
    g3res = g3_spfd(table, lhs, rhs, budget)
    removed_rows = [table.rows[i] for i in g3res.removed_rows]
    nontotal = sum(1 for r in removed_rows if not is_total(r, x))
    total_classes = {projection(r, x) for r in removed_rows if is_total(r, x)}
    bound = nontotal + len(total_classes)
    tokens = fresh_values(table, max(bound, 1))
    return smallest_addition(
        table, bound,
        lambda k: [[tuple(tokens[j] if a in x else None for a in range(table.arity))
                    for j in range(k)]],
        lambda extended: check_spfd(extended, x, y, budget),
    )
