"""Budgeted backtracking shared by the spFD, spMVD and spCJ engines, and
the removal deepening behind their g3.

Every engine assigns each row one completion of some columns and keeps
its own state for the rows assigned so far. The kernel here walks the
rows in a fixed order with an explicit stack, so the search depth is
bounded by memory rather than by Python's recursion limit, and counts
its nodes against one budget that every search inside a public call
shares.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .constraints import ConstraintVerdict, MeasureResult, measure_denominator
from .errors import BudgetExceededError
from .table import IncompleteTable, SpWorld, iter_extensions, row_key

_REMOVED = -1


class Budget:
    """Node counter; one per public check or measure call."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    @staticmethod
    def of(budget: "int | Budget") -> "Budget":
        """``budget`` itself, or a fresh budget of that many nodes."""
        return budget if isinstance(budget, Budget) else Budget(budget)

    def tick(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise BudgetExceededError(
                f"search exceeded the node budget of {self.limit}",
                spent=self.spent, budget=self.limit,
            )


def row_order(table: IncompleteTable, rows: Iterable[int], option_cols: Sequence[int],
              key_cols: Sequence[int]) -> tuple[list, dict, list]:
    """Branching order of ``rows`` (indices into ``table``), their
    options, and the ``same_as_prev`` flags.

    A row's options are its completions on the sorted ``option_cols``.
    Rows with fewer options go first, ties broken by the cells on
    ``key_cols`` and then by index. ``same_as_prev[pos]`` is set when the
    row at ``pos`` equals its predecessor on ``key_cols``: such rows are
    interchangeable, so the search lets them take non-decreasing option
    indices only.
    """
    options = {i: tuple(iter_extensions(table, table.rows[i], option_cols)) for i in rows}
    keys = {i: row_key(table.rows[i], key_cols) for i in options}
    order = sorted(options, key=lambda i: (len(options[i]), keys[i], i))
    same_as_prev = [pos > 0 and keys[order[pos - 1]] == keys[i] for pos, i in enumerate(order)]
    return order, options, same_as_prev


def backtrack(order: list, options: dict, same_as_prev: list, budget: Budget,
              push: Callable, pop: Callable, prune: Callable | None = None,
              leaf: Callable | None = None, max_removed: int = 0) -> dict | None:
    """Depth-first search over the rows in ``order``.

    At each position the row takes its options in turn, starting from
    its predecessor's option index when ``same_as_prev`` holds, and is
    then removed instead while fewer than ``max_removed`` rows are. A row
    whose interchangeable predecessor was removed is removed or fails.

    ``push(i, option)`` adds row ``i``'s option to the caller's state and
    returns an undo token for ``pop(token)``, or None to refuse it.
    ``prune(pos)``, when true, fails a position before it branches.
    ``leaf(removed)`` accepts or rejects a full path, given the removed
    rows; without it every full path is accepted. Each position entered
    spends one node of ``budget``.

    Returns the option each kept row took on the first accepted path,
    with the caller's state left at that path, or None when no path is
    accepted (the state is then fully undone).
    """
    n = len(order)
    picks = [0] * n  # option index taken at each position, or _REMOVED
    tokens = [None] * n
    cursor = [0] * n  # next option index to try; past the end once removed
    removed: list = []
    pos = 0
    entering = True
    while pos >= 0:
        if entering:
            if pos == n:
                if leaf is None or leaf(removed):
                    return {order[p]: options[order[p]][picks[p]]
                            for p in range(n) if picks[p] != _REMOVED}
                pos -= 1
                entering = False
                continue
            budget.tick()
            if prune is not None and prune(pos):
                pos -= 1
                entering = False
                continue
            start = picks[pos - 1] if same_as_prev[pos] else 0
            cursor[pos] = len(options[order[pos]]) if start == _REMOVED else start
        # Back at pos from below: undo its branch before trying the next.
        elif picks[pos] == _REMOVED:
            removed.pop()
        else:
            pop(tokens[pos])
        i = order[pos]
        opts = options[i]
        end = len(opts)
        k = cursor[pos]
        token = None
        while token is None and k < end:
            token = push(i, opts[k])
            k += 1
        if token is not None:
            picks[pos], tokens[pos] = k - 1, token
        elif k == end and len(removed) < max_removed:
            k += 1
            picks[pos] = _REMOVED
            removed.append(i)
        else:
            pos -= 1
            entering = False
            continue
        cursor[pos] = k
        pos += 1
        entering = True
    return None


def smallest_removal(table: IncompleteTable, floor: int, run: Callable,
                     check: Callable[[IncompleteTable], ConstraintVerdict],
                     verdict: ConstraintVerdict) -> MeasureResult:
    """g3 as the fewest removed rows, by iterative deepening on their count.

    Level 0 is ``verdict``, the check on the whole table. Level m, from
    ``floor`` (a lower bound on the rows any valid removal set holds) or
    1, is ``run(m, leaf)``: the caller's assign-or-remove search with
    at most m removals, which returns None when no path passes both its
    own tests and ``leaf(removed)``. That search is a relaxation (its
    rows draw from the whole table's active domains, which removal may
    shrink), so ``leaf`` re-checks each removal set on the real sub-table,
    and the first re-check that holds supplies the witness.
    """
    n = measure_denominator(table, "g3")
    if verdict.holds:
        return MeasureResult("g3", 0, n, removed_rows=(), witness=verdict.witness)
    found = []

    def leaf(removed: list) -> bool:
        if not removed:
            return False  # the whole table's verdict refuted it
        verdict = check(table.with_rows_removed(removed))
        if verdict.holds:
            found.append((tuple(sorted(removed)), verdict.witness))
        return verdict.holds

    for m in range(max(floor, 1), n + 1):
        if run(m, leaf) is not None:
            removed, world = found[-1]
            kept = tuple(sorted(set(range(n)).difference(removed)))
            return MeasureResult("g3", len(removed), n, removed_rows=removed,
                                 witness=SpWorld(world.rows, kept))
    raise AssertionError("unreachable: removing every row satisfies the constraint")
