"""Test-side references for the key, spFD and spMVD engines, and the table
helpers that only tests use.

The key analysis matches one vertex per distinct key projection, with
its row count as capacity. The reference here is the graph with one
vertex per row: :func:`build_extension_graph` builds it row by row,
:func:`max_matching` matches it with the classical Hopcroft-Karp, and
:class:`KeyAnalysis` runs the engine's measures on them, so the two
sides can be compared matching by matching. :func:`reference_measures`
computes the check, g3, g4 and g5 from the full per-row graph with
nothing settled or left out.

For spFDs, :func:`unsettled_check_spfd`, :func:`unsettled_g3_spfd` and
:func:`unsettled_g5_spfd` run the engine's search with every row's
left-side completions as options, no cut in the removal levels and the
conflict-clique floor of :func:`clique_floor`, so every refutation past
the floor is found by branching.

For spMVDs, :func:`unpruned_check_spmvd`, :func:`unpruned_g3_spmvd` and
:func:`unpruned_g5_spmvd` build a new walk over left-side completions
(:func:`unpruned_mvd_search`) for every call and every g5 step, each with
its own class needs, and cross the classes only at the leaves.

:func:`stepped_complete_world` completes a world one picked row at a
time, and :func:`pairwise_check_nmvd` tests Lien's NMVD on every ordered
pair of left-side-total rows against every row.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from functools import cached_property
from itertools import product
from math import prod

from spcheck.constraints import ConstraintVerdict, MeasureResult, measure_denominator
from spcheck.matching import (
    ExtensionGraph,
    MatchingResult,
    hall_components,
    match_high_degree,
)
from spcheck.search import Budget, backtrack, row_order, smallest_removal
from spcheck.spfd import _FdSearch, normalize_fd
from spcheck.spkey import KeyAnalysis as _KeyAnalysis
from spcheck.spkey import first_total_duplicate
from spcheck.table import (
    AttributeSet,
    IncompleteTable,
    Row,
    Schema,
    SpWorld,
    complete_world,
    extension_options,
    fresh_rows,
    fresh_values,
    is_total,
    iter_extensions,
    projection,
    projector,
)
from spcheck.tuplegen import _CrossSearch


def weakly_similar(t1: Row, t2: Row, x: AttributeSet) -> bool:
    """True iff on every position in ``x`` the cells are equal or at least
    one of them is NULL."""
    for a in x:
        v1, v2 = t1[a], t2[a]
        if v1 is None or v2 is None:
            continue
        if v1 != v2:
            return False
    return True


def stepped_complete_world(table: IncompleteTable, positions=(), values=None,
                           rows=None) -> SpWorld:
    """``complete_world`` one picked row at a time."""
    fill = tuple(d[0] for d in table.active_domains())
    picked = range(table.row_count) if rows is None else rows
    completed = []
    for i in picked:
        row = table.rows[i]
        if None not in row:
            completed.append(row)
            continue
        cells = list(row)
        if values is not None:
            for a, v in zip(positions, values(i)):
                if v is not None:
                    cells[a] = v
        for a, c in enumerate(cells):
            if c is None:
                cells[a] = fill[a]
        completed.append(tuple(cells))
    return SpWorld(tuple(completed), tuple(picked))


def pairwise_check_nmvd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet) -> bool:
    """``check_nmvd`` by its definition: for every two distinct
    lhs-total rows agreeing on the left side, the two swapped tuples must
    occur verbatim, NULLs matching nothing."""
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


def project(table: IncompleteTable, x: AttributeSet) -> IncompleteTable:
    """Restrict every tuple to the positions in ``x`` (kept in schema
    order); duplicates preserved, row count unchanged."""
    positions = sorted(x)
    for a in positions:
        if not 0 <= a < table.arity:
            raise IndexError(f"attribute index {a} out of range")
    names = tuple(table.schema.attributes[a] for a in positions)
    rows = tuple(tuple(row[a] for a in positions) for row in table.rows)
    return IncompleteTable(Schema(names), rows, table.null_token)


def kuhn_matching_size(adjacency, n_right):
    """Independent reference matcher: plain augmenting-path search."""
    match_r = [None] * n_right

    def try_augment(u, visited):
        for v in adjacency[u]:
            if v in visited:
                continue
            visited.add(v)
            if match_r[v] is None or try_augment(match_r[v], visited):
                match_r[v] = u
                return True
        return False

    size = 0
    for u in range(len(adjacency)):
        if try_augment(u, set()):
            size += 1
    return size


def build_extension_graph(table: IncompleteTable, key: AttributeSet, leave_out=(),
                          settled=()) -> ExtensionGraph:
    """The extension graph with one left vertex per row.

    A row's extensions are taken in lexicographic order of its
    per-position options on the sorted key, and each new extension gets
    the next right id. The rows in ``leave_out`` are left out. The rows
    in ``settled`` must be key-total: the first of them with each
    projection is matched to it, the later ones stay unmatched, and none
    of them is a left vertex; their projections are left out of every
    other row's edges. With nothing settled or left out the graph is the
    full one.
    """
    cols = sorted(key)
    rows = table.rows
    project_row = projector(cols)
    held: dict = {}  # settled projection -> its first settled row
    for i in sorted(settled):
        p = project_row(rows[i])
        if None in p:
            raise ValueError(f"settled row {i} has a NULL on the key")
        held.setdefault(p, i)
    skip = set(settled)
    values = table.active_domains()
    right_ids: dict = {}
    setdefault = right_ids.setdefault
    adjacency: dict = {}
    high_degree: dict = {}
    for i, row in enumerate(rows):
        if i in skip:
            continue
        options = extension_options(row, cols, values)
        if i in leave_out:
            high_degree[i] = prod(map(len, options))
        else:
            adjacency[i] = [setdefault(ext, len(right_ids))
                            for ext in product(*options) if ext not in held]
    return ExtensionGraph(table, key, tuple(right_ids), adjacency,
                          {i: (i,) for i in adjacency}, high_degree,
                          {i: p for p, i in held.items()})


def hopcroft_karp(adjacency: list, n_right: int) -> tuple[int, list]:
    """The classical layered maximum matching with one right vertex per
    left vertex, from an empty matching: its size and its left vertex ->
    right id list (None when unmatched)."""
    n_left = len(adjacency)
    match_l, match_r = [None] * n_left, [None] * n_right
    inf = float("inf")
    dist = [inf] * n_left
    size = 0
    while True:
        queue: deque = deque()
        for u in range(n_left):
            if match_l[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found = inf
        while queue:
            u = queue.popleft()
            if dist[u] >= found:
                continue
            for v in adjacency[u]:
                w = match_r[v]
                if w is None:
                    if found is inf:
                        found = dist[u] + 1
                elif dist[w] is inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if found is inf:
            break
        for u0 in range(n_left):
            if match_l[u0] is not None:
                continue
            stack = [[u0, iter(adjacency[u0]), None]]
            augmented = False
            while stack:
                frame = stack[-1]
                u, it = frame[0], frame[1]
                descended = False
                for v in it:
                    w = match_r[v]
                    if w is None:
                        if dist[u] + 1 == found:
                            frame[2] = v
                            for fu, _, fv in stack:
                                match_l[fu] = fv
                                match_r[fv] = fu
                            augmented = True
                            stack.clear()
                            descended = True
                            break
                    elif dist[w] == dist[u] + 1:
                        frame[2] = v
                        stack.append([w, iter(adjacency[w]), None])
                        descended = True
                        break
                if not descended:
                    dist[u] = inf
                    stack.pop()
            if augmented:
                size += 1
    return size, match_l


def max_matching(graph: ExtensionGraph) -> MatchingResult:
    """The settled rows on their projections, the classical maximum
    matching over the rows with the fewest NULLs on the key first, then
    by index, then the greedy pigeonhole step for the rows left out."""
    cols = sorted(graph.key)
    rows = graph.table.rows
    low_rows = sorted(graph.adjacency, key=lambda i: (sum(rows[i][c] is None for c in cols), i))
    _, match_l = hopcroft_karp([graph.adjacency[i] for i in low_rows], len(graph.right_tuples))
    right_ids = {i: rid for i, rid in zip(low_rows, match_l) if rid is not None}
    matching = dict(graph.settled)
    matching.update((i, graph.right_tuples[rid]) for i, rid in right_ids.items())
    match_high_degree(graph.table, graph.key, graph.high_degree_left, matching)
    return MatchingResult(matching, len(matching), right_ids)


def rows_beyond_rivals(table: IncompleteTable, key: AttributeSet) -> set:
    """The rows with a NULL on ``key`` and more extensions than rivals,
    counted pair by pair."""
    return {
        i for i, row in enumerate(table.rows)
        if any(row[a] is None for a in key) and len(list(iter_extensions(table, row, key))) > sum(
            1 for j, other in enumerate(table.rows) if j != i and weakly_similar(row, other, key))
    }


class KeyAnalysis(_KeyAnalysis):
    """The engine's key analysis on the per-row graph: the key-total rows
    settled, the rows beyond their rivals left out, and the classical
    matching. Pass it as ``analysis`` to run the engine's measures on it."""

    @cached_property
    def graph(self) -> ExtensionGraph:
        totals = [i for i, row in enumerate(self.table.rows)
                  if all(row[c] is not None for c in self.cols)]
        return build_extension_graph(self.table, self.key, settled=totals,
                                     leave_out=rows_beyond_rivals(self.table, self.key))

    @cached_property
    def matching(self) -> MatchingResult:
        return max_matching(self.graph)


def full_graph_nu(t: IncompleteTable, key: AttributeSet) -> int:
    """The maximum matching size of the full per-row graph, by Kuhn's
    search."""
    g = build_extension_graph(t, key)
    return kuhn_matching_size([g.adjacency[i] for i in range(t.row_count)], len(g.right_tuples))


def reference_measures(t: IncompleteTable, key: AttributeSet):
    """check, g3, g4 and g5 from the full extension graph with nothing
    settled: Kuhn's search over every row, the Hall components, and g5
    by a fresh full graph per added row. g4 is (numerator, denominator),
    and g5 is ``"precondition"`` when a key-total row repeats."""
    n = t.row_count
    nu = full_graph_nu(t, key)
    parts = hall_components(build_extension_graph(t, key))
    assert parts.total_nu == nu
    g4 = (n - nu, n + parts.satisfied_tuple_count)
    if first_total_duplicate(t, key) is not None:
        g5 = "precondition"
    else:
        tokens = fresh_values(t, n - nu)
        g5 = next((k for k in range(n - nu + 1) if full_graph_nu(
            t.with_rows_added([(z,) * t.arity for z in tokens[:k]]), key) == n + k), None)
    return nu == n, n - nu, g4, g5


def clique_floor(search: _FdSearch) -> int:
    """The conflict-clique floor of :meth:`_FdSearch.removal_floor`,
    with every row tried against the greedy clique in row order."""
    rows = search.table.rows
    clique: set = set()
    for i, row in enumerate(rows):
        if all(search._y_conflict(row, rows[j]) for j in clique):
            clique.add(i)

    def floor(emptied):
        gone = set() if emptied is None else {i for i, r in enumerate(rows) if r[emptied] is not None}
        return len(gone) + max(len(clique - gone) - search._slot_space(emptied), 0)

    return min(floor(a) for a in (None, *search.x_cols))


def _run_unsettled(search: _FdSearch, budget: Budget, max_removed: int = 0, leaf=None):
    return backtrack(search.order, search.options, search.same_as_prev, budget,
                     search._join, search._unjoin, leaf=leaf, max_removed=max_removed)


def unsettled_check_spfd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                         budget) -> ConstraintVerdict:
    """The spFD check with the conflict-clique floor as its only test
    before the search, which branches over every row's completions."""
    x, y = normalize_fd(lhs, rhs)
    if not y or table.row_count == 0:
        return ConstraintVerdict(True, complete_world(table))
    search = _FdSearch(table, x, y)
    assignment = None if clique_floor(search) > 0 else _run_unsettled(search, Budget.of(budget))
    if assignment is None:
        return ConstraintVerdict(False)
    return ConstraintVerdict(True, complete_world(
        table, search.x_cols + search.y_cols,
        lambda i: assignment[i] + tuple(search.classes[assignment[i]][1])))


def unsettled_g3_spfd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                      budget) -> MeasureResult:
    """spFD g3 by the removal deepening with no cut in its levels, each
    leaf re-checked by :func:`unsettled_check_spfd`."""
    budget = Budget.of(budget)
    x, y = normalize_fd(lhs, rhs)
    verdict = unsettled_check_spfd(table, x, y, budget)
    search = _FdSearch(table, x, y)
    return smallest_removal(table, clique_floor(search),
                            lambda m, leaf: _run_unsettled(search, budget, m, leaf),
                            lambda sub: unsettled_check_spfd(sub, x, y, budget), verdict)


def unsettled_g5_spfd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                      budget, g3: MeasureResult) -> MeasureResult:
    """spFD g5 for a table whose left-side-total rows agree: the table
    plus the first k fresh-left rows, checked by
    :func:`unsettled_check_spfd`, up to the bound ``g3``'s removal
    witness implies."""
    n = measure_denominator(table, "g5")
    budget = Budget.of(budget)
    x, y = normalize_fd(lhs, rhs)
    verdict = unsettled_check_spfd(table, x, y, budget)
    if verdict.holds:
        return MeasureResult("g5", 0, n, added_rows=(), witness=verdict.witness)
    removed_rows = [table.rows[i] for i in g3.removed_rows]
    bound = (sum(1 for r in removed_rows if not is_total(r, x))
             + len({projection(r, x) for r in removed_rows if is_total(r, x)}))
    added = fresh_rows(table, x, bound)
    for k in range(1, bound + 1):
        verdict = unsettled_check_spfd(table.with_rows_added(added[:k]), x, y, budget)
        if verdict.holds:
            return MeasureResult("g5", k, n, added_rows=added[:k], witness=SpWorld(
                verdict.witness.rows, tuple(range(n)) + (None,) * k))
    return MeasureResult("g5", None, n)


def unpruned_mvd_search(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet):
    """The spMVD walk as it was before ``tuplegen.MvdAnalysis``: built
    anew by every call, with its own class needs, and no cut before the
    leaves. The search behind the spMVD check, g3 and g5, over left-side
    completions: the rows imputed one value form a class, and every class
    must cross its right side with the rest of the schema.

    Rows NULL on every column are counted, not branched, and never
    removed: one such row can join any class and fill one missing
    combination there, or repeat any kept row. A class's need is the
    fewest of them with which it crosses (its cross search's least need,
    cached with the bound it proved); a path's need is the all-NULL rows
    its classes need beyond the table's own.

    Returns ``walk(budget, best, max_removed, leaf, floor)``; ``max_removed``
    and ``leaf`` are those of ``backtrack``. It gives the least need below
    ``best`` on an accepted path and the world of that path's kept rows
    plus that many all-NULL rows, or None; it stops at the first path
    that needs at most ``floor``."""
    sides = (rhs - lhs, table.all_positions() - lhs - rhs)
    x_cols = tuple(sorted(lhs))
    positions = x_cols + tuple(sorted(sides[0] | sides[1]))
    blank = [i for i, row in enumerate(table.rows) if all(c is None for c in row)]
    branching = [i for i, row in enumerate(table.rows) if any(c is not None for c in row)]
    order, options, same_as_prev = row_order(table, branching, x_cols, range(table.arity))
    classes: dict = defaultdict(list)
    # sorted class members -> (the need, or the most it was shown to
    # exceed, and the cross search's (need, completions, fills) or None)
    needs: dict = {}

    def join(i: int, value: tuple) -> tuple:
        classes[value].append(i)
        return value

    def leave(value: tuple) -> None:
        classes[value].pop()
        if not classes[value]:
            del classes[value]

    def need(members: list, most: float, budget: Budget) -> int | None:
        """The fewest all-NULL rows with which ``members`` cross, or None
        when that is above ``most``."""
        key = tuple(sorted(members))
        tried, found = needs.get(key, (-1, None))
        if found is None and tried < most:
            found = _CrossSearch(table, key, *sides).least(budget, most + 1)
            tried = most if found is None else found[0]
            needs[key] = (tried, found)
        return tried if found is not None and tried <= most else None

    def cells(extra: int) -> dict:
        """Each class's all-NULL rows, ``extra`` added ones included, take
        its missing combinations; the rows left over repeat a kept row."""
        cells: dict = {}
        spare = iter(blank + list(range(table.row_count, table.row_count + extra)))
        for value, members in classes.items():
            _, completions, fills = needs[tuple(sorted(members))][1]
            for i in members:
                cells[i] = value + completions[i]
            for fill in fills:
                cells[next(spare)] = value + fill
        repeat = next(iter(cells.values()), (None,) * table.arity)
        for i in spare:
            cells[i] = repeat
        return cells

    def walk(budget: Budget, best: float = 1, max_removed: int = 0, leaf=None,
             floor: int = 0) -> tuple | None:
        found = None

        def accept(removed: list) -> bool:
            nonlocal best, found
            spent = 0
            for members in classes.values():
                got = need(members, len(blank) + best - 1 - spent, budget)
                if got is None:
                    return False
                spent += got
            if leaf is not None and not leaf(removed):
                return False
            best = max(spent - len(blank), 0)
            found = cells(best)
            return best <= floor

        backtrack(order, options, same_as_prev, budget, join, leave, leaf=accept,
                  max_removed=max_removed)
        if found is None:
            return None
        extended = table.with_rows_added([(None,) * table.arity] * best) if best else table
        return best, complete_world(extended, positions, found.__getitem__, sorted(found))

    return walk


def unpruned_check_spmvd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                         budget) -> ConstraintVerdict:
    """Holds iff some strongly possible world satisfies the classical
    multivalued dependency; the full schema matters, not just lhs + rhs.
    The search counts the rows NULL on every column instead of branching
    them (see :func:`unpruned_mvd_search`)."""
    found = unpruned_mvd_search(table, lhs, rhs)(Budget.of(budget))
    return ConstraintVerdict(False) if found is None else ConstraintVerdict(True, found[1])


def unpruned_g3_spmvd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                      budget) -> MeasureResult:
    """Minimum removal ratio by ``smallest_removal``'s deepening: each
    level removes rows in the check's search over left-side completions."""
    budget = Budget.of(budget)
    verdict = unpruned_check_spmvd(table, lhs, rhs, budget)
    walk = unpruned_mvd_search(table, lhs, rhs)
    return smallest_removal(table, 0, lambda m, leaf: walk(budget, 1, m, leaf),
                            lambda sub: unpruned_check_spmvd(sub, lhs, rhs, budget), verdict)


def unpruned_g5_spmvd(table: IncompleteTable, lhs: AttributeSet, rhs: AttributeSet,
                      budget) -> MeasureResult:
    """Minimum number of added rows, each all-NULL (a combination filler)
    or fresh on the left side and NULL elsewhere (a class escape).

    All-NULL rows change no active domain, so the fewest of them that
    repair the table plus j fresh-left rows is the check's walk's least
    need there. g5 is the least j plus that need, for j = 0, 1, ... below
    the best so far; the failed check makes it at least 1, so the walk at
    j = 0 stops at need 1. Enough all-NULL rows always repair the table.
    """
    budget = Budget.of(budget)
    n = measure_denominator(table, "g5")
    verdict = unpruned_check_spmvd(table, lhs, rhs, budget)
    if verdict.holds:
        return MeasureResult("g5", 0, n, added_rows=(), witness=verdict.witness)
    j, need, world = 0, *unpruned_mvd_search(table, lhs, rhs)(budget, math.inf, floor=1)
    fresh = fresh_rows(table, lhs, need - 1)
    k = 1
    while k < j + need:
        found = unpruned_mvd_search(table.with_rows_added(fresh[:k]), lhs, rhs)(budget, j + need - k)
        if found is not None:
            j, (need, world) = k, found
        k += 1
    added = fresh[:j] + ((None,) * table.arity,) * need
    return MeasureResult("g5", j + need, n, added_rows=added,
                         witness=SpWorld(world.rows, tuple(range(n)) + (None,) * (j + need)))
