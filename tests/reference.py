"""Test-side references for the key and spFD engines, and the table
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
"""

from __future__ import annotations

from collections import deque
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
from spcheck.search import Budget, backtrack, smallest_removal
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
