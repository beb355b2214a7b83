"""Bipartite extension graph, maximum matching, and Hall-condition
component classification.

The left class holds tuple indices, the right class the distinct complete
key projections over the active domains. The full right class is usually
exponential, so construction stops materializing a tuple's extensions at
``cap`` (default ``|T| + 1``), and also leaves out the tuples a caller
names. Each tuple left out must have more extensions than *rivals*, the
other tuples weakly similar to it on the key: one over the cap has more
than the table has other tuples, and :func:`rows_beyond_rivals` finds
the rest. Only a rival can hold one of its extensions, so once everyone
else is matched one is still free, which keeps the matching maximum and
the check polynomial. Such tuples are recorded in ``high_degree_left``
and matched greedily from a lazy enumeration.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import product
from math import prod

from .errors import UnmaterializedGraphError
from .table import AttributeSet, IncompleteTable, column_values, extension_options, projector


@dataclass(frozen=True)
class ExtensionGraph:
    table: IncompleteTable
    key: AttributeSet
    cap: int
    right_tuples: tuple[tuple, ...]
    adjacency: dict  # low-degree row index -> list of right ids, lex order
    high_degree_left: dict  # row index left out -> exact extension count

    @property
    def fully_materialized(self) -> bool:
        return not self.high_degree_left


@dataclass(frozen=True)
class MatchingResult:
    matching: dict  # row index -> extension tuple
    size: int
    right_ids: dict  # materialized matched row index -> right id


@dataclass(frozen=True)
class Component:
    left_rows: tuple[int, ...]
    right_ids: tuple[int, ...]
    nu: int

    @property
    def satisfied(self) -> bool:
        return self.nu == len(self.left_rows)


@dataclass(frozen=True)
class ComponentPartition:
    satisfied: tuple[Component, ...]
    deficient: tuple[Component, ...]

    @property
    def satisfied_tuple_count(self) -> int:
        return sum(len(c.left_rows) for c in self.satisfied)

    @property
    def total_nu(self) -> int:
        return sum(c.nu for c in self.satisfied + self.deficient)


def build_extension_graph(table: IncompleteTable, key: AttributeSet, cap: int | None = None,
                          leave_out=()) -> ExtensionGraph:
    """Materialize each tuple's distinct key extensions up to ``cap``.

    A tuple's extensions are taken in lexicographic order of its
    per-position options on the sorted key, and each new extension gets
    the next right id. The rows in ``leave_out`` are left out whatever
    their count; each must have more extensions than rivals (see
    :func:`rows_beyond_rivals`).
    """
    n = table.row_count
    if cap is None:
        cap = n + 1
    if cap < n + 1:
        raise ValueError(f"cap must be at least |T| + 1 = {n + 1}")
    right_ids: dict = {}
    adjacency, high_degree = _materialize(table, key, range(n), cap, right_ids, leave_out)
    return ExtensionGraph(table, key, cap, tuple(right_ids), adjacency, high_degree)


def raise_cap(graph: ExtensionGraph, cap: int) -> ExtensionGraph:
    """``graph`` materialized up to the larger ``cap``: the rows it left
    out that fall under ``cap`` get their extensions, new ones after its
    right ids. The rows it already holds share their lists with it."""
    if cap < graph.cap:
        raise ValueError(f"cap must be at least the graph's cap {graph.cap}")
    right_ids = dict(zip(graph.right_tuples, range(len(graph.right_tuples))))
    adjacency, high_degree = _materialize(graph.table, graph.key, sorted(graph.high_degree_left),
                                          cap, right_ids)
    return ExtensionGraph(graph.table, graph.key, cap, tuple(right_ids),
                          {**graph.adjacency, **adjacency}, high_degree)


def _materialize(table: IncompleteTable, key: AttributeSet, rows, cap: int,
                 right_ids: dict, leave_out=()) -> tuple[dict, dict]:
    """The edge lists of ``rows`` under ``cap`` and not in ``leave_out``,
    and the counts of the others; ``right_ids`` (extension -> right id)
    grows in id order."""
    cols = sorted(key)
    values = column_values(table)
    setdefault = right_ids.setdefault
    adjacency: dict = {}
    high_degree: dict = {}
    for i in rows:
        options = extension_options(table.rows[i], cols, values)
        count = prod(map(len, options))
        if count >= cap or i in leave_out:
            high_degree[i] = count
            continue
        adjacency[i] = [setdefault(ext, len(right_ids)) for ext in product(*options)]
    return adjacency, high_degree


def rows_beyond_rivals(table: IncompleteTable, key: AttributeSet) -> set:
    """The rows with a NULL on ``key`` and more extensions than rivals:
    the other rows weakly similar to them on ``key``.

    Rows are grouped by the key columns they are NULL on (their mask).
    Two rows are weakly similar when they agree on the key columns
    neither mask covers, so a row's rivals in one group are counted by
    one tally of that group's projections on those columns, kept for
    every row that needs the same (group, columns) pair. The key-total
    rows are counted first, then the groups by mask size, and a row's
    count stops once it reaches the row's extension count or the rows
    still uncounted cannot take it there. A row with more than
    ``|T| - 1`` extensions is returned uncounted.
    """
    rows = table.rows
    n = len(rows)
    cols = sorted(key)
    sizes = [len(v) for v in column_values(table)]
    project = projector(cols)
    totals = []
    at: dict = {}  # mask -> indices of the rows NULL on just those key columns
    for i, row in enumerate(rows):
        if None in project(row):
            at.setdefault(tuple(c for c in cols if row[c] is None), []).append(i)
        else:
            totals.append(row)
    groups = {(): totals, **{mask: [rows[i] for i in idx] for mask, idx in at.items()}}
    masks = sorted(groups, key=lambda mask: (len(mask), mask))
    tallies: dict = {}  # (mask, shared columns) -> (projector, tally lookup)
    out = set()
    for mask in masks[1:]:
        count = prod(sizes[c] for c in mask)
        if count > n - 1:
            out.update(at[mask])
            continue
        counters = []
        rest = n
        for other in masks:
            shared = tuple(c for c in cols if c not in mask and c not in other)
            tally = tallies.get((other, shared))
            if tally is None:
                get = projector(shared)
                tally = tallies[other, shared] = (get, Counter(map(get, groups[other])).get)
            rest -= len(groups[other])
            counters.append((*tally, rest))
        for i, row in zip(at[mask], groups[mask]):
            rivals = -1  # the row itself
            for get, lookup, uncounted in counters:
                rivals += lookup(get(row), 0)
                if rivals >= count:
                    break
                if rivals + uncounted < count:
                    out.add(i)
                    break
    return out


def hopcroft_karp(adjacency: list, n_right: int, match_l: list | None = None,
                  match_r: list | None = None) -> tuple[int, list, list]:
    """Layered (shortest-augmenting-path batch) maximum matching.

    ``adjacency[u]`` lists the right neighbours of left vertex ``u``;
    vertex order is the caller's, making results reproducible. Iterative
    DFS, so deep alternating paths cannot hit the recursion limit.

    ``match_l`` and ``match_r`` (left vertex -> right id and back, None
    when free) warm-start the search from a valid matching of this
    graph; they are augmented in place and returned.
    """
    n_left = len(adjacency)
    if match_l is None:
        match_l, match_r = [None] * n_left, [None] * n_right
    inf = float("inf")
    dist = [inf] * n_left
    size = sum(1 for v in match_l if v is not None)
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
            # Iterative alternating DFS; frames are [vertex, iterator, edge].
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
    return size, match_l, match_r


def max_matching(graph: ExtensionGraph) -> MatchingResult:
    """Maximum matching over materialized vertices, then every
    high-degree tuple greedily completed with an unused extension.

    The greedy phase always succeeds: a tuple left out of the graph has
    more extensions than rivals, and only a rival can hold one of them,
    so the overall size equals the maximum matching of the full graph.
    """
    low_rows = sorted(graph.adjacency)
    adjacency = [graph.adjacency[i] for i in low_rows]
    _, match_l, _ = hopcroft_karp(adjacency, len(graph.right_tuples))
    right_ids = {i: rid for i, rid in zip(low_rows, match_l) if rid is not None}
    matching = {i: graph.right_tuples[rid] for i, rid in right_ids.items()}
    match_high_degree(graph.table, graph.key, graph.high_degree_left, matching)
    return MatchingResult(matching, len(matching), right_ids)


def match_high_degree(table: IncompleteTable, key: AttributeSet, rows, matching: dict) -> None:
    """Give each of ``rows``, in index order, its first key extension in
    ``table`` that ``matching`` does not use yet, adding it to
    ``matching``. Every row must have more extensions than rivals (the
    other rows of ``table`` weakly similar to it on ``key``), so one is
    always free.
    """
    used = set(matching.values())
    cols = sorted(key)
    values = column_values(table)
    for i in sorted(rows):
        for ext in product(*extension_options(table.rows[i], cols, values)):
            if ext not in used:
                matching[i] = ext
                used.add(ext)
                break
        else:
            raise AssertionError("pigeonhole violated: no free extension for high-degree tuple")


def hall_components(graph: ExtensionGraph, result: MatchingResult | None = None) -> ComponentPartition:
    """Classify connected components by whether a local matching covers
    all their tuple vertices.

    A maximum matching decomposes over components, so the global matching
    restricted to a component is locally maximum. ``result`` is a
    maximum matching of the table's full extension graph, computed here
    when not given; any such matching counts the same rows per component.
    """
    if not graph.fully_materialized:
        raise UnmaterializedGraphError(
            "extension graph hit the materialization cap "
            f"({graph.cap}); rebuild with a larger cap for the component partition"
        )
    if result is None:
        result = max_matching(graph)
    n_right = len(graph.right_tuples)
    # Union-find over left rows (as-is) and right ids (offset by row count).
    parent = list(range(graph.table.row_count + n_right))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    offset = graph.table.row_count
    for i, edges in graph.adjacency.items():
        for rid in edges:
            union(i, offset + rid)
    groups: dict = {}
    for i in graph.adjacency:
        groups.setdefault(find(i), [[], []])[0].append(i)
    for rid in range(n_right):
        groups.setdefault(find(offset + rid), [[], []])[1].append(rid)
    satisfied = []
    deficient = []
    for lefts, rights in groups.values():
        if not lefts and not rights:
            continue
        nu = sum(1 for i in lefts if i in result.matching)
        component = Component(tuple(sorted(lefts)), tuple(sorted(rights)), nu)
        (satisfied if component.satisfied else deficient).append(component)
    order = lambda c: (c.left_rows, c.right_ids)
    return ComponentPartition(
        tuple(sorted(satisfied, key=order)), tuple(sorted(deficient, key=order))
    )
